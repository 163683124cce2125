#!/usr/bin/env python3
"""Runs the serving benchmark over several seeds and compares it to a baseline.

Run from the repository root:

    python3 perfbench/compare.py --baseline perfbench/baselines/xeon-4vcpu.json
    python3 perfbench/compare.py --write perfbench/baselines/<host>.json \\
        --host "<cpu, core count, memory>"

For every workload in BENCHMARK.json it runs the benchmark command once per
seed (end-to-end metrics, --trace 0) and takes each metric's median and
quartiles. Against a baseline, a metric regresses when its median is worse
than the baseline median by more than the metric's bound from
BENCHMARK.json; when the quartile spread of either side exceeds the bound
the comparison is reported as unresolved instead. Exits 1 on any
regression or incorrect run. Baselines are per host: compare only runs
from the host that produced the baseline. Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def run_workload(bench, workload, seeds):
    values = {}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        lines = proc.stdout.decode(errors="replace").splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: benchmark failed")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: incorrect output")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    return {name: summarize(v) for name, v in values.items()}


def compare(bench, baseline, current):
    regressions = 0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload, metrics in current.items():
            base = baseline["workloads"].get(workload, {}).get(name)
            if base is None:
                continue
            now = metrics[name]
            change = sign * (now["median"] - base["median"]) / base["median"]
            if max(now["spread"], base["spread"]) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:10s} {name:16s} baseline {base['median']:12.6g} "
                  f"now {now['median']:12.6g} worse by {100 * change:+6.1f}% "
                  f"(bound {100 * bound:.0f}%) {verdict}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="baseline JSON to compare against")
    parser.add_argument("--write", help="write the runs as a new baseline")
    parser.add_argument("--host", default="", help="host description (--write)")
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated subset")
    args = parser.parse_args()
    if not args.baseline and not args.write:
        parser.error("give --baseline, --write, or both")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    current = {w: run_workload(bench, w, seeds) for w in workloads}

    if args.write:
        Path(args.write).write_text(json.dumps(
            {"host": args.host, "run_seconds": bench["run_seconds"],
             "seeds": seeds, "workloads": current}, indent=1) + "\n")
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        if compare(bench, baseline, current):
            sys.exit(1)


if __name__ == "__main__":
    main()
