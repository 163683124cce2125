#!/usr/bin/env python3
"""Validates TBF replay checkpoint files and their outcome logs
(src/serve/checkpoint.cc formats).

Stdlib only — CI runs this against the checkpoints the seeded chaos drill
leaves behind, as an independent (non-C++) check that what the writer
fsync'd to disk is a complete, CRC-clean, schema-valid snapshot of the
live state, with the history rows it covers in the outcome log, and
against corrupted copies that must be refused.

Checkpoint v8 (docs/ROBUSTNESS.md): the journal's frames
(tools/tbf_frames.py)
    <len:u32 LE> <crc32:u32 LE> <payload: len bytes>
    payload = <kind:u8> <kind-specific fields, LE>
    file    = header record* end
The header carries the magic "TBF-CKPT" and version 8; the end record
counts the records before it. Free, worker and spend records are tables:
whole rows back to back, read until the payload ends; a row cut short is
refused by its row number ("worker row K: ..."), and so is a table record
with no rows. A worker row's report is its 128-bit leaf code (16 bytes).
The server record carries the index-id pool size, and the worker rows'
index ids and the free ids must partition [0, pool size): no id outside
it, none listed twice, none left out. v7 (one record per free, worker and
spend row), v6 (which repeated each worker's index id in a slot row), v5
(which carried the history rows) and older are refused.

Outcome log v1, next to the checkpoint: <dir>/outcomes for a durable
directory's ckpt-<ordinal:08>.ckpt, <file>.outcomes for any other
checkpoint file. Same frames; log = header row*, the header carrying the
magic "TBF-OLOG", version 1 and the run identity, each row an epoch, task
or quarantine record. Checks: every frame CRC-clean to the end of the
file (no torn tail: run this after recovery, as tools/check_wal.py), the
header first and once with the checkpoint's identity, every row
schema-valid; the checkpoint's covered length (cursor) falls on a frame
boundary where the log holds exactly its epoch, task (next task slot) and
quarantine row counts; and the log ends at the newest checkpoint's
length.

Exit status: 0 when every file validates, 1 otherwise (--expect-fail
inverts it).

Usage:
    tools/check_checkpoint.py FILE [FILE...]
    tools/check_checkpoint.py --dir DIR      # every *.ckpt under DIR
    tools/check_checkpoint.py --expect-fail FILE...  # corrupted fixtures
"""

import os
import re
import sys

from tbf_frames import FrameError, Reader, fail, file_checker_main, iter_frames

MAGIC = b"TBF-CKPT"
VERSION = 8
LOG_MAGIC = b"TBF-OLOG"
LOG_VERSION = 1
DURABLE_NAME = re.compile(r"ckpt-(\d{8})\.ckpt$")
TEXT_MAGIC = b"TBFCKPT1 "  # the retired v1-v3 text format
HIST_BUCKETS = 64  # obs::Histogram::kBuckets
MAX_STATUS_CODE = 10  # StatusCode::kAborted

U64 = "u64"
IDENTITY = ["u32", "u32", "f64", U64, U64]
# kind byte -> (name, field types), in src/serve/checkpoint.cc order. The
# fields of a table record (TABLES) are one row's.
SCHEMA = [
    ("header", ["str", "u32"]),
    ("identity", IDENTITY),
    # next event, arrivals obfuscated, next task slot, wal next lsn,
    # outcome log bytes, epoch rows, quarantine rows
    ("cursor", [U64, U64, "i64", U64, U64, U64, U64]),
    ("report", [U64] * 13),
    ("server", [U64, U64, U64]),  # assigned tasks, tree epoch, pool size
    ("rng", ["str"]),
    ("free", ["u32"]),
    ("worker", ["str", "u128", "u32", "u32"]),
    ("ledger", ["i64", "f64", U64, U64, U64]),
    ("spend", ["flag", "str", "f64"]),  # scope: 0 epoch, 1 lifetime
    ("counter", ["str", "f64"]),
    ("gauge", ["str", "i64"]),
    ("histogram", ["str", U64, U64] + [U64] * HIST_BUCKETS),
    ("end", [U64]),
]
# The outcome log's header and rows.
LOG_SCHEMA = [
    ("header", ["str", "u32"] + IDENTITY),
    ("epoch", ["i64"] + [U64] * 6 + ["f64"] * 3 + [U64] * 4),
    ("task", ["str", "status", "optstr", "f64"]),
    ("quarantine", [U64, "str", "str"]),
]
TABLES = {"free", "worker", "spend"}
REQUIRED = {"header", "identity", "cursor", "report", "server", "rng", "end"}
SINGLETONS = REQUIRED | {"ledger"}


def read_field(r, kind):
    if kind == "flag":
        value = r.u8()
        if value > 1:
            raise ValueError("flag byte %d is not 0/1" % value)
        return value
    if kind == "status":
        code = r.u32()
        if code > MAX_STATUS_CODE:
            raise ValueError("status code %d out of range" % code)
        return code, r.string()
    if kind == "optstr":
        return r.string() if read_field(r, "flag") else None
    return {"u32": r.u32, "u64": r.u64, "u128": r.u128, "i64": r.i64,
            "f64": r.f64, "str": r.string}[kind]()


def decode_fields(payload, schema, first_row=None):
    """Decodes one payload against `schema`; returns (name, values). A kind
    named in `first_row` is a table record: its values are its rows,
    numbered in messages from first_row[name]. Raises ValueError on an
    unknown kind, a short read, trailing bytes or a table with no rows."""
    if not payload:
        raise ValueError("empty record")
    if payload[0] >= len(schema):
        raise ValueError("unknown record kind %d" % payload[0])
    name, fields = schema[payload[0]]
    r = Reader(payload)
    r.u8()
    if first_row and name in first_row:
        rows = []
        if r.at_end():
            raise ValueError("%s row %d: empty table record"
                             % (name, first_row[name]))
        while not r.at_end():
            try:
                rows.append([read_field(r, field) for field in fields])
            except ValueError as e:
                raise ValueError("%s row %d: %s"
                                 % (name, first_row[name] + len(rows), e))
        return name, rows
    try:
        values = [read_field(r, field) for field in fields]
    except ValueError as e:
        raise ValueError("%s: %s" % (name, e))
    if not r.at_end():
        raise ValueError("%s record: trailing bytes after a complete record" % name)
    return name, values


def decode_record(payload, records, seen, rows):
    """Decodes one checkpoint payload against the schema and the file
    grammar; returns (name, values), a table record's values being its rows
    (`rows` counts each table's rows so far). Raises ValueError on any
    violation."""
    name, values = decode_fields(payload, SCHEMA, rows)
    if records == 0 and name != "header":
        raise ValueError("%s record: the first record must be the checkpoint header" % name)
    if "end" in seen:
        raise ValueError("%s record: follows the end record" % name)
    if name in SINGLETONS and name in seen:
        raise ValueError("%s record: duplicate" % name)
    if name == "spend" and "ledger" not in seen:
        raise ValueError("spend record: precedes the ledger record")
    if name == "header":
        if values[0] != MAGIC:
            raise ValueError("header record: bad magic %r" % values[0])
        if values[1] != VERSION:
            raise ValueError(
                "header record: unsupported version %d (this tool reads v%d)"
                % (values[1], VERSION)
            )
    if name == "end" and values[0] != records:
        raise ValueError(
            "end record: counts %d records before it, the file has %d"
            % (values[0], records)
        )
    return name, values


def check_pool(pool_size, held, free):
    """Checks that the held index ids (worker rows) and the free ids
    partition [0, pool_size); returns an error message, or None."""
    seen = set()
    for index_id in held + free:
        if index_id >= pool_size:
            return "index id %d lies outside the pool of %d" % (index_id, pool_size)
        if index_id in seen:
            return "index id %d is held or free twice" % index_id
        seen.add(index_id)
    if len(seen) != pool_size:
        return "the pool of %d index ids leaves %d neither held nor free" % (
            pool_size, pool_size - len(seen))
    return None


def log_path_of(path):
    """The outcome log a checkpoint file's rows live in, and whether a
    newer checkpoint of the same log sits next to it."""
    match = DURABLE_NAME.search(os.path.basename(path))
    if not match:
        return path + ".outcomes", False
    directory = os.path.dirname(path) or "."
    ordinals = [int(m.group(1)) for m in
                (DURABLE_NAME.search(n) for n in os.listdir(directory)) if m]
    return os.path.join(directory, "outcomes"), max(ordinals) > int(match.group(1))


def check_log(path, identity, cursor):
    """Validates the outcome log `path` against one checkpoint's identity
    and cursor; returns an error message, or None."""
    covered, epochs, quarantines = cursor[4], cursor[5], cursor[6]
    want = (epochs, cursor[2], quarantines)  # task rows: next task slot
    log_path, has_newer = log_path_of(path)
    if covered == 0:
        return None if want == (0, 0, 0) else (
            "cursor counts %s rows but covers no outcome log" % (want,))
    try:
        with open(log_path, "rb") as f:
            blob = f.read()
    except OSError as e:
        return "outcome log %s unreadable: %s" % (log_path, e)
    counts = {"epoch": 0, "task": 0, "quarantine": 0}
    boundaries = {}  # frame end offset -> (epochs, tasks, quarantines)
    try:
        for ordinal, offset, payload in iter_frames(blob):
            try:
                name, values = decode_fields(payload, LOG_SCHEMA)
                if (ordinal == 0) != (name == "header"):
                    raise ValueError(
                        "header record: duplicate" if ordinal else
                        "%s record: the first record must be the outcome log "
                        "header" % name)
                if name == "header":
                    if values[0] != LOG_MAGIC:
                        raise ValueError("header record: bad magic %r" % values[0])
                    if values[1] != LOG_VERSION:
                        raise ValueError(
                            "header record: unsupported version %d (this tool "
                            "reads v%d)" % (values[1], LOG_VERSION))
                    if values[2:] != identity:
                        raise ValueError(
                            "header record: identity differs from the "
                            "checkpoint's (a different run)")
                else:
                    counts[name] += 1
            except ValueError as e:
                raise FrameError.at(ordinal, offset, str(e))
            boundaries[offset + 8 + len(payload)] = (
                counts["epoch"], counts["task"], counts["quarantine"])
    except FrameError as e:
        return "outcome log %s: %s" % (log_path, e)
    if covered not in boundaries:
        return ("covers %d bytes of outcome log %s (%d bytes), not a frame "
                "boundary" % (covered, log_path, len(blob)))
    if boundaries[covered] != want:
        return ("outcome log %s holds %s (epoch, task, quarantine) rows at %d "
                "bytes, the cursor counts %s"
                % (log_path, boundaries[covered], covered, want))
    if not has_newer and len(blob) != covered:
        return ("outcome log %s runs %d bytes past the newest checkpoint "
                "(rows recovery truncates)" % (log_path, len(blob) - covered))
    return None


def check_file(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        return fail(path, "unreadable: %s" % e)
    if blob.startswith(TEXT_MAGIC):
        return fail(path, "text-format (v1-v3) checkpoint; v8 is binary")

    seen = set()
    fields = {}
    tables = {name: [] for name in TABLES}
    records = 0
    try:
        for ordinal, offset, payload in iter_frames(blob):
            try:
                name, values = decode_record(
                    payload, records, seen,
                    {table: len(rows) for table, rows in tables.items()})
            except ValueError as e:
                raise FrameError.at(ordinal, offset, str(e))
            seen.add(name)
            if name in TABLES:
                tables[name].extend(values)
            else:
                fields.setdefault(name, values)
            records += 1
    except FrameError as e:
        return fail(path, str(e))
    if records == 0:
        return fail(path, "empty file")
    missing = REQUIRED - seen
    if missing:
        return fail(
            path,
            "missing required record(s) %s after %d records "
            "(truncated or corrupt file)" % (", ".join(sorted(missing)), records),
        )
    held = [row[2] for row in tables["worker"]]
    free = [row[0] for row in tables["free"]]
    problem = check_pool(fields["server"][2], held, free) or check_log(
        path, fields["identity"], fields["cursor"])
    if problem:
        return fail(path, problem)
    print("OK   %s (%d records, %d bytes; outcome log: %d bytes)"
          % (path, records, len(blob), fields["cursor"][4]))
    return True


if __name__ == "__main__":
    sys.exit(file_checker_main(sys.argv[1:], __doc__, check_file, ".ckpt"))
