#!/usr/bin/env python3
"""Validates TBF write-ahead journal directories (src/serve/wal.cc format).

Stdlib only — CI runs this against the journals the seeded kill-anywhere
drill leaves behind, as an independent (non-C++) check that what the
writer fsync'd to disk is a frame-clean, schema-valid, LSN-contiguous
log.

Format (docs/ROBUSTNESS.md):
    wal-<seq:08>.seg, each a sequence of frames (tools/tbf_frames.py)
        <len:u32 LE> <crc32:u32 LE> <payload: len bytes>
    payload = <kind:u8> <lsn:u64 LE> <kind-specific fields, LE>
    kinds: 0 segment_header, 1 epoch_begin, 2 worker_arrival,
           3 task_arrival, 4 worker_departure, 5 quarantine,
           6 stream_fault, 7 republish
    format version 2: every arrival/task record sets its report flag and
    carries the reported 128-bit leaf code (16 bytes); v1 is refused.
    A flag byte may set only the bits its kind defines (arrival/task:
    report, epsilon, forced, worker; departure: missed).

Checks, mirroring the C++ scanner (ScanWalDir) in strict mode:
  * every frame's CRC matches and no segment ends in a torn frame
    (run this after recovery has repaired the tail, not before);
  * every payload decodes field-for-field with nothing left over;
  * each segment opens with its own header (matching seq, same identity
    across segments) and headers never appear mid-segment;
  * segment sequence numbers of adjacent present files are contiguous
    (older segments may be compacted away) and LSNs are contiguous
    across the whole scan.

Exit status: 0 when every directory validates, 1 otherwise.

Usage:
    tools/check_wal.py DIR [DIR...]
    tools/check_wal.py --expect-fail DIR    # corrupted-fixture mode
"""

import argparse
import os
import re
import sys

from tbf_frames import FrameError, Reader, fail, iter_frames

KIND_NAMES = {
    0: "segment_header",
    1: "epoch_begin",
    2: "worker_arrival",
    3: "task_arrival",
    4: "worker_departure",
    5: "quarantine",
    6: "stream_fault",
    7: "republish",
}

WAL_FORMAT_VERSION = 2
FLAG_REPORT = 1 << 0
FLAG_HAS_EPSILON = 1 << 1
FLAG_FORCED = 1 << 2
FLAG_HAS_WORKER = 1 << 3
FLAG_MISSED = 1 << 4
# The bits each dispatch kind defines; any other set bit is refused (a
# CRC-clean record that would re-encode to other bytes).
ARRIVAL_FLAGS = FLAG_REPORT | FLAG_HAS_EPSILON | FLAG_FORCED | FLAG_HAS_WORKER
DEPARTURE_FLAGS = FLAG_MISSED

_SEG_RE = re.compile(r"^wal-(\d{8})\.seg$")


def read_flags(r, defined):
    flags = r.u8()
    if flags & ~defined:
        raise ValueError(
            "flag byte 0x%02x sets undefined bits 0x%02x" % (flags, flags & ~defined)
        )
    return flags


def read_outcome(r):
    r.u32()  # status_code
    r.string()  # message
    r.f64()  # epsilon_charged
    denied = r.u8()
    if denied > 2:
        raise ValueError("budget_denied out of range")


def decode_record(payload):
    """Decodes one payload; returns (kind, lsn, identity-or-None,
    segment_seq-or-None). Raises ValueError on any schema violation."""
    r = Reader(payload)
    kind = r.u8()
    if kind not in KIND_NAMES:
        raise ValueError("unknown kind %d" % kind)
    lsn = r.u64()
    identity = None
    segment_seq = None
    if kind == 0:  # segment_header
        version = r.u32()
        if version != WAL_FORMAT_VERSION:
            raise ValueError(
                "unsupported format version %d (this build reads v%d)"
                % (version, WAL_FORMAT_VERSION)
            )
        segment_seq = r.u64()
        identity = (r.u32(), r.u32(), r.f64(), r.u64(), r.u64())
    elif kind == 1:  # epoch_begin
        r.i64(), r.u64(), r.u64(), r.i64()
    elif kind in (2, 3):  # worker_arrival / task_arrival
        r.u64()  # event_index
        r.string()  # id
        flags = read_flags(r, ARRIVAL_FLAGS)
        if not flags & FLAG_REPORT:
            raise ValueError("arrival/task record without its report (flag clear)")
        r.u128()  # leaf code
        if flags & FLAG_HAS_EPSILON:
            r.f64()
        read_outcome(r)
        if kind == 3:
            r.i64()  # task_slot
            if flags & FLAG_HAS_WORKER:
                r.string()
            r.f64()  # tree_distance
        elif flags & FLAG_HAS_WORKER:
            raise ValueError("worker flag on a non-task record")
    elif kind == 4:  # worker_departure
        r.u64()
        r.string()
        read_flags(r, DEPARTURE_FLAGS)
    elif kind == 5:  # quarantine
        r.u64()
        r.string()
        r.string()
    elif kind == 6:  # stream_fault
        r.u64()
        if r.u8() > 3:
            raise ValueError("fault_kind out of range")
    elif kind == 7:  # republish
        r.u64()
    if not r.at_end():
        raise ValueError(
            "trailing bytes after a complete record (kind %d)" % kind
        )
    return kind, lsn, identity, segment_seq


def check_segment(blob, seq, scan):
    """Walks one segment; `scan` carries identity and the expected LSN
    across segments. Returns the record count; raises FrameError."""
    records = 0
    for ordinal, offset, payload in iter_frames(blob):
        try:
            kind, lsn, identity, segment_seq = decode_record(payload)
        except ValueError as e:
            raise FrameError.at(ordinal, offset, str(e))
        if ordinal == 0:
            if kind != 0:
                raise FrameError.at(ordinal, offset, "segment does not start with a header")
            if segment_seq != seq:
                raise FrameError.at(
                    ordinal, offset,
                    "header claims seq %d, filename says %d" % (segment_seq, seq),
                )
            if scan["identity"] is None:
                scan["identity"] = identity
            elif identity != scan["identity"]:
                raise FrameError.at(ordinal, offset, "segment identity differs from scan head")
        elif kind == 0:
            raise FrameError.at(ordinal, offset, "segment header mid-segment")
        if scan["next_lsn"] is not None and lsn != scan["next_lsn"]:
            raise FrameError.at(
                ordinal, offset,
                "LSN gap: record %d, expected %d" % (lsn, scan["next_lsn"]),
            )
        scan["next_lsn"] = lsn + 1
        records += 1
    if records == 0:
        raise FrameError("empty segment (no header frame)")
    return records


def check_dir(path):
    try:
        names = sorted(os.listdir(path))
    except OSError as e:
        return fail(path, "unreadable: %s" % e)
    segments = [(int(m.group(1)), n) for n in names for m in [_SEG_RE.match(n)] if m]
    if not segments:
        return fail(path, "no wal-*.seg segments")

    ok = True
    prev_seq = None
    scan = {"identity": None, "next_lsn": None}
    total_records = 0
    for seq, name in segments:
        seg_path = os.path.join(path, name)
        if prev_seq is not None and seq != prev_seq + 1:
            ok = fail(seg_path, "segment sequence gap after %08d" % prev_seq)
        prev_seq = seq
        try:
            with open(seg_path, "rb") as f:
                blob = f.read()
        except OSError as e:
            ok = fail(seg_path, "unreadable: %s" % e)
            continue
        try:
            total_records += check_segment(blob, seq, scan)
        except FrameError as e:
            ok = fail(seg_path, str(e))
    if ok:
        print(
            "OK   %s (%d segments, %d records, next lsn %d)"
            % (path, len(segments), total_records, scan["next_lsn"])
        )
    return ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", help="WAL directories")
    parser.add_argument(
        "--expect-fail",
        action="store_true",
        help="invert the verdict: succeed only when every directory FAILS "
        "(CI uses this to prove corrupted fixtures are rejected)",
    )
    args = parser.parse_args(argv)

    results = [check_dir(d) for d in args.dirs]
    if args.expect_fail:
        return 0 if not any(results) else 1
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
