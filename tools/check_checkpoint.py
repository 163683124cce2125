#!/usr/bin/env python3
"""Validates TBF replay checkpoint files (src/serve/checkpoint.cc format).

Stdlib only — CI runs this against the checkpoints the seeded chaos drill
leaves behind, as an independent (non-C++) check that what the writer
fsync'd to disk is a complete, CRC-clean, schema-valid snapshot, and
against corrupted copies that must be refused.

Format v5 (docs/ROBUSTNESS.md): the journal's frames (tools/tbf_frames.py)
    <len:u32 LE> <crc32:u32 LE> <payload: len bytes>
    payload = <kind:u8> <kind-specific fields, LE>
    file    = header record* end
The header carries the magic "TBF-CKPT" and version 5; the end record
counts the records before it. A worker row's report is its 128-bit leaf
code (16 bytes), the only leaf encoding; v4 and older are refused.

Exit status: 0 when every file validates, 1 otherwise (--expect-fail
inverts it).

Usage:
    tools/check_checkpoint.py FILE [FILE...]
    tools/check_checkpoint.py --dir DIR      # every *.ckpt under DIR
    tools/check_checkpoint.py --expect-fail FILE...  # corrupted fixtures
"""

import sys

from tbf_frames import FrameError, Reader, fail, file_checker_main, iter_frames

MAGIC = b"TBF-CKPT"
VERSION = 5
TEXT_MAGIC = b"TBFCKPT1 "  # the retired v1-v3 text format
HIST_BUCKETS = 64  # obs::Histogram::kBuckets
MAX_STATUS_CODE = 10  # StatusCode::kAborted

U64 = "u64"
# kind byte -> (name, field types), in src/serve/checkpoint.cc order.
SCHEMA = [
    ("header", ["str", "u32"]),
    ("identity", ["u32", "u32", "f64", U64, U64]),
    ("cursor", [U64, U64, "i64", U64]),
    ("report", [U64] * 13),
    ("epoch", ["i64"] + [U64] * 6 + ["f64"] * 3 + [U64] * 4),
    ("task", ["str", "status", "optstr", "f64"]),
    ("quarantine", [U64, "str", "str"]),
    ("server", [U64, U64]),
    ("rng", ["str"]),
    ("slot", ["str"]),
    ("free", ["u32"]),
    ("worker", ["str", "u128", "u32", "u32"]),
    ("ledger", ["i64", "f64", U64, U64, U64]),
    ("spend", ["flag", "str", "f64"]),  # scope: 0 epoch, 1 lifetime
    ("counter", ["str", "f64"]),
    ("gauge", ["str", "i64"]),
    ("histogram", ["str", U64, U64] + [U64] * HIST_BUCKETS),
    ("end", [U64]),
]
NAMES = [name for name, _ in SCHEMA]
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


def decode_record(payload, records, seen):
    """Decodes one payload against the schema and the file grammar;
    returns the record name. Raises ValueError on any violation."""
    if not payload:
        raise ValueError("empty record")
    if payload[0] >= len(SCHEMA):
        raise ValueError("unknown record kind %d" % payload[0])
    name, fields = SCHEMA[payload[0]]
    if records == 0 and name != "header":
        raise ValueError("%s record: the first record must be the checkpoint header" % name)
    if "end" in seen:
        raise ValueError("%s record: follows the end record" % name)
    if name in SINGLETONS and name in seen:
        raise ValueError("%s record: duplicate" % name)
    if name == "spend" and "ledger" not in seen:
        raise ValueError("spend record: precedes the ledger record")
    r = Reader(payload)
    r.u8()
    try:
        values = [read_field(r, field) for field in fields]
    except ValueError as e:
        raise ValueError("%s: %s" % (name, e))
    if not r.at_end():
        raise ValueError("%s record: trailing bytes after a complete record" % name)
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
    return name


def check_file(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        return fail(path, "unreadable: %s" % e)
    if blob.startswith(TEXT_MAGIC):
        return fail(path, "text-format (v1-v3) checkpoint; v5 is binary")

    seen = set()
    records = 0
    try:
        for ordinal, offset, payload in iter_frames(blob):
            try:
                seen.add(decode_record(payload, records, seen))
            except ValueError as e:
                raise FrameError.at(ordinal, offset, str(e))
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
    print("OK   %s (%d records, %d bytes)" % (path, records, len(blob)))
    return True


if __name__ == "__main__":
    sys.exit(file_checker_main(sys.argv[1:], __doc__, check_file, ".ckpt"))
