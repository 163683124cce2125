#!/usr/bin/env python3
"""Validates TBF tree snapshot files (src/hst/snapshot.cc format).

Stdlib only — CI runs this against snapshots written by the benchmark and
chaos jobs, as an independent (non-C++) check that what the writer
fsync'd to disk is a complete, CRC-clean, schema-valid tree, and against
corrupted copies that must be refused.

Format v3 (docs/ROBUSTNESS.md): the journal's frames (tools/tbf_frames.py)
    <len:u32 LE> <crc32:u32 LE> <payload: len bytes>
    payload = <kind:u8> <kind-specific fields, LE>
    file    = header points+ leaves+ end
The header carries the magic "TBF-SNAP", version 3, depth, arity, scale
and num_points; the shape must fit 128-bit leaf codes. Point records hold
whole (f64 x, f64 y) rows; leaf records whole 16-byte leaf codes (low
u64, then high u64); each table's rows total num_points. The end record
counts the records before it. v2 and older are refused.

Exit status: 0 when every file validates, 1 otherwise (--expect-fail
inverts it).

Usage:
    tools/check_snapshot.py FILE [FILE...]
    tools/check_snapshot.py --dir DIR      # every *.snap under DIR
    tools/check_snapshot.py --expect-fail FILE...  # corrupted fixtures
"""

import math
import struct
import sys

from tbf_frames import FrameError, Reader, fail, file_checker_main, iter_frames

MAGIC = b"TBF-SNAP"
VERSION = 3
CODE_BITS = 128  # kLeafCodeBits
LEAF_BYTES = 16
HEADER, POINTS, LEAVES, END = range(4)
NAMES = ["header", "points", "leaves", "end"]


def bits_per_digit(arity):
    """Mirror of LeafCodec::BitsPerDigit: ceil(log2(arity))."""
    return (arity - 1).bit_length()


def shape_fits(depth, arity):
    """Mirror of LeafCodec::Fits."""
    return depth >= 1 and arity >= 2 and depth * bits_per_digit(arity) <= CODE_BITS


class Snapshot:
    """Decodes one record per call, enforcing the file grammar (header,
    point records, leaf records, end) and the header schema; the table
    rows are checked after the walk (check_tables)."""

    def __init__(self):
        self.records, self.last, self.ended = 0, HEADER, False
        self.tables = {POINTS: [], LEAVES: []}

    def decode(self, payload):
        if not payload:
            raise ValueError("empty record")
        kind = payload[0]
        if kind >= len(NAMES):
            raise ValueError("unknown record kind %d" % kind)
        try:
            self.decode_body(kind, payload[1:])
        except ValueError as e:
            raise ValueError("%s record: %s" % (NAMES[kind], e))
        self.last = kind
        self.records += 1

    def decode_body(self, kind, body):
        if self.records == 0 and kind != HEADER:
            raise ValueError("the first record must be the snapshot header")
        if self.ended:
            raise ValueError("follows the end record")
        if self.records > 0 and (kind < self.last or kind == HEADER):
            raise ValueError(
                "follows a %s record (the order is header, points, leaves, end)"
                % NAMES[self.last]
            )
        r = Reader(body)
        if kind == HEADER:
            self.decode_header(r)
        elif kind == END:
            counted = r.u64()
            if not r.at_end():
                raise ValueError("trailing bytes after a complete record")
            if counted != self.records:
                raise ValueError(
                    "counts %d records before it, the file has %d"
                    % (counted, self.records)
                )
            self.ended = True
        else:
            row = 16 if kind == POINTS else LEAF_BYTES
            if len(body) % row:
                raise ValueError(
                    "%d trailing bytes after %d whole %d-byte rows"
                    % (len(body) % row, len(body) // row, row)
                )
            self.tables[kind].append(body)

    def decode_header(self, r):
        magic = r.string()
        if magic != MAGIC:
            raise ValueError("bad magic %r" % magic)
        version = r.u32()
        if version != VERSION:
            raise ValueError(
                "unsupported version %d (this tool reads v%d)" % (version, VERSION)
            )
        depth, arity = r.i32(), r.i32()
        scale, self.num_points = r.f64(), r.u64()
        if not r.at_end():
            raise ValueError("trailing bytes after a complete record")
        if depth < 1:
            raise ValueError("depth %d must be >= 1" % depth)
        if not 2 <= arity <= 0xFFFF:
            raise ValueError("arity %d out of range [2, 65535]" % arity)
        if not math.isfinite(scale) or scale <= 0.0:
            raise ValueError("scale must be positive and finite, got %r" % scale)
        if not shape_fits(depth, arity):
            raise ValueError(
                "depth %d x arity %d does not fit %d-bit leaf codes"
                % (depth, arity, CODE_BITS)
            )
        if self.num_points == 0:
            raise ValueError("empty point set")
        self.depth, self.arity = depth, arity

    def rows(self, kind, fmt):
        return [r for body in self.tables[kind] for r in struct.iter_unpack(fmt, body)]

    def check_tables(self):
        """Row counts, then every row; raises ValueError on the first
        violation."""
        if not self.ended:
            raise ValueError(
                "no end record after %d records (truncated or corrupt file)"
                % self.records
            )
        points = self.rows(POINTS, "<dd")
        leaves = [(hi << 64) | lo for lo, hi in self.rows(LEAVES, "<QQ")]
        for rows, table in ((points, "point"), (leaves, "leaf")):
            if len(rows) != self.num_points:
                raise ValueError(
                    "%d points declared, the %s table holds %d rows"
                    % (self.num_points, table, len(rows))
                )
        for i, (x, y) in enumerate(points):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("point %d: non-finite coordinate" % i)
        bits = bits_per_digit(self.arity)
        # Digits sit root-first from the top bit down (LeafCodec);
        # everything below the last digit must be zero.
        shifts = [CODE_BITS - bits * (level + 1) for level in range(self.depth)]
        seen = set()
        for i, row in enumerate(leaves):
            if row & ((1 << shifts[-1]) - 1):
                raise ValueError("leaf %d: code has bits outside the shape" % i)
            digits = [(row >> s) & ((1 << bits) - 1) for s in shifts]
            for level, digit in enumerate(digits):
                if digit >= self.arity:
                    raise ValueError(
                        "leaf %d: digit %d at level %d out of arity range [0, %d)"
                        % (i, digit, level, self.arity)
                    )
            if row in seen:
                raise ValueError("leaf %d: duplicate leaf" % i)
            seen.add(row)


def check_file(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        return fail(path, "unreadable: %s" % e)

    snap = Snapshot()
    try:
        for ordinal, offset, payload in iter_frames(blob):
            try:
                snap.decode(payload)
            except ValueError as e:
                raise FrameError.at(ordinal, offset, str(e))
        if snap.records == 0:
            raise ValueError("empty file")
        snap.check_tables()
    except ValueError as e:  # FrameError included
        return fail(path, str(e))
    print(
        "OK   %s (%d points, depth %d, arity %d, %d-bit codes, %d records)"
        % (path, snap.num_points, snap.depth, snap.arity,
           snap.depth * bits_per_digit(snap.arity), snap.records)
    )
    return True


if __name__ == "__main__":
    sys.exit(file_checker_main(sys.argv[1:], __doc__, check_file, ".snap"))
