#!/usr/bin/env python3
"""Validates TBF tree snapshot files (src/hst/snapshot.cc format).

Stdlib only — CI runs this against snapshots written by the benchmark and
chaos jobs, as an independent (non-C++) check that what the writer
fsync'd to disk is a complete, CRC-clean, schema-valid tree, and against
corrupted copies that must be refused.

Format v2 (docs/ROBUSTNESS.md): the journal's frames (tools/tbf_frames.py)
    <len:u32 LE> <crc32:u32 LE> <payload: len bytes>
    payload = <kind:u8> <kind-specific fields, LE>
    file    = header points+ leaves+ end
The header carries the magic "TBF-SNAP", version 2, flags (bit 0: leaves
as packed u64 codes), depth, arity, scale and num_points. Point records
hold whole (f64 x, f64 y) rows; leaf records whole u64 codes (flags bit 0
set) or depth x u16 digit rows (clear); each table's rows total
num_points. The end record counts the records before it.

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
VERSION = 2
FLAG_PACKED = 1 << 0
HEADER, POINTS, LEAVES, END = range(4)
NAMES = ["header", "points", "leaves", "end"]


def bits_per_digit(arity):
    """Mirror of LeafCodec::BitsPerDigit: ceil(log2(arity))."""
    return (arity - 1).bit_length()


def shape_fits(depth, arity):
    """Mirror of LeafCodec::Fits."""
    return depth >= 1 and arity >= 2 and depth * bits_per_digit(arity) <= 64


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
            row = 16 if kind == POINTS else self.leaf_bytes
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
        flags, depth, arity = r.u32(), r.i32(), r.i32()
        scale, self.num_points = r.f64(), r.u64()
        if not r.at_end():
            raise ValueError("trailing bytes after a complete record")
        if flags & ~FLAG_PACKED:
            raise ValueError("unknown flag bits 0x%x" % (flags & ~FLAG_PACKED))
        if depth < 1:
            raise ValueError("depth %d must be >= 1" % depth)
        if not 2 <= arity <= 0xFFFF:
            raise ValueError("arity %d out of range [2, 65535]" % arity)
        if not math.isfinite(scale) or scale <= 0.0:
            raise ValueError("scale must be positive and finite, got %r" % scale)
        self.packed, fits = bool(flags & FLAG_PACKED), shape_fits(depth, arity)
        if self.packed != fits:
            raise ValueError(
                "leaf encoding does not match the tree shape: packed flag %s "
                "but depth %d x arity %d %s 64-bit codes"
                % ("set" if self.packed else "clear", depth, arity,
                   "fits" if fits else "does not fit")
            )
        if self.num_points == 0:
            raise ValueError("empty point set")
        self.depth, self.arity = depth, arity
        self.leaf_bytes = 8 if self.packed else 2 * depth

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
        leaves = self.rows(LEAVES, "<Q" if self.packed else "<%dH" % self.depth)
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
        # Packed digits sit root-first from the top bit down (LeafCodec);
        # everything below the last digit must be zero.
        shifts = [64 - bits * (level + 1) for level in range(self.depth)]
        seen = set()
        for i, row in enumerate(leaves):
            digits = row
            if self.packed:
                if row[0] & ((1 << shifts[-1]) - 1):
                    raise ValueError("leaf %d: code has bits outside the shape" % i)
                digits = [(row[0] >> s) & ((1 << bits) - 1) for s in shifts]
            for level, digit in enumerate(digits):
                if digit >= self.arity:
                    raise ValueError(
                        "leaf %d: digit %d at level %d out of arity range [0, %d)"
                        % (i, digit, level, self.arity)
                    )
            if row in seen:
                raise ValueError("leaf %d: duplicate leaf path" % i)
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
        "OK   %s (%d points, depth %d, arity %d, %s leaves, %d records)"
        % (path, snap.num_points, snap.depth, snap.arity,
           "packed" if snap.packed else "digit", snap.records)
    )
    return True


if __name__ == "__main__":
    sys.exit(file_checker_main(sys.argv[1:], __doc__, check_file, ".snap"))
