"""Shared record framing for the TBF validators (stdlib only).

Every on-disk artifact — journal segments (src/serve/wal.cc), replay
checkpoints and their outcome logs (src/serve/checkpoint.cc) and tree
snapshots (src/hst/snapshot.cc) — is a stream of CRC-framed records, the format
src/common/frames.h owns:

    frame := <len:u32 LE> <crc32:u32 LE> <payload: len bytes>

The CRC-32 is zlib's (binascii.crc32). Payload fields are little-endian;
doubles are IEEE-754 bits, strings <len:u32><bytes>, and a 128-bit leaf
code is its low u64 then its high u64. This module walks a
frame stream the way WalkFrames in src/common/frames.cc does, with the
same record-precise messages, and reads payload fields with bounds
checks. tools/check_wal.py, tools/check_checkpoint.py and
tools/check_snapshot.py import it and share its FAIL line (fail); the
single-file validators also share its command line (file_checker_main).
"""

import argparse
import binascii
import os
import struct

# kMaxFramePayload in src/common/frames.h: a larger declared length is garbage.
MAX_PAYLOAD = 1 << 22
FRAME_HEADER_BYTES = 8


class FrameError(ValueError):
    """A bad frame or record; the message names the record and offset."""

    @classmethod
    def at(cls, ordinal, offset, reason):
        return cls("record %d (offset %d): %s" % (ordinal, offset, reason))


class Reader:
    """Bounds-checked little-endian reader over one payload. Every read
    past the end raises ValueError("short read (<field> at byte N)")."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def _take(self, n, what):
        if self.pos + n > len(self.data):
            raise ValueError("short read (%s at byte %d)" % (what, self.pos))
        piece = self.data[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u8(self):
        return self._take(1, "u8")[0]

    def u32(self):
        return struct.unpack("<I", self._take(4, "u32"))[0]

    def i32(self):
        return struct.unpack("<i", self._take(4, "i32"))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8, "u64"))[0]

    def i64(self):
        return struct.unpack("<q", self._take(8, "i64"))[0]

    def f64(self):
        return struct.unpack("<d", self._take(8, "f64"))[0]

    def string(self):
        return self._take(self.u32(), "string body")

    def u128(self):
        lo, hi = struct.unpack("<QQ", self._take(16, "u128"))
        return (hi << 64) | lo

    def at_end(self):
        return self.pos == len(self.data)


def iter_frames(blob):
    """Yields (ordinal, offset, payload) for each frame of `blob` in order.

    Raises FrameError at the first short header, over-cap length, frame
    running past the end (torn write) or CRC mismatch.
    """
    offset = 0
    ordinal = 0
    while offset < len(blob):
        if len(blob) - offset < FRAME_HEADER_BYTES:
            raise FrameError.at(
                ordinal, offset,
                "short frame header (%d trailing bytes)" % (len(blob) - offset),
            )
        length, declared = struct.unpack_from("<II", blob, offset)
        if length > MAX_PAYLOAD:
            raise FrameError.at(
                ordinal, offset,
                "frame length %d exceeds the %d-byte cap" % (length, MAX_PAYLOAD),
            )
        end = offset + FRAME_HEADER_BYTES + length
        if end > len(blob):
            raise FrameError.at(
                ordinal, offset,
                "frame extends %d bytes past end of file (torn write)"
                % (end - len(blob)),
            )
        payload = blob[offset + FRAME_HEADER_BYTES : end]
        actual = binascii.crc32(payload) & 0xFFFFFFFF
        if actual != declared:
            raise FrameError.at(
                ordinal, offset,
                "payload CRC mismatch (declared %08x, computed %08x)"
                % (declared, actual),
            )
        yield ordinal, offset, payload
        offset = end
        ordinal += 1


def fail(path, message):
    print("FAIL %s: %s" % (path, message))
    return False


def file_checker_main(argv, doc, check_file, ext):
    """Command line of a single-file validator: FILE... and/or --dir DIR
    (every *ext under it); exit 0 when every file validates, 1
    otherwise, inverted by --expect-fail."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("files", nargs="*", help="files to validate")
    parser.add_argument("--dir", help="validate every *%s under this directory" % ext)
    parser.add_argument(
        "--expect-fail",
        action="store_true",
        help="invert the verdict: succeed only when every file FAILS "
        "(CI uses this to prove corrupted fixtures are rejected)",
    )
    args = parser.parse_args(argv)

    files = list(args.files)
    if args.dir:
        for root, _, names in os.walk(args.dir):
            files.extend(os.path.join(root, n) for n in sorted(names) if n.endswith(ext))
    if not files:
        parser.error("no files given (pass FILE... or --dir DIR)")

    results = [check_file(f) for f in files]
    if args.expect_fail:
        return 0 if not any(results) else 1
    return 0 if all(results) else 1
