#!/usr/bin/env python3
"""Independent takotrace-v1 schema and invariant checker.

A second, stdlib-only implementation of the decoder (see DESIGN.md
Sec. 4.9 and src/trace/format.hh) so CI catches format drift between
the C++ codec and the documented spec. Checks, per file:

  - file header: magic, version, known flag bits, and counts patched
    by a closed writer (not the ~0 sentinel an abandoned one leaves);
  - chunk directory: magics, firstIndex continuity, exact coverage of
    the file (no trailing bytes), header record count == sum of chunks;
  - every chunk payload: CRC-32 (binascii.crc32 — same IEEE polynomial
    as the C++ table), full record decode with no reserved head bits,
    valid ops, in-range sizes/tenants, and no bytes left over;
  - timestamps non-decreasing file-wide when the flag is set.

Exit 0 iff every file validates. Usage:

  validate_takotrace.py zoo/*.takotrace
"""

import argparse
import binascii
import struct
import sys

MAGIC = b"takotrc1"
VERSION = 1
CHUNK_MAGIC = 0x314B4843
FLAG_TIMESTAMPS = 1 << 0
FILE_HEADER = struct.Struct("<8sIIQQ")
CHUNK_HEADER = struct.Struct("<IIIIQ")
NUM_OPS = 6
HEAD_HAS_SIZE = 1 << 3
HEAD_HAS_TENANT = 1 << 4
HEAD_HAS_TS = 1 << 5
HEAD_RESERVED = 0xC0
UNPATCHED = (1 << 64) - 1  # count sentinel until the writer closes


class TraceError(Exception):
    pass


def get_varint(data, pos, end):
    """Decode one LEB128 value; returns (value, new_pos)."""
    value = 0
    shift = 0
    while pos < end and shift < 64:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
    raise TraceError("truncated or over-long varint")


def zigzag_decode(v):
    return (v >> 1) ^ -(v & 1)


def check_chunk(data, start, end, nrecords, timestamps, last_ts):
    """Decode one chunk payload; returns the last timestamp seen."""
    pos = start
    prev_addr, prev_size, prev_tenant, prev_ts = 0, 8, 0, 0
    for i in range(nrecords):
        if pos >= end:
            raise TraceError(f"payload ends mid-record at record {i}")
        head = data[pos]
        pos += 1
        if head & HEAD_RESERVED:
            raise TraceError(f"record {i}: reserved head bits set")
        if (head & 0x07) >= NUM_OPS:
            raise TraceError(f"record {i}: invalid op {head & 0x07}")
        if head & HEAD_HAS_TS and not timestamps:
            raise TraceError(
                f"record {i}: timestamp in an untimestamped file")
        delta, pos = get_varint(data, pos, end)
        prev_addr = (prev_addr + zigzag_decode(delta)) & (2**64 - 1)
        if head & HEAD_HAS_SIZE:
            prev_size, pos = get_varint(data, pos, end)
            if prev_size == 0 or prev_size > 2**32 - 1:
                raise TraceError(f"record {i}: bad size {prev_size}")
        if head & HEAD_HAS_TENANT:
            prev_tenant, pos = get_varint(data, pos, end)
            if prev_tenant > 2**32 - 1:
                raise TraceError(
                    f"record {i}: bad tenant {prev_tenant}")
        if head & HEAD_HAS_TS:
            dt, pos = get_varint(data, pos, end)
            prev_ts += dt
        if timestamps:
            # The per-chunk delta context starts at 0, so prev_ts is the
            # record's absolute timestamp; it may never go backwards
            # anywhere in the file.
            if prev_ts < last_ts:
                raise TraceError(
                    f"record {i}: timestamp {prev_ts} goes backwards "
                    f"(previous {last_ts})")
            last_ts = prev_ts
    if pos != end:
        raise TraceError(
            f"{end - pos} payload bytes left after the last record")
    return last_ts


def validate(path):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < FILE_HEADER.size:
        raise TraceError("shorter than a file header")
    magic, version, flags, record_count, chunk_count = (
        FILE_HEADER.unpack_from(data, 0))
    if magic != MAGIC:
        raise TraceError("bad magic (not a takotrace file)")
    if version != VERSION:
        raise TraceError(f"format version {version}, expected {VERSION}")
    if flags & ~FLAG_TIMESTAMPS:
        raise TraceError(f"unknown flag bits {flags:#x}")
    timestamps = bool(flags & FLAG_TIMESTAMPS)
    if record_count == UNPATCHED:
        raise TraceError("unpatched record count (unclosed writer?)")

    pos = FILE_HEADER.size
    total = 0
    last_ts = 0
    for ci in range(chunk_count):
        if pos + CHUNK_HEADER.size > len(data):
            raise TraceError(f"truncated at chunk {ci} header")
        cmagic, crecords, payload_bytes, crc, first_index = (
            CHUNK_HEADER.unpack_from(data, pos))
        if cmagic != CHUNK_MAGIC:
            raise TraceError(f"chunk {ci}: bad magic {cmagic:#x}")
        if crecords == 0:
            raise TraceError(f"chunk {ci}: empty chunk")
        if first_index != total:
            raise TraceError(
                f"chunk {ci}: firstIndex {first_index} != running "
                f"count {total}")
        start = pos + CHUNK_HEADER.size
        end = start + payload_bytes
        if end > len(data):
            raise TraceError(f"truncated in chunk {ci} payload")
        got = binascii.crc32(data[start:end])
        if got != crc:
            raise TraceError(
                f"chunk {ci}: CRC mismatch (stored {crc:#010x}, "
                f"computed {got:#010x})")
        try:
            last_ts = check_chunk(data, start, end, crecords,
                                  timestamps, last_ts)
        except TraceError as e:
            raise TraceError(f"chunk {ci}: {e}") from None
        total += crecords
        pos = end
    if pos != len(data):
        raise TraceError(
            f"{len(data) - pos} trailing bytes after the last chunk")
    if total != record_count:
        raise TraceError(
            f"header says {record_count} records, chunks hold {total}")
    return record_count, chunk_count, timestamps


def main():
    ap = argparse.ArgumentParser(
        description="validate takotrace-v1 files against the spec")
    ap.add_argument("files", nargs="+", help=".takotrace files")
    args = ap.parse_args()

    failures = 0
    for path in args.files:
        try:
            records, chunks, ts = validate(path)
        except (TraceError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failures += 1
        else:
            stamp = "ts" if ts else "no-ts"
            print(f"ok   {path}: {records} records, {chunks} chunks, "
                  f"{stamp}")
    if failures:
        print(f"validate_takotrace: {failures} of {len(args.files)} "
              f"file(s) invalid")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
