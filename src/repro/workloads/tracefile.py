"""Compact versioned on-disk container for memory-access traces.

The ``.rtrc`` format stores one :class:`~repro.workloads.trace.Trace` as a
fixed-offset binary file that is simultaneously

* **streamable** — :class:`TraceWriter` appends records one at a time (or
  in chunks) with O(1) memory, so a trace far larger than RAM can be
  recorded from a live run;
* **array-shaped** — the payload begins at a page-aligned offset
  (:data:`DATA_OFFSET`) and each record is the packed little-endian
  equivalent of :data:`~repro.workloads.trace.TRACE_DTYPE`, so
  :func:`load_trace` adopts the payload bytes as the trace's records
  array without decoding a record;
* **integrity-checksummed** — the header carries a CRC32 over itself plus
  CRC32 *and* SHA-256 over the payload, so truncation, bit flips, and
  version skew are rejected loudly (:class:`TraceFileError`) instead of
  silently replaying a corrupted stream.

Layout::

    offset 0    magic           b"RPRTRC1\\n"        (8 bytes)
    offset 8    header_len      uint32 LE
    offset 12   header_crc32    uint32 LE            (over the JSON bytes)
    offset 16   header JSON     {"version", "name", "records",
                                 "payload_crc32", "payload_sha256"}
    offset 4096 payload         records x 13 bytes   struct "<qi?"
                                (addr int64, gap int32, write bool)

:func:`trace_fingerprint` exposes a short payload-derived identity (a
SHA-256 prefix read from the header alone) — path- and name-independent,
which is what sweep-cell dedupe keys on for trace-driven cells.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import zlib
from typing import Iterable

import numpy as np

from repro.workloads.trace import TRACE_DTYPE, Trace

__all__ = [
    "DATA_OFFSET",
    "MAGIC",
    "RECORD_STRUCT",
    "TRACE_VERSION",
    "TraceFileError",
    "TraceWriter",
    "load_trace",
    "read_header",
    "trace_fingerprint",
    "write_trace",
]

#: file magic — 8 bytes, version digit included so a v2 file with an
#: incompatible record layout fails at the magic check, not mid-payload
MAGIC = b"RPRTRC1\n"

#: header format version carried inside the JSON header
TRACE_VERSION = 1

#: payload offset — one page, so ``numpy.memmap(..., offset=DATA_OFFSET)``
#: is page-aligned on every platform we care about
DATA_OFFSET = 4096

#: one packed record: addr int64, gap int32, write bool — byte-identical
#: to one :data:`~repro.workloads.trace.TRACE_DTYPE` element
RECORD_STRUCT = struct.Struct("<qi?")

#: hex digits of the payload SHA-256 used as the short fingerprint
_FINGERPRINT_HEX = 12

#: records packed per chunk when streaming (:meth:`TraceWriter.extend`)
_CHUNK_RECORDS = 65536


class TraceFileError(ValueError):
    """A trace file failed validation (magic, version, checksum, size)."""


# -- writing ------------------------------------------------------------------


class TraceWriter:
    """Streaming trace recorder with O(1) memory.

    Opens ``path`` for writing, reserves the header page, and streams
    packed records while updating the payload CRC32/SHA-256 incrementally;
    :meth:`close` (or the context manager exit) seeks back and finalizes
    the header.  A writer abandoned by an exception leaves a file whose
    header claims 0 records written under a failed flag — ``records`` is
    only trusted after a clean close because the checksums would not match
    otherwise.

        with TraceWriter(path, name="db-page-cache") as writer:
            for gap, write, addr in source:
                writer.append(gap, write, addr)
    """

    def __init__(self, path: str | os.PathLike, *, name: str):
        self.path = os.fspath(path)
        self.name = name
        self.records = 0
        self._crc = 0
        self._sha = hashlib.sha256()
        self._handle: io.BufferedWriter | None = open(self.path, "wb")
        self._handle.write(b"\x00" * DATA_OFFSET)  # header written on close
        self._closed = False

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave no half-valid file behind a raised exception
            self.abort()

    def append(self, gap: int, write: bool, addr: int) -> None:
        """Append one reference record."""
        self._write_packed(RECORD_STRUCT.pack(addr, gap, bool(write)))
        self.records += 1

    def extend(self, gaps: Iterable[int], writes: Iterable[bool],
               addrs: Iterable[int]) -> None:
        """Append many records; streams in bounded chunks."""
        pack = RECORD_STRUCT.pack
        chunk: list[bytes] = []
        for gap, write, addr in zip(gaps, writes, addrs):
            chunk.append(pack(addr, gap, bool(write)))
            if len(chunk) >= _CHUNK_RECORDS:
                self._write_packed(b"".join(chunk))
                self.records += len(chunk)
                chunk.clear()
        if chunk:
            self._write_packed(b"".join(chunk))
            self.records += len(chunk)

    def extend_records(self, records) -> None:
        """Append a :data:`~repro.workloads.trace.TRACE_DTYPE` records
        array in one write (its bytes are the packed records)."""
        self._write_packed(records.tobytes())
        self.records += len(records)

    def _write_packed(self, data: bytes) -> None:
        if self._handle is None:
            raise ValueError("TraceWriter is closed")
        self._handle.write(data)
        self._crc = zlib.crc32(data, self._crc)
        self._sha.update(data)

    def close(self) -> None:
        """Finalize the header and close the file."""
        if self._closed:
            return
        handle = self._handle
        if handle is None:  # pragma: no cover - double-abort guard
            return
        header = {
            "version": TRACE_VERSION,
            "name": self.name,
            "records": self.records,
            "payload_crc32": self._crc,
            "payload_sha256": self._sha.hexdigest(),
        }
        raw = json.dumps(header, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
        if len(raw) > DATA_OFFSET - 16:
            handle.close()
            raise TraceFileError(
                f"trace header too large ({len(raw)} bytes) — "
                f"shorten the trace name")
        handle.seek(0)
        handle.write(MAGIC)
        handle.write(struct.pack("<II", len(raw), zlib.crc32(raw)))
        handle.write(raw)
        handle.close()
        self._handle = None
        self._closed = True

    def abort(self) -> None:
        """Close and delete the partial file (exception path)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True
        try:
            os.unlink(self.path)
        except OSError:  # pragma: no cover - already gone
            pass


def write_trace(path: str | os.PathLike, trace: Trace) -> str:
    """Write a materialized :class:`Trace` to ``path`` in one shot."""
    with TraceWriter(path, name=trace.name) as writer:
        writer.extend_records(trace.arrays())
    return os.fspath(path)


# -- reading ------------------------------------------------------------------


def read_header(path: str | os.PathLike) -> dict:
    """Validate and return the header dict (no payload read).

    Checks magic, header CRC, version, and that the file size matches the
    declared record count exactly — so truncation is caught without
    touching the payload.  Payload checksums are verified by
    :func:`load_trace`, which actually reads it.
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        prefix = handle.read(16)
        if len(prefix) < 16 or prefix[:8] != MAGIC:
            raise TraceFileError(
                f"{path}: not a repro trace file (bad magic; expected "
                f"{MAGIC!r})")
        header_len, header_crc = struct.unpack("<II", prefix[8:16])
        if header_len > DATA_OFFSET - 16:
            raise TraceFileError(
                f"{path}: corrupt header length {header_len}")
        raw = handle.read(header_len)
    if len(raw) != header_len or zlib.crc32(raw) != header_crc:
        raise TraceFileError(
            f"{path}: header checksum mismatch — file is corrupt")
    try:
        header = json.loads(raw)
    except ValueError as exc:  # pragma: no cover - crc catches this first
        raise TraceFileError(f"{path}: undecodable header: {exc}") from exc
    version = header.get("version")
    if version != TRACE_VERSION:
        raise TraceFileError(
            f"{path}: unsupported trace version {version!r} "
            f"(this build reads version {TRACE_VERSION})")
    records = header.get("records")
    if not isinstance(records, int) or records < 0:
        raise TraceFileError(f"{path}: corrupt record count {records!r}")
    expected_size = DATA_OFFSET + records * RECORD_STRUCT.size
    actual_size = os.path.getsize(path)
    if actual_size != expected_size:
        raise TraceFileError(
            f"{path}: truncated or padded payload — header declares "
            f"{records} records ({expected_size} bytes), file is "
            f"{actual_size} bytes")
    return header


def load_trace(path: str | os.PathLike) -> Trace:
    """Read a trace file into a :class:`Trace`.

    The payload is the trace's records array byte for byte, so the
    :class:`Trace` adopts it as is (read-only), after its checksums are
    verified in full: a corrupt file can never be silently misreplayed.
    The trace's lists are element-for-element identical to what the
    original generator produced — the foundation of the record/replay
    bit-equivalence differential.
    """
    path = os.fspath(path)
    header = read_header(path)
    with open(path, "rb") as handle:
        handle.seek(DATA_OFFSET)
        payload = handle.read(header["records"] * RECORD_STRUCT.size)
    if zlib.crc32(payload) != header["payload_crc32"] or \
            hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise TraceFileError(
            f"{path}: payload checksum mismatch — trace data is corrupt")
    return Trace.from_arrays(header["name"],
                             np.frombuffer(payload, dtype=TRACE_DTYPE))


def trace_fingerprint(path: str | os.PathLike) -> str:
    """Short payload identity: first 12 hex chars of the payload SHA-256.

    Read from the (CRC-verified) header only, so it is O(1) regardless of
    trace size, and independent of the file's path or stored name — two
    recordings of the same reference stream fingerprint identically.
    """
    return read_header(path)["payload_sha256"][:_FINGERPRINT_HEX]
