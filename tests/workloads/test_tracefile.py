"""Round-trip and corruption lockdown for the ``.rtrc`` trace container.

Two halves:

* **Hypothesis round-trip** — encode→decode is the identity on random
  traces (including empty ones, negative gaps are impossible by
  construction but addresses span the full int64 range the format
  stores), the payload is the packed records from the page-aligned
  offset on, and chunked streaming ingest equals one-shot writing.
* **Corruption suite** — truncated files, bit flips in the payload, bit
  flips in the header, wrong magic, and unknown versions are rejected
  with :class:`TraceFileError` (never a silent mis-replay).
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    Trace,
    TraceFileError,
    TraceWriter,
    load_trace,
    read_header,
    trace_fingerprint,
    write_trace,
)
from repro.workloads.tracefile import DATA_OFFSET, MAGIC, RECORD_STRUCT

traces = st.builds(
    lambda name, rows: Trace(
        name=name,
        gaps=[r[0] for r in rows],
        writes=[r[1] for r in rows],
        addrs=[r[2] for r in rows],
    ),
    name=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=1, max_size=24),
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**31 - 1),
            st.booleans(),
            st.integers(min_value=-2**63, max_value=2**63 - 1),
        ),
        min_size=0, max_size=400),
)


@settings(max_examples=60, deadline=None)
@given(trace=traces)
def test_roundtrip_identity(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("rt") / "t.rtrc"
    write_trace(path, trace)
    back = load_trace(path)
    assert back.name == trace.name
    assert back.gaps == trace.gaps
    assert back.writes == trace.writes
    assert back.addrs == trace.addrs
    # the on-disk layout: one packed record per reference from the
    # page-aligned offset on, adopted by load_trace byte for byte
    payload = path.read_bytes()[DATA_OFFSET:]
    assert payload == b"".join(
        RECORD_STRUCT.pack(addr, gap, write)
        for gap, write, addr in zip(trace.gaps, trace.writes, trace.addrs))
    assert back.arrays().tobytes() == payload


@settings(max_examples=25, deadline=None)
@given(trace=traces, chunk=st.integers(min_value=1, max_value=64))
def test_streaming_ingest_equals_oneshot(tmp_path_factory, trace, chunk):
    """Appending in arbitrary chunks produces a byte-identical file."""
    base = tmp_path_factory.mktemp("stream")
    one = base / "one.rtrc"
    many = base / "many.rtrc"
    write_trace(one, trace)
    with TraceWriter(many, name=trace.name) as writer:
        for start in range(0, len(trace.addrs), chunk):
            stop = start + chunk
            writer.extend(trace.gaps[start:stop], trace.writes[start:stop],
                          trace.addrs[start:stop])
    assert one.read_bytes() == many.read_bytes()
    assert trace_fingerprint(one) == trace_fingerprint(many)


@pytest.fixture
def good_file(tmp_path):
    trace = Trace(name="probe",
                  gaps=list(range(64)),
                  writes=[i % 3 == 0 for i in range(64)],
                  addrs=[i * 4096 + 7 for i in range(64)])
    path = tmp_path / "good.rtrc"
    write_trace(path, trace)
    return path, trace


def test_header_contents(good_file):
    path, trace = good_file
    header = read_header(path)
    assert header["version"] == 1
    assert header["name"] == "probe"
    assert header["records"] == len(trace.addrs)
    assert header["payload_sha256"].startswith(trace_fingerprint(path))


def test_truncated_payload_rejected(good_file):
    path, _ = good_file
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(TraceFileError, match="size|truncat"):
        load_trace(path)


def test_truncated_header_rejected(good_file):
    path, _ = good_file
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TraceFileError):
        read_header(path)


def test_payload_bitflip_rejected(good_file):
    path, _ = good_file
    data = bytearray(path.read_bytes())
    data[DATA_OFFSET + 17] ^= 0x40
    path.write_bytes(bytes(data))
    read_header(path)  # header itself is fine ...
    with pytest.raises(TraceFileError, match="checksum|crc|sha"):
        load_trace(path)  # ... but the payload digest must catch the flip


def test_header_bitflip_rejected(good_file):
    path, _ = good_file
    data = bytearray(path.read_bytes())
    data[20] ^= 0x01  # inside the JSON header, after magic+lengths
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFileError, match="header"):
        read_header(path)


def test_wrong_magic_rejected(good_file):
    path, _ = good_file
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFileError, match="magic|not a repro trace"):
        read_header(path)


def test_unknown_version_rejected(good_file):
    """A future version must be refused, not guessed at."""
    path, _ = good_file
    data = bytearray(path.read_bytes())
    header_len, _ = struct.unpack_from("<II", data, 8)
    header = json.loads(bytes(data[16:16 + header_len]))
    header["version"] = 99
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode()
    data[8:16] = struct.pack("<II", len(raw), zlib.crc32(raw))
    data[16:16 + header_len] = b" " * header_len
    data[16:16 + len(raw)] = raw
    path.write_bytes(bytes(data))
    with pytest.raises(TraceFileError, match="version"):
        read_header(path)


def test_record_count_mismatch_rejected(good_file):
    """Appending stray bytes breaks the size invariant."""
    path, _ = good_file
    with open(path, "ab") as handle:
        handle.write(b"\x00" * RECORD_STRUCT.size)
    with pytest.raises(TraceFileError, match="size|records"):
        read_header(path)


def test_abort_on_exception_removes_partial_file(tmp_path):
    path = tmp_path / "partial.rtrc"
    with pytest.raises(RuntimeError):
        with TraceWriter(path, name="doomed") as writer:
            writer.append(1, False, 0x1000)
            raise RuntimeError("ingest died")
    assert not path.exists()


def test_fingerprint_is_content_addressed(tmp_path):
    """Same records, different path/filename → same fingerprint."""
    trace = Trace(name="fp", gaps=[0, 1], writes=[True, False],
                  addrs=[64, 128])
    a, b = tmp_path / "a.rtrc", tmp_path / "sub-b.rtrc"
    write_trace(a, trace)
    write_trace(b, trace)
    assert trace_fingerprint(a) == trace_fingerprint(b)
    other = Trace(name="fp", gaps=[0, 1], writes=[True, False],
                  addrs=[64, 192])
    c = tmp_path / "c.rtrc"
    write_trace(c, other)
    assert trace_fingerprint(c) != trace_fingerprint(a)
