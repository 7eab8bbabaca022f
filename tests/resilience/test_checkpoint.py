"""Checkpoint container tests: codec, integrity, cross-preset round trips."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.core.config import PRESETS, RecoveryConfig, RecoveryPolicy
from repro.core.secure_memory import SecureMemorySystem
from repro.memory.cache import Cache
from repro.resilience import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    SweepCell,
    checkpoint,
    checkpoint_system,
    config_from_state,
    config_state,
    dumps,
    load_checkpoint,
    loads,
    restore_system,
    run_many,
    save_checkpoint,
    trace_digest,
)
from repro.resilience.fabric import QueuePaths, cell_id, read_events
from repro.sim.batched import LeanCache
from repro.testing import assert_chaos_equivalent, reference_report
from repro.workloads import spec_trace

PROTECTED = 64 * 1024


def _case_id(value) -> str:
    """Test id of a codec case.  Set elements are listed sorted: a set's
    repr follows string hashing, which differs from run to run."""
    if isinstance(value, (set, frozenset)):
        text = "{" + ", ".join(sorted(map(repr, value))) + "}"
        if isinstance(value, frozenset):
            text = f"frozenset({text})"
    else:
        text = repr(value)
    return text[:40]


class TestCodec:
    CASES = [
        None, True, False, 0, -17, 3.5, float("inf"), "text", b"",
        b"\x00\xffbytes", bytearray(b"\x01\x02"), (1, "two", b"\x03"),
        {1: "int-keyed", (2, 3): "tuple-keyed"},
        {"plain": {"nested": [1, 2, {"deep": b"\xaa"}]}},
        {(0, 1), (2, 3)}, frozenset({"a", "b"}),
        [1, [2, [3, (4,)]]],
    ]

    @pytest.mark.parametrize("value", CASES,
                             ids=[_case_id(c) for c in CASES])
    def test_value_roundtrip(self, value):
        blob = dumps(value, kind="test")
        out = loads(blob, kind="test")
        if isinstance(value, frozenset):
            assert out == set(value)     # sets come back as plain sets
        else:
            assert out == value
            assert type(out) is type(value) or isinstance(value, bool)

    def test_save_load_save_is_byte_identical(self):
        payload = {"blocks": {0: b"\x01" * 8, 64: b"\x02" * 8},
                   "written": {(0, 1), (2, 3)}, "epoch": 4,
                   "ratio": 0.1 + 0.2}
        blob = dumps(payload, kind="test")
        assert dumps(loads(blob, kind="test"), kind="test") == blob

    def test_rejects_unencodable(self):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            dumps({"bad": object()}, kind="test")

    def test_container_layout(self):
        blob = dumps({"x": 1}, kind="test")
        assert blob.startswith(CHECKPOINT_MAGIC)
        assert len(blob) > len(CHECKPOINT_MAGIC) + 8 + 32

    def test_detects_bad_magic(self):
        blob = b"NOTCKPT!" + dumps({}, kind="t")[8:]
        with pytest.raises(CheckpointError, match="magic"):
            loads(blob)

    def test_detects_truncation(self):
        blob = dumps({"x": list(range(100))}, kind="t")
        with pytest.raises(CheckpointError, match="truncated"):
            loads(blob[:-3])

    def test_detects_payload_corruption(self):
        blob = bytearray(dumps({"x": list(range(100))}, kind="t"))
        blob[-1] ^= 0x40
        with pytest.raises(CheckpointError, match="digest"):
            loads(bytes(blob))

    def test_detects_kind_mismatch(self):
        blob = dumps({}, kind="system")
        with pytest.raises(CheckpointError, match="kind"):
            loads(blob, kind="simulation")

    def test_save_load_checkpoint_file(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        save_checkpoint(path, dumps({"v": 9}, kind="t"))
        assert load_checkpoint(path, kind="t") == {"v": 9}


class TestConfigState:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_roundtrip_every_preset(self, name):
        config = PRESETS[name]
        assert config_from_state(config_state(config)) == config

    def test_roundtrip_with_recovery_enabled(self):
        config = PRESETS["split+gcm"].with_updates(
            recovery=RecoveryConfig(
                enabled=True, policy=RecoveryPolicy.QUARANTINE_PAGE,
                max_retries=5, seed=11))
        assert config_from_state(config_state(config)) == config

    def test_state_is_checkpointable(self):
        state = config_state(PRESETS["split+gcm"])
        assert loads(dumps(state, kind="t"), kind="t") == state


#: cache operations over 48 blocks of a 4-set x 4-way cache, so random
#: sequences hit, miss, evict, refresh and re-order lines
CACHE_OPS = st.lists(st.tuples(
    st.sampled_from(("fill", "access", "mark_dirty", "invalidate")),
    st.integers(0, 47), st.booleans(),
    st.one_of(st.none(), st.binary(min_size=1, max_size=8))),
    max_size=80)


def _cache_after(ops, *, payloads: bool) -> Cache:
    cache = Cache(1024, 4, 64)
    for kind, block, write, payload in ops:
        address = block * 64
        if kind == "fill":
            cache.fill(address, dirty=write,
                       payload=payload if payloads else None)
        elif kind == "access":
            cache.access(address, write=write)
        elif kind == "mark_dirty":
            cache.mark_dirty(address)
        else:
            cache.invalidate(address)
    return cache


def _lines(cache: Cache) -> list:
    return [(address, line.dirty,
             None if line.payload is None else bytes(line.payload))
            for address, line in cache.resident_blocks()]


class TestCacheLayout:
    @settings(max_examples=80, deadline=None)
    @given(ops=CACHE_OPS, payloads=st.booleans())
    def test_roundtrip_keeps_order_dirty_payloads_and_stats(self, ops,
                                                             payloads):
        cache = _cache_after(ops, payloads=payloads)
        blob = dumps(cache.state_dict(), kind="test")
        restored = Cache(1024, 4, 64)
        restored.load_state(loads(blob, kind="test"))
        assert _lines(restored) == _lines(cache)     # MRU order per set
        assert restored.stats == cache.stats
        assert dumps(restored.state_dict(), kind="test") == blob

    @settings(max_examples=80, deadline=None)
    @given(ops=CACHE_OPS)
    def test_lean_cache_emits_the_same_state(self, ops):
        cache = _cache_after(ops, payloads=False)
        assert LeanCache(cache).state_dict() == cache.state_dict()


class TestContainerVersion:
    def test_v1_container_is_rejected_naming_its_version(self, monkeypatch):
        monkeypatch.setattr(checkpoint, "_VERSION", 1)
        blob = dumps({"x": 1}, kind="simulation")
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="version 1"):
            loads(blob, kind="simulation")

    def test_v1_checkpoint_in_queue_is_quarantined(self, tmp_path,
                                                   monkeypatch):
        cells = [SweepCell("split+gcm", "swim", refs=3_000)]
        queue = str(tmp_path / "queue")
        cid = cell_id(0, cells[0])
        QueuePaths(queue).ensure()
        # a real mid-cell snapshot of this very cell, written as version 1
        monkeypatch.setattr(checkpoint, "_VERSION", 1)
        api.run("split+gcm", "swim", refs=3_000, checkpoint_every=1_000,
                checkpoint_path=QueuePaths(queue).checkpoint(cid))
        monkeypatch.undo()

        report = run_many(cells, queue_dir=queue, parallelism=1,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=1_000)
        assert report.ok, report.to_dict()
        quarantined = [event for event in read_events(queue)
                       if event["event"] == "checkpoint_quarantined"]
        assert [event["cell"] for event in quarantined] == [cid]
        assert "version 1" in quarantined[0]["error"]
        assert not report.cells[0].resumed_from_checkpoint
        assert_chaos_equivalent(reference_report(cells), report)


class TestTraceDigest:
    def test_stable_and_distinguishing(self):
        one = spec_trace("swim", 2000)
        again = spec_trace("swim", 2000)
        other = spec_trace("mcf", 2000)
        assert trace_digest(one) == trace_digest(again)
        assert trace_digest(one) != trace_digest(other)


def _exercised_system(name: str) -> SecureMemorySystem:
    system = SecureMemorySystem(PRESETS[name], protected_bytes=PROTECTED,
                                l2_size=2 * 1024, l2_assoc=2)
    rng = random.Random(hash(name) & 0xFFFF)
    block = system.block_size
    addresses = [index * block
                 for index in rng.sample(range(PROTECTED // block), 12)]
    for address in addresses:
        system.write_block(address,
                           bytes((address + i) & 0xFF for i in range(block)))
    system.flush()
    for address in addresses[:6]:
        system.read_block(address)
    return system


class TestSystemCheckpoint:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_roundtrip_byte_identical_every_preset(self, name):
        """save → load → save reproduces the identical byte stream."""
        original = _exercised_system(name)
        blob = checkpoint_system(original)
        restored = SecureMemorySystem(PRESETS[name],
                                      protected_bytes=PROTECTED,
                                      l2_size=2 * 1024, l2_assoc=2)
        restore_system(restored, blob)
        assert checkpoint_system(restored) == blob

    def test_restored_system_reads_identically(self):
        original = _exercised_system("split+gcm")
        blob = checkpoint_system(original)
        restored = SecureMemorySystem(PRESETS["split+gcm"],
                                      protected_bytes=PROTECTED,
                                      l2_size=2 * 1024, l2_assoc=2)
        restore_system(restored, blob)
        block = original.block_size
        for index in range(0, PROTECTED // block, 7):
            address = index * block
            assert original.read_block(address) == restored.read_block(address)

    def test_rejects_config_mismatch(self):
        blob = checkpoint_system(_exercised_system("split+gcm"))
        other = SecureMemorySystem(PRESETS["mono+gcm"],
                                   protected_bytes=PROTECTED,
                                   l2_size=2 * 1024, l2_assoc=2)
        with pytest.raises(CheckpointError, match="configuration"):
            restore_system(other, blob)
