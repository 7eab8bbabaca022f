"""Checkpoint container tests: codec, integrity, cross-preset round trips."""

import hashlib
import json
import random
from pathlib import Path

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
    return [(address, cache.is_dirty(address),
             None if cache.payload(address) is None
             else bytes(cache.payload(address)))
            for address in cache.resident_blocks()]


#: ``cache_state`` dicts of a seeded op sequence, emitted by the per-line
#: object layout ``Cache`` had before it took the address-list layout
CACHE_FIXTURE = Path(__file__).parent / "fixtures" / "cache_state.json"


def _fixture_states(payloads: bool):
    """Replay the fixture's ops; yield (fixture snapshot, live cache)."""
    fixture = json.loads(CACHE_FIXTURE.read_text())
    snapshots = iter(fixture["states"]["payloads" if payloads else "plain"])
    snapshot = next(snapshots)
    cache = Cache(*fixture["geometry"])
    for count, (kind, address, write, payload) in enumerate(fixture["ops"],
                                                            1):
        if kind == "fill":
            data = (bytearray.fromhex(payload)
                    if payloads and payload is not None else None)
            cache.fill(address, dirty=write, payload=data)
        elif kind == "access":
            cache.access(address, write=write)
        elif kind == "mark_dirty":
            cache.mark_dirty(address)
        elif kind == "invalidate":
            cache.invalidate(address)
        else:
            cache.flush()
        if count == snapshot["after_ops"]:
            yield snapshot, cache
            snapshot = next(snapshots, None)
            if snapshot is None:
                return


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

    @pytest.mark.parametrize("payloads", [False, True],
                             ids=["plain", "payloads"])
    def test_state_matches_the_committed_fixture(self, payloads):
        """Checkpoints written before the address-list layout still load,
        and the layout emits them byte for byte."""
        seen = 0
        for snapshot, cache in _fixture_states(payloads):
            expected = snapshot["state"]
            if expected["payloads"] is not None:
                expected = dict(expected, payloads=[
                    None if p is None else bytes.fromhex(p)
                    for p in expected["payloads"]])
            assert cache.state_dict() == expected
            blob = dumps(cache.state_dict(), kind="cache")
            assert hashlib.sha256(blob).hexdigest() == snapshot["sha256"]
            restored = Cache(cache.size_bytes, cache.assoc,
                             cache.block_size)
            restored.load_state(expected)
            assert _lines(restored) == _lines(cache)
            assert restored.state_dict() == expected
            seen += 1
        assert seen == 6


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


class TestCheckpointsThatNameAKernel:
    """A checkpoint written while the config still had a ``kernel`` field
    names a field no current config has: every resume path refuses it
    with :class:`CheckpointError`, never a ``TypeError``."""

    def test_system_checkpoint_is_refused(self):
        state = loads(checkpoint_system(_exercised_system("split+gcm")),
                      kind="system")
        state["config"]["kernel"] = "auto"
        target = SecureMemorySystem(PRESETS["split+gcm"],
                                    protected_bytes=PROTECTED,
                                    l2_size=2 * 1024, l2_assoc=2)
        untouched = checkpoint_system(target)
        with pytest.raises(CheckpointError, match="configuration"):
            restore_system(target, dumps(state, kind="system"))
        assert checkpoint_system(target) == untouched

    def test_simulation_checkpoint_is_refused(self, tmp_path):
        path = str(tmp_path / "roll.ckpt")
        api.run("split+gcm", "swim", refs=3_000, checkpoint_every=1_000,
                checkpoint_path=path)
        payload = load_checkpoint(path, kind="simulation")
        payload["config"]["kernel"] = "vector"
        save_checkpoint(path, dumps(payload, kind="simulation"))
        with pytest.raises(CheckpointError, match="configuration"):
            api.run("split+gcm", "swim", refs=3_000, resume_from=path)

    def test_simulation_checkpoint_in_queue_is_quarantined(self, tmp_path):
        cells = [SweepCell("split+gcm", "swim", refs=3_000)]
        queue = str(tmp_path / "queue")
        cid = cell_id(0, cells[0])
        QueuePaths(queue).ensure()
        path = QueuePaths(queue).checkpoint(cid)
        api.run("split+gcm", "swim", refs=3_000, checkpoint_every=1_000,
                checkpoint_path=path)
        payload = load_checkpoint(path, kind="simulation")
        payload["config"]["kernel"] = "auto"
        save_checkpoint(path, dumps(payload, kind="simulation"))

        report = run_many(cells, queue_dir=queue, parallelism=1,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=1_000)
        assert report.ok, report.to_dict()
        quarantined = [event for event in read_events(queue)
                       if event["event"] == "checkpoint_quarantined"]
        assert [event["cell"] for event in quarantined] == [cid]
        assert "configuration" in quarantined[0]["error"]
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

    @pytest.mark.parametrize("name,anchor", [
        ("split+gcm", "root_register"),
        ("secddr", "group_macs"),
    ])
    def test_rejects_state_of_an_older_tree_layout(self, name, anchor):
        """A checksummed blob from before the tree kept its top-level MACs
        under ``top_macs`` (a deep tree's ``root_register``, SecDDR's
        ``group_macs``) does not fit: CheckpointError, not KeyError, and
        the target keeps its own state."""
        original = _exercised_system(name)
        state = loads(checkpoint_system(original), kind="system")
        tree = state["system"]["merkle"]
        top_macs = tree.pop("top_macs")
        tree[anchor] = (top_macs.get(0, bytes(8)) if anchor == "root_register"
                        else top_macs)
        blob = dumps(state, kind="system")
        target = SecureMemorySystem(PRESETS[name], protected_bytes=PROTECTED,
                                    l2_size=2 * 1024, l2_assoc=2)
        target.write_block(0, bytes(range(target.block_size)))
        untouched = checkpoint_system(target)
        with pytest.raises(CheckpointError, match="does not fit"):
            restore_system(target, blob)
        assert checkpoint_system(target) == untouched
