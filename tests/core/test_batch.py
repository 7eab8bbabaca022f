"""Batch reads/writes must be byte-equivalent to the scalar loop.

``read_blocks``/``write_blocks`` reorder work internally (counter-block
grouping, bulk pad generation, Merkle ancestor sharing), so these tests
drive a batched system and a scalar system through identical operation
sequences and require identical observable values — including when a
minor-counter overflow forces a page re-encryption in the middle of a
batch, when an 8-bit monolithic counter wraps and forces a full
re-encryption there, and when a tiny L2 forces dirty evictions between
batch items.  Dirty evictions write back as one batch (one crypto
dispatch, one ``update_leaves``), so the twins' DRAM images are also
read back cold: after a flush, every L2 line is dropped and every block
re-fetched and re-verified.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.secure_memory as secure_memory
from repro.auth import IntegrityViolation
from repro.auth.merkle import MerkleTree
from repro.core import (
    SecureMemorySystem,
    direct_config,
    mono_config,
    mono_gcm_config,
    scattered_config,
    secddr_config,
    split_config,
    split_gcm_config,
    split_sha_config,
    xom_sha_config,
)
from repro.core.config import CounterOrg
from repro.obs.metrics import fields_state

REGION = 32 * 64  # 32 cache blocks
ADDRESSES = [i * 64 for i in range(REGION // 64)]


def make_pair(config, **kwargs):
    kwargs.setdefault("protected_bytes", REGION)
    kwargs.setdefault("l2_size", 1024)  # tiny: evictions mid-batch
    kwargs.setdefault("l2_assoc", 2)
    return (SecureMemorySystem(config, **kwargs),
            SecureMemorySystem(config, **kwargs))


def block_data(seed: int) -> bytes:
    return bytes((seed * 31 + i * 7) & 0xFF for i in range(64))


# a "round" is (writes, reads): writes may repeat addresses (last wins),
# reads may repeat addresses (all aliases must return the same bytes)
round_strategy = st.tuples(
    st.lists(st.tuples(st.integers(0, len(ADDRESSES) - 1),
                       st.integers(0, 255)), max_size=12),
    st.lists(st.integers(0, len(ADDRESSES) - 1), max_size=12),
)


def run_rounds(config, rounds, **kwargs):
    scalar, batched = make_pair(config, **kwargs)
    for writes, reads in rounds:
        pairs = [(ADDRESSES[i], block_data(seed)) for i, seed in writes]
        for address, data in pairs:
            scalar.write_block(address, data)
        batched.write_blocks(pairs)
        read_addrs = [ADDRESSES[i] for i in reads]
        scalar_values = [scalar.read_block(a) for a in read_addrs]
        assert batched.read_blocks(read_addrs) == scalar_values
    # final off-chip state must agree too
    scalar.flush()
    batched.flush()
    for address in ADDRESSES:
        assert batched.read_block(address) == scalar.read_block(address)
    # ... and read back cold: drop every (now clean) L2 line so each
    # block re-fetches, re-verifies and decrypts from DRAM
    for system in (scalar, batched):
        assert system.l2.flush() == []
    assert batched.read_blocks(ADDRESSES) == [
        scalar.read_block(address) for address in ADDRESSES]
    return batched


CONFIGS = [
    split_config(),
    split_gcm_config(),
    split_sha_config(),
    mono_config(8),
    direct_config(),
    secddr_config(),        # flat MAC layer: depth-1 MerkleTree
    scattered_config(),     # secret shares: per-block share write-back
]


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    @settings(max_examples=15, deadline=None)
    @given(rounds=st.lists(round_strategy, min_size=1, max_size=6))
    def test_property_shuffled_rounds(self, config, rounds):
        run_rounds(config, rounds)

    def test_duplicate_reads_alias_one_fetch(self):
        _, batched = make_pair(split_gcm_config())
        zeros = bytes(64)
        # an untouched block is a guaranteed miss; duplicates must alias it
        assert batched.read_blocks([320, 320, 320]) == [zeros, zeros, zeros]
        assert batched.l2.stats.misses == 1
        assert batched.l2.stats.hits == 0

    def test_duplicate_writes_last_wins(self):
        _, batched = make_pair(split_gcm_config())
        batched.write_blocks([(0, block_data(1)), (0, block_data(2)),
                              (64, block_data(3)), (0, block_data(4))])
        assert batched.read_block(0) == block_data(4)
        assert batched.read_block(64) == block_data(3)

    def test_empty_batches(self):
        _, batched = make_pair(split_config())
        assert batched.read_blocks([]) == []
        batched.write_blocks([])  # must not raise


class TestOverflowMidBatch:
    """minor_bits=2 overflows after four writes: page re-encryption must
    fire inside a batch without breaking equivalence."""

    def test_reencryption_triggered_and_equivalent(self):
        config = split_config(minor_bits=1)
        # cycle writes over 24 blocks through an 8-block L2 so every round
        # forces write-backs, each of which bumps a 1-bit minor counter
        rounds = [
            ([(i, r * 24 + i) for i in range(24)], list(range(0, 24, 3)))
            for r in range(8)
        ]
        batched = run_rounds(config, rounds, l2_size=512)
        assert batched.stats.reencryption.page_reencryptions > 0

    @settings(max_examples=10, deadline=None)
    @given(rounds=st.lists(round_strategy, min_size=2, max_size=5))
    def test_property_with_tiny_minor_counters(self, rounds):
        run_rounds(split_config(minor_bits=1), rounds)

    @pytest.mark.parametrize("config", [
        mono_config(8),
        mono_gcm_config().with_updates(counter_org=CounterOrg.MONO8,
                                       name="mono8b+gcm"),
    ], ids=lambda c: c.name)
    def test_full_reencryption_mid_batch_equivalent(self, config):
        """An 8-bit monolithic counter wraps on a block's 256th write-back
        and forces a key change plus full re-encryption.  Block 4 gets a
        20-write-back head start, then every round's read batch evicts
        dirty blocks 0..4 in that order, so block 4 wraps with four
        evictions pending: they must be written out first."""
        rounds = (
            [([(4, r)], [12, 20]) for r in range(20)]
            + [([(b, r * 5 + b) for b in range(5)],
                [8, 9, 10, 11, 12, 16, 17, 18, 19, 20])
               for r in range(250)])
        batched = run_rounds(config, rounds)
        assert batched.stats.reencryption.full_reencryptions > 0


class TestBatchedWriteBack:
    @pytest.mark.parametrize("config", [
        split_gcm_config(),
        secddr_config(),
    ], ids=["merkle", "secddr"])
    def test_dirty_evictions_re_mac_through_update_leaves(
            self, config, monkeypatch):
        """A batch's dirty evictions reach the tree as one
        ``update_leaves`` call, not one ``update_leaf`` per block."""
        calls = []
        inner = MerkleTree.update_leaves

        def spy(self, items):
            calls.append(len(items))
            return inner(self, items)

        monkeypatch.setattr(MerkleTree, "update_leaves", spy)
        _, batched = make_pair(config)
        # 32 distinct blocks through a 16-block L2: the second half of
        # the batch evicts the first half, dirty
        batched.write_blocks([(address, block_data(n))
                              for n, address in enumerate(ADDRESSES)])
        assert calls and max(calls) >= 2, calls
        batched.flush()
        assert batched.read_blocks(ADDRESSES) == [
            block_data(n) for n in range(len(ADDRESSES))]


class TestWriteAllocate:
    """A write-allocate miss verifies the block it replaces but does not
    decrypt it: the write overwrites the plaintext."""

    @staticmethod
    def all_miss_pair(config):
        """Twin systems holding every block in DRAM and none in the L2,
        whose L2 holds the whole region, so a write batch misses on
        every block and evicts none."""
        pair = make_pair(config, l2_size=2 * REGION)
        for system in pair:
            for n, address in enumerate(ADDRESSES):
                system.write_block(address, block_data(n))
            system.flush()
            assert system.l2.flush() == []
        return pair

    @pytest.mark.parametrize("config", [split_gcm_config(),
                                        xom_sha_config()],
                             ids=["counter", "direct"])
    def test_all_miss_write_blocks_decrypts_nothing(self, config,
                                                     monkeypatch):
        scalar, batched = self.all_miss_pair(config)
        pairs = [(address, block_data(100 + n))
                 for n, address in enumerate(ADDRESSES)]
        for address, data in pairs:
            scalar.write_block(address, data)

        calls = []
        for name in ("bulk_ctr_transform", "decrypt_blocks_kernel"):
            def spy(*args, _name=name, _inner=getattr(secure_memory, name),
                    **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(secure_memory, name, spy)
        batched.write_blocks(pairs)
        assert calls == []
        monkeypatch.undo()

        for system in (scalar, batched):
            system.flush()
        assert batched.dram.state_dict() == scalar.dram.state_dict()
        assert batched.merkle.top_macs == scalar.merkle.top_macs
        assert fields_state(batched.stats) == fields_state(scalar.stats)
        assert batched.stats.reads == 2 * len(ADDRESSES)
        assert batched.l2.flush() == []
        assert batched.read_blocks(ADDRESSES) == [data for _, data in pairs]

    @pytest.mark.parametrize("config", [split_gcm_config(),
                                        xom_sha_config()],
                             ids=["counter", "direct"])
    def test_tampered_block_still_fails_verification(self, config):
        _, batched = self.all_miss_pair(config)
        batched.dram.poke(ADDRESSES[5], bytes(64))
        with pytest.raises(IntegrityViolation):
            batched.write_blocks([(address, block_data(7))
                                  for address in ADDRESSES])
