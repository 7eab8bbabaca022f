"""SecDDR-style integrity: flat MAC-of-MACs, O(1) verify, detection.

SecDDR is the Merkle tree over :func:`build_flat_geometry`: the level-1
MAC groups are the top level, so every group's MAC stays on chip.
"""

import pytest

from repro.auth.codes import build_flat_geometry
from repro.auth.merkle import IntegrityViolation, MerkleTree
from repro.auth.schemes import GCMMACScheme
from repro.core import SecureMemorySystem, secddr_config
from repro.core.config import IntegrityMode
from repro.memory.dram import MainMemory

NUM_LEAVES = 64
BLOCK = 64


def make_auth(node_cache_bytes=2 * 1024, mac_bits=64):
    geometry = build_flat_geometry(NUM_LEAVES, BLOCK, mac_bits)
    code_bytes = geometry.total_code_blocks * BLOCK
    dram = MainMemory(size_bytes=NUM_LEAVES * BLOCK + code_bytes,
                      block_size=BLOCK)
    auth = MerkleTree(geometry, GCMMACScheme(bytes(16), mac_bits),
                      dram, code_region_base=NUM_LEAVES * BLOCK,
                      node_cache_bytes=node_cache_bytes)
    return auth, dram


def leaf_addr(index):
    return index * BLOCK


class TestVerifyUpdate:
    def test_update_then_verify(self):
        auth, _ = make_auth()
        content = bytes(range(64))
        auth.update_leaf(3, leaf_addr(3), 1, content)
        auth.verify_leaf(3, leaf_addr(3), 1, content)  # must not raise

    def test_verify_wrong_content_fails(self):
        auth, _ = make_auth()
        auth.update_leaf(3, leaf_addr(3), 1, bytes(64))
        with pytest.raises(IntegrityViolation):
            auth.verify_leaf(3, leaf_addr(3), 1, b"\x01" + bytes(63))

    def test_verify_wrong_counter_fails(self):
        auth, _ = make_auth()
        auth.update_leaf(3, leaf_addr(3), 1, bytes(64))
        with pytest.raises(IntegrityViolation):
            auth.verify_leaf(3, leaf_addr(3), 2, bytes(64))

    def test_relocated_content_fails(self):
        """The leaf MAC binds the address: ciphertext moved to another
        address must not verify (SecDDR's splicing defence)."""
        auth, _ = make_auth()
        auth.update_leaf(3, leaf_addr(3), 1, bytes(64))
        with pytest.raises(IntegrityViolation):
            auth.verify_leaf(3, leaf_addr(4), 1, bytes(64))

    def test_rejects_deep_geometry(self):
        """IntegrityMode.SECDDR builds a depth-1 tree: every level-1 group
        is a top-level node with its MAC on chip, never a deeper walk."""
        config = secddr_config()
        assert config.resolved_integrity is IntegrityMode.SECDDR
        system = SecureMemorySystem(config, protected_bytes=1 << 20)
        geometry = system.merkle.geometry
        assert isinstance(system.merkle, MerkleTree)
        assert geometry.depth == 1
        assert geometry.level_sizes[1] == -(-geometry.num_leaves
                                            // geometry.arity)


class TestConstantTimeVerify:
    def test_chain_never_longer_than_one(self):
        """The whole point: at most ONE off-chip node fetch per verify,
        regardless of memory size — no Merkle walk."""
        auth, _ = make_auth(node_cache_bytes=512)
        for i in range(NUM_LEAVES):
            auth.update_leaf(i, leaf_addr(i), 1, bytes([i]) * 64)
        auth.flush()
        auth.node_cache.flush()
        for i in range(NUM_LEAVES):
            fetched = auth.verify_leaf(i, leaf_addr(i), 1, bytes([i]) * 64)
            assert fetched <= 1
        assert max(auth.stats.chain_lengths) <= 1

    def test_cached_group_means_zero_fetches(self):
        auth, _ = make_auth()
        auth.update_leaf(0, 0, 1, bytes(64))
        fetches_before = auth.stats.node_fetches
        assert auth.verify_leaf(0, 0, 1, bytes(64)) == 0
        assert auth.stats.node_fetches == fetches_before

    def test_virgin_group_needs_no_dram_read(self):
        """Never-written groups are trusted zeros; garbage planted in
        their DRAM location before first use has no effect."""
        auth, dram = make_auth()
        dram.poke(auth.node_address(1, 1), b"\xff" * 64)
        auth.update_leaf(8, leaf_addr(8), 1, bytes(64))
        auth.verify_leaf(8, leaf_addr(8), 1, bytes(64))


class TestTamperDetection:
    def _cold(self, auth):
        auth.flush()
        auth.node_cache.flush()

    def test_tampered_group_detected_by_onchip_mac(self):
        """Corrupting the off-chip MAC group trips the on-chip
        MAC-of-MACs — the replacement for the parent chain."""
        auth, dram = make_auth()
        auth.update_leaf(0, 0, 1, bytes(64))
        self._cold(auth)
        node_address = auth.node_address(1, 0)
        image = bytearray(dram.peek(node_address))
        image[0] ^= 0x01
        dram.poke(node_address, bytes(image))
        with pytest.raises(IntegrityViolation) as excinfo:
            auth.verify_leaf(0, 0, 1, bytes(64))
        assert excinfo.value.kind == "node"
        assert auth.stats.violations_detected >= 1

    def test_replayed_group_detected(self):
        """Rolling a MAC group back to an older valid image fails against
        the on-chip table (derivative counter moved on)."""
        auth, dram = make_auth()
        auth.update_leaf(0, 0, 1, bytes(64))
        auth.flush()
        node_address = auth.node_address(1, 0)
        old_image = dram.peek(node_address)
        auth.update_leaf(0, 0, 2, b"\x99" * 64)
        self._cold(auth)
        dram.poke(node_address, old_image)
        with pytest.raises(IntegrityViolation):
            auth.verify_leaf(0, 0, 2, b"\x99" * 64)

    def test_stale_leaf_after_cold_restart_detected(self):
        """Replaying an old leaf against the current group MAC fails."""
        auth, _ = make_auth()
        auth.update_leaf(5, leaf_addr(5), 1, b"\x01" * 64)
        auth.update_leaf(5, leaf_addr(5), 2, b"\x02" * 64)
        self._cold(auth)
        with pytest.raises(IntegrityViolation):
            auth.verify_leaf(5, leaf_addr(5), 1, b"\x01" * 64)
        auth2, _ = make_auth()
        auth2.update_leaf(5, leaf_addr(5), 2, b"\x02" * 64)
        auth2.load_state(auth.state_dict())
        auth2.verify_leaf(5, leaf_addr(5), 2, b"\x02" * 64)


class TestBatchedLeaves:
    def test_batched_matches_scalar(self):
        batched, _ = make_auth()
        scalar, _ = make_auth()
        items = [(i, leaf_addr(i), 1, bytes([i ^ 0x5A]) * 64)
                 for i in (9, 2, 14, 3, 8)]
        batched.update_leaves(items)
        for item in items:
            scalar.update_leaf(*item)
        for item in items:
            batched.verify_leaf(*item)
            scalar.verify_leaf(*item)

    def test_verify_leaves_detects_tampering(self):
        auth, _ = make_auth()
        items = [(i, leaf_addr(i), 1, bytes(64)) for i in range(4)]
        auth.update_leaves(items)
        bad = list(items)
        bad[2] = (2, leaf_addr(2), 1, b"\xff" + bytes(63))
        with pytest.raises(IntegrityViolation):
            auth.verify_leaves(bad)

    def test_empty_batch(self):
        auth, _ = make_auth()
        assert auth.verify_leaves([]) == 0
        auth.update_leaves([])  # must not raise


class TestStateRoundTrip:
    def test_state_dict_round_trip(self):
        auth, dram = make_auth()
        for i in range(0, NUM_LEAVES, 3):
            auth.update_leaf(i, leaf_addr(i), i + 1, bytes([i]) * 64)
        auth.flush()
        saved = auth.state_dict()
        fresh, fresh_dram = make_auth()
        fresh_dram.load_state(dram.state_dict())
        fresh.load_state(saved)
        assert fresh.state_dict() == saved
        for i in range(0, NUM_LEAVES, 3):
            fresh.verify_leaf(i, leaf_addr(i), i + 1, bytes([i]) * 64)
