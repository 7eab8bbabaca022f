"""Functional Merkle tree: cached verification, lazy updates, detection."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.auth.codes import build_flat_geometry, build_geometry
from repro.auth.merkle import IntegrityViolation, MerkleTree
from repro.auth.schemes import GCMMACScheme, SHAMACScheme
from repro.memory.dram import MainMemory

NUM_LEAVES = 64
BLOCK = 64


def make_tree(mac="gcm", node_cache_bytes=2 * 1024, mac_bits=64):
    geometry = build_geometry(NUM_LEAVES, BLOCK, mac_bits)
    code_bytes = geometry.total_code_blocks * BLOCK
    dram = MainMemory(size_bytes=NUM_LEAVES * BLOCK + code_bytes,
                      block_size=BLOCK)
    scheme = (GCMMACScheme(bytes(16), mac_bits) if mac == "gcm"
              else SHAMACScheme(bytes(16), mac_bits))
    tree = MerkleTree(geometry, scheme, dram,
                      code_region_base=NUM_LEAVES * BLOCK,
                      node_cache_bytes=node_cache_bytes)
    return tree, dram


def leaf_addr(index):
    return index * BLOCK


class TestVerifyUpdate:
    def test_update_then_verify(self):
        tree, _ = make_tree()
        content = bytes(range(64))
        tree.update_leaf(3, leaf_addr(3), 1, content)
        tree.verify_leaf(3, leaf_addr(3), 1, content)  # must not raise

    def test_verify_wrong_content_fails(self):
        tree, _ = make_tree()
        tree.update_leaf(3, leaf_addr(3), 1, bytes(64))
        with pytest.raises(IntegrityViolation):
            tree.verify_leaf(3, leaf_addr(3), 1, b"\x01" + bytes(63))

    def test_verify_wrong_counter_fails(self):
        tree, _ = make_tree()
        tree.update_leaf(3, leaf_addr(3), 1, bytes(64))
        with pytest.raises(IntegrityViolation):
            tree.verify_leaf(3, leaf_addr(3), 2, bytes(64))

    def test_verify_wrong_address_fails(self):
        tree, _ = make_tree()
        tree.update_leaf(3, leaf_addr(3), 1, bytes(64))
        with pytest.raises(IntegrityViolation):
            tree.verify_leaf(3, leaf_addr(4), 1, bytes(64))

    def test_multiple_leaves_coexist(self):
        tree, _ = make_tree()
        for i in range(NUM_LEAVES):
            tree.update_leaf(i, leaf_addr(i), i, bytes([i]) * 64)
        for i in range(NUM_LEAVES):
            tree.verify_leaf(i, leaf_addr(i), i, bytes([i]) * 64)

    def test_sha_scheme_also_works(self):
        tree, _ = make_tree(mac="sha")
        tree.update_leaf(0, 0, 5, b"\xab" * 64)
        tree.verify_leaf(0, 0, 5, b"\xab" * 64)


class TestCachedTreeProtocol:
    def test_verification_stops_at_cached_node(self):
        tree, _ = make_tree()
        tree.update_leaf(0, 0, 1, bytes(64))
        fetches_before = tree.stats.node_fetches
        tree.verify_leaf(0, 0, 1, bytes(64))
        # parent is resident from the update: no node fetch needed
        assert tree.stats.node_fetches == fetches_before

    def test_flush_then_cold_verify(self):
        """After flush + node-cache flush, verification walks the full
        chain from DRAM up to the root register and succeeds."""
        tree, _ = make_tree()
        tree.update_leaf(0, 0, 1, b"\x42" * 64)
        tree.flush()
        tree.node_cache.flush()
        tree.verify_leaf(0, 0, 1, b"\x42" * 64)
        assert tree.stats.node_fetches > 0

    def test_dirty_eviction_propagates_upward(self):
        """A displaced dirty node updates its parent, bumping derivative
        counters and node write-backs."""
        geometry = build_geometry(NUM_LEAVES, BLOCK, 64)
        code_bytes = geometry.total_code_blocks * BLOCK
        dram = MainMemory(size_bytes=NUM_LEAVES * BLOCK + code_bytes,
                          block_size=BLOCK)
        # 4 lines, 2-way: the 8 level-1 nodes cannot all stay resident
        tree = MerkleTree(geometry, GCMMACScheme(bytes(16), 64), dram,
                          code_region_base=NUM_LEAVES * BLOCK,
                          node_cache_bytes=256, node_cache_assoc=2)
        for i in range(NUM_LEAVES):
            tree.update_leaf(i, leaf_addr(i), 1, bytes([i]) * 64)
        assert tree.stats.node_writebacks > 0
        for i in range(NUM_LEAVES):
            tree.verify_leaf(i, leaf_addr(i), 1, bytes([i]) * 64)

    def test_chain_length_recorded(self):
        tree, _ = make_tree()
        tree.update_leaf(0, 0, 1, bytes(64))
        tree.flush()
        tree.node_cache.flush()
        tree.verify_leaf(0, 0, 1, bytes(64))
        assert sum(tree.stats.chain_lengths.values()) >= 1
        assert max(tree.stats.chain_lengths) >= 1


class TestTamperDetection:
    def test_tampered_code_block_detected(self):
        tree, dram = make_tree()
        tree.update_leaf(0, 0, 1, bytes(64))
        tree.flush()
        tree.node_cache.flush()
        # corrupt the level-1 node image in DRAM
        node_address = tree.node_address(1, 0)
        image = bytearray(dram.peek(node_address))
        image[0] ^= 0x01
        dram.poke(node_address, bytes(image))
        with pytest.raises(IntegrityViolation):
            tree.verify_leaf(0, 0, 1, bytes(64))
        assert tree.stats.violations_detected >= 1

    def test_replayed_code_block_detected_above(self):
        """Rolling a written node back to an older valid image fails at
        the next level up (its parent holds the newer MAC)."""
        tree, dram = make_tree()
        tree.update_leaf(0, 0, 1, bytes(64))
        tree.flush()
        node_address = tree.node_address(1, 0)
        old_image = dram.peek(node_address)
        tree.update_leaf(0, 0, 2, b"\x99" * 64)
        tree.flush()
        tree.node_cache.flush()
        dram.poke(node_address, old_image)
        with pytest.raises(IntegrityViolation):
            tree.verify_leaf(0, 0, 2, b"\x99" * 64)

    def test_virgin_nodes_ignore_dram_garbage(self):
        """Never-written nodes are trusted zeros; garbage written to their
        DRAM location before first use has no effect."""
        tree, dram = make_tree()
        dram.poke(tree.node_address(1, 1), b"\xff" * 64)
        tree.update_leaf(8, leaf_addr(8), 1, bytes(64))
        tree.verify_leaf(8, leaf_addr(8), 1, bytes(64))


class TestRootRegister:
    def test_root_changes_when_top_written(self):
        """A virgin top node needs no on-chip MAC; writing it back sets
        the root register, the one top-level MAC of a full tree."""
        tree, _ = make_tree(node_cache_bytes=512)
        assert tree.top_macs == {}
        for i in range(NUM_LEAVES):
            tree.update_leaf(i, leaf_addr(i), 1, bytes([i]) * 64)
        tree.flush()
        assert list(tree.top_macs) == [0]

    def test_flush_makes_dram_self_contained(self):
        tree, _ = make_tree()
        tree.update_leaf(5, leaf_addr(5), 3, b"\x07" * 64)
        tree.flush()
        assert not any(True for _ in tree.node_cache.dirty_blocks())


class TestBatchedLeaves:
    def test_update_leaves_then_verify_leaves(self):
        tree, _ = make_tree()
        items = [(i, leaf_addr(i), i + 1, bytes([i]) * 64) for i in range(8)]
        tree.update_leaves(items)
        tree.verify_leaves(items)  # must not raise

    def test_batched_matches_scalar(self):
        batched, _ = make_tree()
        scalar, _ = make_tree()
        items = [(i, leaf_addr(i), 1, bytes([i ^ 0x5A]) * 64)
                 for i in (9, 2, 14, 3, 8)]
        batched.update_leaves(items)
        for item in items:
            scalar.update_leaf(*item)
        for item in items:
            batched.verify_leaf(*item)
            scalar.verify_leaf(*item)

    def test_verify_leaves_detects_tampering(self):
        tree, _ = make_tree()
        items = [(i, leaf_addr(i), 1, bytes(64)) for i in range(4)]
        tree.update_leaves(items)
        bad = list(items)
        bad[2] = (2, leaf_addr(2), 1, b"\xff" + bytes(63))
        with pytest.raises(IntegrityViolation):
            tree.verify_leaves(bad)

    def test_sibling_leaves_share_ancestor_walk(self):
        """Grouping by parent: verifying siblings as one batch must fetch
        no more tree levels than the scalar verify-each loop."""
        scalar, _ = make_tree()
        batched, _ = make_tree()
        items = [(i, leaf_addr(i), 1, bytes(64)) for i in range(4)]
        for tree in (scalar, batched):
            for item in items:
                tree.update_leaf(*item)
        separate = sum(scalar.verify_leaf(*item) for item in items)
        together = batched.verify_leaves(items)
        assert together <= separate

    def test_empty_batch(self):
        tree, _ = make_tree()
        assert tree.verify_leaves([]) == 0
        tree.update_leaves([])  # must not raise


@pytest.mark.parametrize("mac_bits", [32, 64, 128])
@pytest.mark.parametrize("build", [build_geometry, build_flat_geometry],
                         ids=["tree", "flat"])
def test_clean_loop_at_a_tiny_node_cache(build, mac_bits):
    """A seeded, model-checked loop of 50/50 leaf updates and verifies,
    with an occasional flush, over 4096 leaves and a 512 B 8-way node
    cache (one set): a 128-bit tree is 6 levels deep, so fetching a node's
    parent evicts and writes back nodes whose MACs land in a re-fetched
    copy of that parent.  No untampered leaf may fail verification, and
    after a final flush every leaf verifies from DRAM with a cold cache."""
    num_leaves = 4096
    geometry = build(num_leaves, BLOCK, mac_bits)
    dram = MainMemory(
        size_bytes=(num_leaves + geometry.total_code_blocks) * BLOCK,
        block_size=BLOCK)
    tree = MerkleTree(geometry, GCMMACScheme(bytes(16), mac_bits), dram,
                      code_region_base=num_leaves * BLOCK,
                      node_cache_bytes=512, node_cache_assoc=8)
    rng = random.Random(0)
    model: dict[int, tuple[int, bytes]] = {}
    for step in range(1200):
        leaf = rng.randrange(num_leaves)
        roll = rng.random()
        try:
            if roll < 0.01:
                tree.flush()
            elif roll < 0.5 or leaf not in model:
                counter = model.get(leaf, (0, b""))[0] + 1
                content = rng.randbytes(BLOCK)
                tree.update_leaf(leaf, leaf_addr(leaf), counter, content)
                model[leaf] = (counter, content)
            else:
                tree.verify_leaf(leaf, leaf_addr(leaf), *model[leaf])
        except IntegrityViolation as exc:
            pytest.fail(f"step {step}: {exc}")
    tree.flush()
    tree.node_cache.flush()
    for leaf, (counter, content) in sorted(model.items()):
        tree.verify_leaf(leaf, leaf_addr(leaf), counter, content)


#: A clean seeded loop of 50/50 reads and writes over 4096 blocks with a
#: 4 KiB L2 and a 1 KiB node cache: every write-back posts a MAC into a
#: node that the tiny node cache soon evicts, so a node update that never
#: got marked dirty is lost and a later read fails verification.  With
#: ``batched`` as its second argument each op names 8 blocks and goes
#: through ``write_blocks``/``read_blocks``, whose dirty evictions re-MAC
#: through ``update_leaves``.
_CLEAN_LOOP = textwrap.dedent("""
    import random, sys
    from repro import api
    from repro.core.secure_memory import SecureMemorySystem

    assert not __debug__, "run me under python -O"
    config = api.get_config(sys.argv[1], node_cache_size=1024)
    batched = sys.argv[2:] == ["batched"]
    system = SecureMemorySystem(config, protected_bytes=256 * 1024,
                                l2_size=4096)
    rng = random.Random(1)
    model = {}
    for op in range(600):
        addresses = [rng.randrange(4096) * 64
                     for _ in range(8 if batched else 1)]
        if rng.random() < 0.5:
            pairs = [(address, rng.randbytes(64)) for address in addresses]
            if batched:
                system.write_blocks(pairs)
            else:
                system.write_block(*pairs[0])
            model.update(pairs)
            continue
        if batched:
            got = system.read_blocks(addresses)
        else:
            got = [system.read_block(addresses[0])]
        if got != [model.get(address, bytes(64)) for address in addresses]:
            sys.exit(f"op {op}: wrong plaintext")
""")


def _run_clean_loop(*args: str) -> None:
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-O", "-c", _CLEAN_LOOP, *args],
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]


@pytest.mark.parametrize("scheme", ["split+gcm", "secddr"])
def test_node_updates_survive_python_O(scheme):
    """``python -O`` strips asserts: no node update may hide in one."""
    _run_clean_loop(scheme)


@pytest.mark.parametrize("scheme", ["split+gcm", "secddr"])
def test_batched_node_updates_survive_python_O(scheme):
    """The same under ``python -O``, through the batch calls, whose dirty
    evictions re-MAC through ``update_leaves``."""
    _run_clean_loop(scheme, "batched")
