"""SecDDR-style flat integrity: leaf MACs anchored by on-chip MAC-of-MACs.

SecDDR (arXiv:2209.00685) observes that replay protection does not need a
logarithmic tree walk if the memory interface itself is authenticated: the
per-block MACs are grouped into *MAC code blocks* (same packing as the
Merkle tree's level 1), and each group block's own MAC — a MAC-of-MACs —
is small enough to keep in on-chip storage.  Verifying a fetched block
then costs at most one extra DRAM transfer (its group block, when not
cached) and two MAC checks, independent of memory size; replaying a group
block fails against the on-chip table the way replaying the tree root
fails against the root register.

:class:`SecDDRAuthenticator` is a drop-in for
:class:`~repro.auth.merkle.MerkleTree`: same constructor, same leaf
protocol (``verify_leaf``/``update_leaf`` plus the batched variants), same
``node_cache``/``stats``/``state_dict`` surface, and the same
:class:`~repro.auth.merkle.IntegrityViolation` on mismatch — so the fuzz
oracle, the attack suite, recovery, and checkpointing all work unchanged.
The geometry it expects is :func:`repro.auth.codes.build_flat_geometry`
(depth 1, ``level_sizes[-1]`` = the group count, not 1).

The trade against the tree is capacity, not strength: the on-chip table
holds one MAC per group block (``num_leaves / arity`` entries) instead of
one root MAC, which is exactly the per-channel on-chip cost the SecDDR
paper budgets.  The replay *surface* differs too — every group verifies
against its own on-chip anchor directly, so there is no multi-level chain
for an attacker to race, but also no single root register summarizing the
whole memory image.
"""

from __future__ import annotations

from repro.auth.codes import TreeGeometry
from repro.auth.merkle import IntegrityViolation, MerkleStats, mark_updated
from repro.auth.schemes import MACScheme
from repro.crypto.gcm import constant_time_equal
from repro.memory.cache import Cache
from repro.memory.dram import MainMemory
from repro.obs.tracer import Tracer


class SecDDRAuthenticator:
    """Flat MAC-of-MACs integrity backend (MerkleTree drop-in)."""

    #: optional observability hook, same contract as MerkleTree.tracer
    tracer: Tracer | None = None

    def __init__(self, geometry: TreeGeometry, mac_scheme: MACScheme,
                 dram: MainMemory, code_region_base: int,
                 node_cache_bytes: int = 32 * 1024, node_cache_assoc: int = 8):
        if geometry.depth != 1:
            raise ValueError(
                "SecDDRAuthenticator needs a flat (depth-1) geometry; "
                "use build_flat_geometry()")
        self.geometry = geometry
        self.mac = mac_scheme
        self.dram = dram
        self.code_region_base = code_region_base
        self.block_size = geometry.block_size
        self.node_cache = Cache(node_cache_bytes, node_cache_assoc,
                                self.block_size, name="merkle-nodes")
        #: on-chip MAC-of-MACs table: group index -> MAC of the group
        #: block's image as last written back to DRAM
        self._group_macs: dict[int, bytes] = {}
        self._derivative: dict[int, int] = {}
        # Groups whose image has ever reached DRAM; an absent group is
        # virgin (trusted all-zeros, no DRAM read), as in MerkleTree.
        self._node_written: set[int] = set()
        self.stats = MerkleStats()

    # -- addressing ----------------------------------------------------------

    def node_address(self, level: int, index: int) -> int:
        """DRAM address of a group code block (level must be 1)."""
        block = self.geometry.node_region_block(level, index)
        return self.code_region_base + block * self.block_size

    def derivative_counter(self, level: int, index: int) -> int:
        return self._derivative.get(index, 0)

    # -- MAC helpers ----------------------------------------------------------

    def _group_mac(self, index: int, content: bytes) -> bytes:
        self.stats.mac_computations += 1
        return self.mac.compute(self.node_address(1, index),
                                self._derivative.get(index, 0), content)

    def leaf_mac(self, leaf_address: int, counter: int, content: bytes,
                 precomputed: bytes | None = None) -> bytes:
        self.stats.mac_computations += 1
        if precomputed is not None:
            return precomputed
        return self.mac.compute(leaf_address, counter, content)

    # -- trusted-group acquisition --------------------------------------------

    def _cached_payload(self, index: int) -> bytearray | None:
        return self.node_cache.payload(self.node_address(1, index))

    def ensure_group_trusted(self, index: int,
                             _fetched: list | None = None) -> bytearray:
        """Return a group block's payload, fetching and verifying on miss.

        Unlike the tree there is no parent chain: a missing group is read
        from DRAM once and its MAC compared against the on-chip table —
        the constant-cost verification SecDDR trades its on-chip storage
        for.  A mismatch (tampered or replayed group image) raises
        :class:`IntegrityViolation` with ``kind="node"``.
        """
        payload = self._cached_payload(index)
        if payload is not None:
            self.node_cache.access(self.node_address(1, index))
            return payload
        if index not in self._node_written:
            payload = bytearray(self.block_size)
            self._install(index, payload, dirty=False)
            return payload
        address = self.node_address(1, index)
        content = self.dram.read_block(address)
        self.stats.node_fetches += 1
        if _fetched is not None:
            _fetched.append(1)
        expected = self._group_macs[index]
        actual = self._group_mac(index, content)
        if not constant_time_equal(actual, expected):
            self.stats.violations_detected += 1
            raise IntegrityViolation(
                kind="node", address=address, level=1, index=index,
                counter=self._derivative.get(index, 0),
                expected=expected, actual=actual,
            )
        payload = bytearray(content)
        self._install(index, payload, dirty=False)
        return payload

    def _install(self, index: int, payload: bytearray, dirty: bool) -> None:
        eviction = self.node_cache.fill(self.node_address(1, index),
                                        dirty=dirty, payload=payload)
        if eviction is not None and eviction.dirty:
            self._write_back_group(eviction.address, eviction.payload)

    def _acquire_for_update(self, index: int) -> bytearray:
        """Trusted group payload, guaranteed still resident (cf. MerkleTree).

        Group write-backs never touch the node cache (no parent chain), so
        one install cannot displace itself; the retry loop only guards the
        degenerate single-set cache geometry.
        """
        for _ in range(8):
            payload = self.ensure_group_trusted(index)
            if self._cached_payload(index) is payload:
                return payload
        raise RuntimeError(
            "node cache too small to pin a MAC-group update"
        )

    def _group_for_address(self, address: int) -> int:
        block = (address - self.code_region_base) // self.block_size
        if not 0 <= block < self.geometry.level_sizes[1]:
            raise ValueError(f"address {address:#x} is not a MAC group block")
        return block

    def _write_back_group(self, address: int, payload: bytearray) -> None:
        """Evicted-dirty-group protocol: bump counter, write, re-anchor.

        The new MAC goes straight into the on-chip table — there is no
        parent block to pin and no recursion, which is the structural
        simplification SecDDR buys.
        """
        index = self._group_for_address(address)
        self._derivative[index] = self._derivative.get(index, 0) + 1
        self._node_written.add(index)
        content = bytes(payload)
        self.dram.write_block(address, content)
        self.stats.node_writebacks += 1
        self._group_macs[index] = self._group_mac(index, content)

    # -- public leaf protocol ---------------------------------------------------

    def verify_leaf(self, leaf_index: int, leaf_address: int, counter: int,
                    content: bytes,
                    _precomputed_mac: bytes | None = None) -> int:
        """Verify a fetched leaf; returns levels fetched (0 or 1)."""
        self.stats.leaf_verifications += 1
        fetched: list[int] = []
        parent = self.geometry.parent_index(leaf_index)
        payload = self.ensure_group_trusted(parent, _fetched=fetched)
        slot = self.geometry.slot_in_parent(leaf_index)
        mb = self.geometry.mac_bytes
        expected = bytes(payload[slot * mb:(slot + 1) * mb])
        actual = self.leaf_mac(leaf_address, counter, content,
                               precomputed=_precomputed_mac)
        tracer = self.tracer
        if not constant_time_equal(actual, expected):
            self.stats.violations_detected += 1
            if tracer is not None and tracer.enabled:
                tracer.instant("merkle", "violation",
                               float(self.stats.leaf_verifications),
                               leaf=leaf_index, address=leaf_address)
            raise IntegrityViolation(
                kind="leaf", address=leaf_address, leaf_index=leaf_index,
                counter=counter, expected=expected, actual=actual,
            )
        self.stats.record_chain(len(fetched))
        if tracer is not None and tracer.enabled:
            tracer.instant("merkle", "verify-leaf",
                           float(self.stats.leaf_verifications),
                           leaf=leaf_index, levels_fetched=len(fetched))
        return len(fetched)

    def update_leaf(self, leaf_index: int, leaf_address: int, counter: int,
                    content: bytes,
                    _precomputed_mac: bytes | None = None) -> None:
        """Install a written-back leaf's MAC in its (pinned) group block."""
        self.stats.leaf_updates += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("merkle", "update-leaf",
                           float(self.stats.leaf_updates), leaf=leaf_index)
        parent = self.geometry.parent_index(leaf_index)
        payload = self._acquire_for_update(parent)
        slot = self.geometry.slot_in_parent(leaf_index)
        mb = self.geometry.mac_bytes
        payload[slot * mb:(slot + 1) * mb] = self.leaf_mac(
            leaf_address, counter, content, _precomputed_mac
        )
        mark_updated(self.node_cache, self.node_address(1, parent))

    # -- batched leaf protocol (same regrouping contract as MerkleTree) --------

    def _batch_leaf_macs(self, grouped: list[tuple]) -> list[bytes | None]:
        if len(grouped) < 2:
            return [None] * len(grouped)
        return list(self.mac.compute_many(
            [(leaf_address, counter, content)
             for _, leaf_address, counter, content in grouped]
        ))

    def _grouped_by_parent(self, items: list[tuple]) -> list[tuple]:
        groups: dict[int, list[tuple]] = {}
        for item in items:
            parent = self.geometry.parent_index(item[0])
            groups.setdefault(parent, []).append(item)
        return [item for group in groups.values() for item in group]

    def verify_leaves(self, items: list[tuple[int, int, int, bytes]]) -> int:
        grouped = self._grouped_by_parent(items)
        macs = self._batch_leaf_macs(grouped)
        total = 0
        for (leaf_index, leaf_address, counter, content), mac in zip(
                grouped, macs):
            total += self.verify_leaf(leaf_index, leaf_address, counter,
                                      content, _precomputed_mac=mac)
        return total

    def update_leaves(self, items: list[tuple[int, int, int, bytes]]) -> None:
        grouped = self._grouped_by_parent(items)
        macs = self._batch_leaf_macs(grouped)
        for (leaf_index, leaf_address, counter, content), mac in zip(
                grouped, macs):
            self.update_leaf(leaf_index, leaf_address, counter, content,
                             _precomputed_mac=mac)

    def flush(self) -> None:
        """Write every dirty cached group back (single level, one sweep)."""
        for address in list(self.node_cache.dirty_blocks()):
            self.node_cache.clear_dirty(address)
            self._write_back_group(address, self.node_cache.payload(address))

    # -- checkpoint support ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "group_macs": dict(self._group_macs),
            "derivative": dict(self._derivative),
            "node_written": set(self._node_written),
            "node_cache": self.node_cache.state_dict(),
            "stats": {
                "leaf_verifications": self.stats.leaf_verifications,
                "leaf_updates": self.stats.leaf_updates,
                "node_fetches": self.stats.node_fetches,
                "node_writebacks": self.stats.node_writebacks,
                "mac_computations": self.stats.mac_computations,
                "violations_detected": self.stats.violations_detected,
                "chain_lengths": dict(self.stats.chain_lengths),
            },
        }

    def load_state(self, state: dict) -> None:
        self._group_macs = {int(k): bytes(v)
                            for k, v in state["group_macs"].items()}
        self._derivative = {int(k): v
                            for k, v in state["derivative"].items()}
        self._node_written = set(state["node_written"])
        self.node_cache.load_state(state["node_cache"])
        st = state["stats"]
        self.stats.leaf_verifications = st["leaf_verifications"]
        self.stats.leaf_updates = st["leaf_updates"]
        self.stats.node_fetches = st["node_fetches"]
        self.stats.node_writebacks = st["node_writebacks"]
        self.stats.mac_computations = st["mac_computations"]
        self.stats.violations_detected = st["violations_detected"]
        self.stats.chain_lengths = {
            int(k): v for k, v in st["chain_lengths"].items()
        }
