"""Functional Merkle tree over data blocks and direct-counter blocks.

Implements the cached-tree protocol of section 3 / Figure 3:

* The leaf level covers both data blocks and the counter blocks directly
  used for encryption, closing the counter-replay hole of section 4.3.
* Code blocks at levels 1..depth live in an untrusted DRAM region; each
  64-byte code block holds K child MACs (K = arity from the MAC width).
* On-chip trust anchors: a dedicated node cache (a resident node is
  trusted — it was verified on the way in and cannot be tampered with) and
  the MACs of the top level's code blocks, keyed by top-level index.  The
  geometry decides how many there are: :func:`~repro.auth.codes.build_geometry`
  has one top block, so its one MAC is the paper's root register;
  :func:`~repro.auth.codes.build_flat_geometry` stops at level 1, so every
  level-1 MAC group keeps its MAC on chip — SecDDR's (arXiv:2209.00685)
  MAC-of-MACs, verified in at most one node fetch whatever the memory size.
* A fetched block verifies up the tree **only until the first on-chip
  node**; an update propagates up only to the first on-chip node, whose
  line turns dirty.  Dirty node write-backs bump the node's *derivative
  counter*, recompute its MAC under the new counter, and install that MAC
  in the parent (recursively ensuring the parent is on-chip) or, for a
  top-level node, in its on-chip slot.
* A node never written to DRAM is *virgin*: its content is trusted zeros
  without a DRAM read (boot-time tree initialization compressed to first
  touch), so a top-level node needs an on-chip MAC only once written.
* Tampering with anything below a trusted node — leaf bytes, code-block
  bytes, or a derivative counter image — surfaces as a MAC mismatch, which
  raises :class:`IntegrityViolation`.

Derivative counters (section 4.3) are maintained per node in a scheme-side
table.  The paper stores them in untrusted memory and relies on the fact
that they are not secrecy-critical: forging one merely fails verification.
The reproduction keeps them in the tree object for simplicity — the
detection behaviour is identical because a tampered derivative counter and
a tampered node image both surface as the same MAC mismatch, and the
attack suite exercises that path by corrupting node images directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.auth.codes import TreeGeometry
from repro.auth.errors import IntegrityViolation
from repro.auth.schemes import MACScheme
from repro.crypto.gcm import constant_time_equal
from repro.memory.cache import Cache
from repro.memory.dram import MainMemory
from repro.obs.metrics import reset_fields
from repro.obs.tracer import Tracer


@dataclass
class MerkleStats:
    """Tree activity counters (node traffic drives Figures 7-10)."""

    leaf_verifications: int = 0
    leaf_updates: int = 0
    node_fetches: int = 0
    node_writebacks: int = 0
    mac_computations: int = 0
    violations_detected: int = 0
    #: distribution of how many tree levels had to be fetched per leaf verify
    chain_lengths: dict[int, int] = field(default_factory=dict)

    def record_chain(self, length: int) -> None:
        self.chain_lengths[length] = self.chain_lengths.get(length, 0) + 1

    def reset(self) -> None:
        reset_fields(self)


def mark_updated(node_cache: Cache, address: int) -> None:
    """Mark a pinned node dirty after a child MAC was posted into it.

    An explicit check, not an ``assert``: ``python -O`` strips asserts, and
    losing this call evicts the node later without writing the new MAC
    back, so the child then fails verification with no tampering anywhere.
    """
    if not node_cache.mark_dirty(address):
        raise RuntimeError(
            f"node {address:#x} left the node cache before its update "
            "was marked dirty")


class MerkleTree:
    """Cached K-ary Merkle tree with derivative counters and on-chip MACs of
    its top level: the root register of a deep tree, or SecDDR's
    MAC-of-MACs table over a flat geometry."""

    #: optional observability hook; leaf verifies/updates, node fetches,
    #: and violations become "merkle" track instants (sequenced by the
    #: functional op count — functional time does not advance)
    tracer: Tracer | None = None

    def __init__(self, geometry: TreeGeometry, mac_scheme: MACScheme,
                 dram: MainMemory, code_region_base: int,
                 node_cache_bytes: int = 32 * 1024, node_cache_assoc: int = 8):
        self.geometry = geometry
        self.mac = mac_scheme
        self.dram = dram
        self.code_region_base = code_region_base
        self.block_size = geometry.block_size
        self.node_cache = Cache(node_cache_bytes, node_cache_assoc,
                                self.block_size, name="merkle-nodes")
        self._derivative: dict[tuple[int, int], int] = {}
        # Nodes whose image has ever been written to DRAM.  A node absent
        # from this set is *virgin*: its logical content is all-zeros and is
        # trusted without a DRAM read (boot-time tree initialization
        # compressed to first touch — see the module docstring).
        self._node_written: set[tuple[int, int]] = set()
        # Nodes currently mid write-back.  Re-entrant tree walks (the
        # eviction cascade of a small node cache) must see such a node's
        # live buffer, never its half-published DRAM/counter/parent-slot
        # state — see :meth:`_write_back_node`.
        self._in_flight: dict[tuple[int, int], bytearray] = {}
        self.stats = MerkleStats()
        # On-chip MAC of each written top-level node as last written to
        # DRAM, keyed by its index (a virgin top node needs none).
        self._top_macs: dict[int, bytes] = {}

    # -- addressing ----------------------------------------------------------

    def node_address(self, level: int, index: int) -> int:
        """DRAM address of a code block."""
        block = self.geometry.node_region_block(level, index)
        return self.code_region_base + block * self.block_size

    def derivative_counter(self, level: int, index: int) -> int:
        return self._derivative.get((level, index), 0)

    # -- MAC helpers -----------------------------------------------------------

    def _node_mac(self, level: int, index: int, content: bytes) -> bytes:
        self.stats.mac_computations += 1
        return self.mac.compute(self.node_address(level, index),
                                self.derivative_counter(level, index),
                                content)

    def leaf_mac(self, leaf_address: int, counter: int, content: bytes,
                 precomputed: bytes | None = None) -> bytes:
        # ``precomputed`` carries a MAC the batch path already obtained from
        # MACScheme.compute_many — same inputs, same scheme, same bytes —
        # so it still counts as one MAC computation here (the batch helper
        # deliberately does not touch the tree's stats).
        self.stats.mac_computations += 1
        if precomputed is not None:
            return precomputed
        return self.mac.compute(leaf_address, counter, content)

    # -- trusted-node acquisition ---------------------------------------------

    def _cached_payload(self, level: int, index: int) -> bytearray | None:
        return self.node_cache.payload(self.node_address(level, index))

    def _expected_mac_from_parent(self, level: int, index: int) -> bytes:
        """Read this node's MAC from its (trusted) parent or on-chip slot.

        The parent is read where a child's write-back posts into it: its
        own install can cascade into evictions that write this node back
        into a re-fetched copy of the parent, so the buffer
        :meth:`ensure_node_trusted` returned may already be detached.
        """
        if level == self.geometry.depth:
            return self._top_macs[index]
        parent = self.geometry.parent_index(index)
        payload, _ = self._post_target(level + 1, parent)
        slot = self.geometry.slot_in_parent(index)
        mb = self.geometry.mac_bytes
        return bytes(payload[slot * mb:(slot + 1) * mb])

    def ensure_node_trusted(self, level: int, index: int,
                            _fetched: list | None = None) -> bytearray:
        """Return the node's payload, fetching and verifying if absent.

        A resident node is trusted as-is.  A missing node is read from
        DRAM, its MAC recomputed under its derivative counter and compared
        with the entry in its (recursively trusted) parent; a mismatch
        raises :class:`IntegrityViolation`.  ``_fetched`` collects the
        levels fetched, for chain-length statistics.
        """
        in_flight = self._in_flight.get((level, index))
        if in_flight is not None:
            # Mid write-back: the live buffer is the node's authoritative,
            # trusted content (it was verified while resident).  Reading
            # DRAM here would race the half-published write-back state.
            return in_flight
        payload = self._cached_payload(level, index)
        if payload is not None:
            self.node_cache.access(self.node_address(level, index))
            return payload
        address = self.node_address(level, index)
        if (level, index) not in self._node_written:
            # Virgin node: trusted all-zeros content, no DRAM access needed.
            payload = bytearray(self.block_size)
            self._install(level, index, payload, dirty=False)
            return payload
        # Resolve the parent chain BEFORE reading this node's image: the
        # walk can cascade into write-backs that touch this very node (it
        # may be an ancestor of an evicted dirty node), re-writing its
        # DRAM image and bumping its derivative counter — a pre-walk read
        # would then verify stale bytes against the fresh parent slot.
        expected = self._expected_mac_from_parent(level, index)
        resident = self._cached_payload(level, index)
        if resident is not None:
            # The walk installed this node; the resident copy (possibly
            # already carrying re-posted child MACs) is authoritative.
            self.node_cache.access(address)
            return resident
        content = self.dram.read_block(address)
        self.stats.node_fetches += 1
        if _fetched is not None:
            _fetched.append(level)
        actual = self._node_mac(level, index, content)
        if not constant_time_equal(actual, expected):
            self.stats.violations_detected += 1
            raise IntegrityViolation(
                kind="node", address=address, level=level, index=index,
                counter=self.derivative_counter(level, index),
                expected=expected, actual=actual,
            )
        payload = bytearray(content)
        self._install(level, index, payload, dirty=False)
        return payload

    def _install(self, level: int, index: int, payload: bytearray,
                 dirty: bool) -> None:
        eviction = self.node_cache.fill(self.node_address(level, index),
                                        dirty=dirty, payload=payload)
        if eviction is not None and eviction.dirty:
            self._write_back_node(eviction.address, eviction.payload)

    def _acquire_for_update(self, level: int, index: int) -> bytearray:
        """Trusted payload of a node, guaranteed still resident.

        :meth:`ensure_node_trusted` can — on a small node cache — trigger
        an eviction cascade that displaces the very node it just installed.
        Mutating the returned buffer would then edit a detached copy and
        the subsequent ``mark_dirty`` would silently miss, losing a MAC
        installation (the child later fails verification with no tampering
        anywhere); reading a child's MAC from it would see a stale slot.
        Updates and those reads therefore re-check residency and retry; each
        retry re-fetches a clean or properly written-back image, so the
        loop converges unless the cache cannot hold even one update chain.
        """
        assert (level, index) not in self._in_flight
        for _ in range(8):
            payload = self.ensure_node_trusted(level, index)
            if self._cached_payload(level, index) is payload:
                return payload
        raise RuntimeError(
            "node cache too small to pin a Merkle update chain"
        )

    def _post_target(self, level: int, index: int) -> tuple[bytearray, bool]:
        """Where a child's MAC lives: ``(payload, needs_mark_dirty)``.

        A node that is itself mid write-back is mutated in place — the
        in-flight frame serializes its content *after* its parent
        acquisition cascade completes, so the posted MAC reaches DRAM and
        the grandparent without a separate dirty marking.
        """
        in_flight = self._in_flight.get((level, index))
        if in_flight is not None:
            return in_flight, False
        return self._acquire_for_update(level, index), True

    def _node_for_address(self, address: int) -> tuple[int, int]:
        """Inverse of :meth:`node_address`."""
        block = (address - self.code_region_base) // self.block_size
        for level in range(1, self.geometry.depth + 1):
            offset = self.geometry.level_offset_blocks(level)
            if offset <= block < offset + self.geometry.level_sizes[level]:
                return level, block - offset
        raise ValueError(f"address {address:#x} is not a tree node")

    def _write_back_node(self, address: int, payload: bytearray) -> None:
        """Evicted-dirty-node protocol: bump counter, re-MAC, tell parent.

        The publish must look atomic to re-entrant tree walks: acquiring
        the parent can cascade into write-backs of *other* dirty nodes
        whose verification chains re-fetch this very node, so the parent
        is pinned **first** (while this node is registered in flight and
        served from its live buffer), and only then are the DRAM image,
        derivative counter, and parent slot updated — with no cache
        activity in between.  The cascade may legitimately mutate this
        node's buffer (a child posting its MAC), which is why the content
        is serialized after the acquisition, not before.
        """
        level, index = self._node_for_address(address)
        key = (level, index)
        self._in_flight[key] = payload
        try:
            parent_payload = needs_dirty = None
            if level < self.geometry.depth:
                parent = self.geometry.parent_index(index)
                parent_payload, needs_dirty = self._post_target(
                    level + 1, parent)
            self._derivative[key] = self._derivative.get(key, 0) + 1
            self._node_written.add(key)
            content = bytes(payload)
            self.dram.write_block(address, content)
            self.stats.node_writebacks += 1
            new_mac = self._node_mac(level, index, content)
            if level == self.geometry.depth:
                self._top_macs[index] = new_mac
                return
            slot = self.geometry.slot_in_parent(index)
            mb = self.geometry.mac_bytes
            parent_payload[slot * mb:(slot + 1) * mb] = new_mac
            if needs_dirty:
                mark_updated(self.node_cache,
                             self.node_address(level + 1, parent))
        finally:
            del self._in_flight[key]

    # -- public leaf protocol ---------------------------------------------------

    def verify_leaf(self, leaf_index: int, leaf_address: int, counter: int,
                    content: bytes,
                    _precomputed_mac: bytes | None = None) -> int:
        """Verify a fetched leaf block against the tree.

        Returns the number of tree levels that had to be fetched from
        memory (the timing model charges one node transfer plus one MAC
        check per fetched level).  Raises :class:`IntegrityViolation` when
        any MAC on the chain mismatches.
        """
        self.stats.leaf_verifications += 1
        fetched: list[int] = []
        parent = self.geometry.parent_index(leaf_index)
        payload = self.ensure_node_trusted(1, parent, _fetched=fetched)
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
        """Install a written-back leaf's MAC; propagates to first cached node."""
        self.stats.leaf_updates += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("merkle", "update-leaf",
                           float(self.stats.leaf_updates), leaf=leaf_index)
        parent = self.geometry.parent_index(leaf_index)
        payload, needs_dirty = self._post_target(1, parent)
        slot = self.geometry.slot_in_parent(leaf_index)
        mb = self.geometry.mac_bytes
        payload[slot * mb:(slot + 1) * mb] = self.leaf_mac(
            leaf_address, counter, content, precomputed=_precomputed_mac
        )
        if needs_dirty:
            mark_updated(self.node_cache, self.node_address(1, parent))

    # -- batched leaf protocol --------------------------------------------------
    #
    # Batch entries are regrouped so that leaves sharing a parent code block
    # are processed back to back: the shared ancestor chain is fetched and
    # verified once (by the first leaf of the group) and every sibling then
    # finds it resident, regardless of how small the node cache is or how
    # the caller interleaved addresses.  Groups run in first-seen order and
    # leaves keep their relative order within a group, so the per-leaf
    # results are identical to the equivalent scalar loop over the grouped
    # sequence.

    def _batch_leaf_macs(self, grouped: list[tuple]) -> list[bytes | None]:
        """Precompute the batch's leaf MACs through the scheme's bulk kernel.

        Single-leaf batches keep the scalar path (nothing to batch); larger
        ones go through :meth:`MACScheme.compute_many`, whose results are
        byte-identical to per-leaf :meth:`MACScheme.compute` calls.  The
        per-leaf ``leaf_mac`` bookkeeping still runs when the values are
        consumed, so ``stats.mac_computations`` is unchanged.
        """
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
        """Verify many fetched leaves with shared-ancestor deduplication.

        ``items`` holds ``(leaf_index, leaf_address, counter, content)``
        tuples.  Returns the total number of tree levels fetched across the
        batch.  Raises :class:`IntegrityViolation` on the first mismatch
        (in grouped order); earlier leaves of the batch have then already
        been verified, later ones have not been examined.
        """
        grouped = self._grouped_by_parent(items)
        macs = self._batch_leaf_macs(grouped)
        total = 0
        for (leaf_index, leaf_address, counter, content), mac in zip(
                grouped, macs):
            total += self.verify_leaf(leaf_index, leaf_address, counter,
                                      content, _precomputed_mac=mac)
        return total

    def update_leaves(self, items: list[tuple[int, int, int, bytes]]) -> None:
        """Install many written-back leaves' MACs, deduplicating ancestors.

        ``items`` holds ``(leaf_index, leaf_address, counter, content)``
        tuples, regrouped as in :meth:`verify_leaves`.
        """
        grouped = self._grouped_by_parent(items)
        macs = self._batch_leaf_macs(grouped)
        for (leaf_index, leaf_address, counter, content), mac in zip(
                grouped, macs):
            self.update_leaf(leaf_index, leaf_address, counter, content,
                             _precomputed_mac=mac)

    def flush(self) -> None:
        """Write every dirty cached node back to DRAM (orderly shutdown).

        After a flush the on-chip top-level MACs authenticate the full
        DRAM image, so a cold restart (empty node cache) can verify
        everything.
        """
        # Lowest level first, so parents absorb updates before their turn.
        # A level-l write-back dirties and moves only nodes above level l,
        # so one pass over the level's dirty nodes in cache order keeps the
        # lowest-first order; a cascade may have written some back already.
        node_cache = self.node_cache
        while True:
            dirty = list(node_cache.dirty_blocks())
            if not dirty:
                return
            levels = [self._node_for_address(address)[0]
                      for address in dirty]
            lowest = min(levels)
            for address, level in zip(dirty, levels):
                if level == lowest and node_cache.is_dirty(address):
                    node_cache.clear_dirty(address)
                    self._write_back_node(address,
                                          node_cache.payload(address))

    # -- checkpoint support ------------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable tree state (checkpointing must not race a write-back)."""
        if self._in_flight:
            raise RuntimeError(
                "cannot checkpoint a Merkle tree mid write-back"
            )
        return {
            "derivative": dict(self._derivative),
            "node_written": set(self._node_written),
            "top_macs": dict(self._top_macs),
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
        self._derivative = dict(state["derivative"])
        self._node_written = set(state["node_written"])
        self._top_macs = dict(state["top_macs"])
        self._in_flight = {}
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

    @property
    def top_macs(self) -> dict[int, bytes]:
        """A copy of the on-chip top-level MACs, keyed by top-level index."""
        return dict(self._top_macs)
