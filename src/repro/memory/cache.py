"""Generic set-associative write-back cache model.

This single cache class backs every on-chip cache in the reproduction: the
L1 instruction/data caches, the unified L2, the 32KB counter cache, and the
cache of Merkle-tree nodes — in both simulator engines and the functional
layer alike.

Every line is named by its block address, and the state is three plain
containers:

* ``sets`` — per set, a list of resident block addresses ordered most- to
  least-recently used (true LRU: the victim is the last entry);
* ``dirty`` — one set of the dirty block addresses of the whole cache;
* a side map from block address to payload, for the lines that carry one
  (the functional layer's plaintext blocks and Merkle node images).
  Timing-layer caches never fill a payload, so their map stays empty.

Callers query a line by address (:meth:`contains`, :meth:`payload`,
:meth:`is_dirty`); there is no per-line object.  The batched simulator
engine drives ``sets`` and ``dirty`` directly from its inlined drains and
assigns a cached classification's final line state straight into them.

The model is deliberately state-only: it answers "hit or miss, and what got
evicted" and leaves all latency accounting to the timing simulator, so the
same instance serves both the functional and timing layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import reset_fields


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(slots=True)
class Eviction:
    """Describes a line leaving the cache: displaced by a fill, flushed,
    or invalidated."""

    address: int
    dirty: bool
    payload: Any = None


@dataclass
class CacheStats:
    """Access counters, reset-able between measurement intervals."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0

    def reset(self) -> None:
        reset_fields(self)


def cache_state(ways: list[int], tags: list[int], dirty: list[bool],
                payloads: list | None, stats: CacheStats) -> dict:
    """The checkpoint layout of one cache: flat per-cache lists.

    Set ``s`` holds ``ways[s]`` lines, stored consecutively (set 0 first)
    and most-recently-used first, at the same positions of ``tags``,
    ``dirty`` and ``payloads``.  A line's tag is its block address divided
    by ``num_sets * block_size``.  ``payloads`` is ``None`` when no line
    carries one (every timing-layer cache); otherwise each entry is
    ``bytes`` or ``None``.  A few flat lists instead of one dict per line
    keep a checkpoint of a full 1 MB L2 cheap to encode.
    """
    return {
        "ways": ways,
        "tags": tags,
        "dirty": dirty,
        "payloads": payloads,
        "stats": {
            "hits": stats.hits,
            "misses": stats.misses,
            "writebacks": stats.writebacks,
        },
    }


class Cache:
    """Set-associative write-back cache with true-LRU replacement.

    Parameters mirror the paper's setup (section 5): ``size_bytes`` total
    capacity, ``assoc`` ways, ``block_size`` bytes per line (64 in all
    configurations evaluated).  Addresses need not be block-aligned: every
    method acts on the block that holds the address.
    """

    def __init__(self, size_bytes: int, assoc: int, block_size: int,
                 name: str = "cache"):
        if not _is_pow2(block_size):
            raise ValueError("block_size must be a power of two")
        if size_bytes % (assoc * block_size):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"assoc*block_size = {assoc * block_size}"
            )
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.block_size = block_size
        self.name = name
        self.num_sets = size_bytes // (assoc * block_size)
        if not _is_pow2(self.num_sets):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._align = ~(block_size - 1)
        self._shift = block_size.bit_length() - 1
        self._mask = self.num_sets - 1
        #: per set, resident block addresses, most recently used first
        self.sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        #: dirty resident block addresses
        self.dirty: set[int] = set()
        self._payloads: dict[int, Any] = {}
        self.stats = CacheStats()

    # -- address helpers ---------------------------------------------------

    def block_address(self, address: int) -> int:
        """Align an address down to its containing block."""
        return address & self._align

    def _set_of(self, block: int) -> list[int]:
        return self.sets[(block >> self._shift) & self._mask]

    # -- probes, access, fill ---------------------------------------------

    def contains(self, address: int) -> bool:
        """True when the block holding ``address`` is resident.

        Like :meth:`payload` and :meth:`is_dirty`, a non-statistical probe:
        it updates neither LRU order nor hit/miss counters, so hardware
        structures (RSRs, the Merkle engine) can peek without touching
        state.
        """
        block = address & self._align
        return block in self._set_of(block)

    def payload(self, address: int) -> Any:
        """The payload of the resident block holding ``address``; ``None``
        when the block is absent or carries no payload."""
        return self._payloads.get(address & self._align)

    def is_dirty(self, address: int) -> bool:
        """True when the block holding ``address`` is resident and dirty."""
        return (address & self._align) in self.dirty

    def access(self, address: int, write: bool = False) -> bool:
        """Reference a block: returns True on hit, False on miss.

        On a hit the line moves to MRU position and, for writes, is marked
        dirty.  A miss updates statistics only — callers decide whether and
        when to ``fill`` (modelling the fill as a separate step lets the
        timing layer order the memory transactions correctly).
        """
        block = address & self._align
        lines = self.sets[(block >> self._shift) & self._mask]
        if block in lines:
            i = lines.index(block)
            if i:
                lines.insert(0, lines.pop(i))
            if write:
                self.dirty.add(block)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, address: int, dirty: bool = False,
             payload: Any = None) -> Eviction | None:
        """Install a block, returning the eviction it displaces (if any)."""
        block = address & self._align
        lines = self.sets[(block >> self._shift) & self._mask]
        if block in lines:  # refill of a resident block: refresh it
            i = lines.index(block)
            if i:
                lines.insert(0, lines.pop(i))
            if dirty:
                self.dirty.add(block)
            if payload is not None:
                self._payloads[block] = payload
            return None
        evicted = None
        if len(lines) >= self.assoc:
            victim = lines.pop()  # LRU
            victim_dirty = victim in self.dirty
            if victim_dirty:
                self.dirty.discard(victim)
                self.stats.writebacks += 1
            evicted = Eviction(victim, victim_dirty,
                               self._payloads.pop(victim, None))
        lines.insert(0, block)
        if dirty:
            self.dirty.add(block)
        if payload is not None:
            self._payloads[block] = payload
        return evicted

    def invalidate(self, address: int) -> Eviction | None:
        """Remove a block without writing it back; returns what left (its
        dirty bit and payload), or ``None`` when it was not resident."""
        block = address & self._align
        lines = self._set_of(block)
        if block not in lines:
            return None
        lines.remove(block)
        dirty = block in self.dirty
        self.dirty.discard(block)
        return Eviction(block, dirty, self._payloads.pop(block, None))

    def mark_dirty(self, address: int) -> bool:
        """Set the dirty bit of a resident block (used by lazy re-encryption
        and by Merkle updates); False when the block is not resident."""
        block = address & self._align
        if block in self._set_of(block):
            self.dirty.add(block)
            return True
        return False

    def clear_dirty(self, address: int) -> None:
        """Clear a block's dirty bit (its contents are being written back
        by the caller while the line stays resident)."""
        self.dirty.discard(address & self._align)

    # -- introspection -----------------------------------------------------

    def resident_blocks(self) -> Iterator[int]:
        """Every resident block address: set 0 first, MRU first per set."""
        for lines in self.sets:
            yield from lines

    def dirty_blocks(self) -> Iterator[int]:
        """Every dirty resident block address, in :meth:`resident_blocks`
        order."""
        dirty = self.dirty
        for lines in self.sets:
            for block in lines:
                if block in dirty:
                    yield block

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(map(len, self.sets))

    def flush(self) -> list[Eviction]:
        """Evict everything; returns the dirty blocks as Evictions."""
        payloads = self._payloads
        dirty = [Eviction(block, True, payloads.get(block))
                 for block in self.dirty_blocks()]
        self.sets = [[] for _ in range(self.num_sets)]
        self.dirty = set()
        self._payloads = {}
        return dirty

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable state in the flat layout of :func:`cache_state`.

        Payloads are carried as bytes; :meth:`load_state` restores them as
        fresh ``bytearray`` buffers — payload identity is not preserved,
        only content and order.
        """
        blocks = [block for lines in self.sets for block in lines]
        dirty = self.dirty
        payloads = self._payloads
        tag_span = self.block_size * self.num_sets  # address bytes per tag
        return cache_state(
            list(map(len, self.sets)),
            [block // tag_span for block in blocks],
            [block in dirty for block in blocks],
            [bytes(payloads[block]) if block in payloads else None
             for block in blocks] if payloads else None,
            self.stats)

    def load_state(self, state: dict) -> None:
        tags = state["tags"]
        tag_span = self.block_size * self.num_sets
        sets: list[list[int]] = []
        start = 0
        for set_index, ways in enumerate(state["ways"]):
            offset = set_index * self.block_size
            sets.append([tag * tag_span + offset
                         for tag in tags[start:start + ways]])
            start += ways
        blocks = [block for lines in sets for block in lines]
        self.sets = sets
        self.dirty = {block for block, bit in zip(blocks, state["dirty"])
                      if bit}
        self._payloads = {
            block: bytearray(payload)
            for block, payload in zip(blocks, state["payloads"] or ())
            if payload is not None}
        st = state["stats"]
        self.stats.hits = st["hits"]
        self.stats.misses = st["misses"]
        self.stats.writebacks = st["writebacks"]

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}: {self.size_bytes}B, {self.assoc}-way, "
            f"{self.block_size}B blocks, {self.num_sets} sets)"
        )
