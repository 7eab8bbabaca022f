"""Generic set-associative write-back cache model.

This single cache class backs every on-chip cache in the reproduction: the
L1 instruction/data caches, the unified L2, the 32KB counter cache, and the
cache of Merkle-tree nodes.  It tracks tags, LRU order, dirty bits, and an
optional per-line payload (used by the functional layer to hold real bytes,
and by the counter cache to hold counter-block contents).

The model is deliberately state-only: it answers "hit or miss, and what got
evicted" and leaves all latency accounting to the timing simulator, so the
same instance serves both the functional and timing layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.metrics import reset_fields


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass
class CacheLine:
    """One cache line: tag plus state bits and an optional payload."""

    tag: int
    dirty: bool = False
    payload: Any = None


@dataclass
class Eviction:
    """Describes a line displaced by a fill."""

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
    ``dirty`` and ``payloads``.  ``payloads`` is ``None`` when no line
    carries one (every timing-layer cache); otherwise each entry is
    ``bytes`` or ``None``.  A few flat lists instead of one dict per line
    keep a checkpoint of a full 1 MB L2 cheap to encode.

    :meth:`Cache.state_dict` and the batched engine's ``LeanCache`` both
    emit their state through here, so the layout lives in this one place.
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
    configurations evaluated).
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
        # Each set is a list of CacheLine ordered most- to least-recently used.
        self._sets: list[list[CacheLine]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- address helpers ---------------------------------------------------

    def block_address(self, address: int) -> int:
        """Align an address down to its containing block."""
        return address & ~(self.block_size - 1)

    def _index_tag(self, address: int) -> tuple[int, int]:
        block = address // self.block_size
        return block % self.num_sets, block // self.num_sets

    def _line_address(self, set_index: int, tag: int) -> int:
        return (tag * self.num_sets + set_index) * self.block_size

    # -- lookup / fill -----------------------------------------------------

    def lookup(self, address: int) -> CacheLine | None:
        """Non-statistical probe: return the line if present, else None.

        Does not update LRU order or hit/miss counters; used by hardware
        structures (RSRs, Merkle engine) that peek without touching state.
        """
        set_index, tag = self._index_tag(address)
        for line in self._sets[set_index]:
            if line.tag == tag:
                return line
        return None

    def contains(self, address: int) -> bool:
        """True when the block holding ``address`` is resident."""
        return self.lookup(address) is not None

    def access(self, address: int, write: bool = False) -> bool:
        """Reference a block: returns True on hit, False on miss.

        On a hit the line moves to MRU position and, for writes, is marked
        dirty.  A miss updates statistics only — callers decide whether and
        when to ``fill`` (modelling the fill as a separate step lets the
        timing layer order the memory transactions correctly).
        """
        set_index, tag = self._index_tag(address)
        lines = self._sets[set_index]
        for i, line in enumerate(lines):
            if line.tag == tag:
                lines.insert(0, lines.pop(i))
                if write:
                    line.dirty = True
                self.stats.hits += 1
                return True
        self.stats.misses += 1
        return False

    def fill(self, address: int, dirty: bool = False,
             payload: Any = None) -> Eviction | None:
        """Install a block, returning the eviction it displaces (if any)."""
        set_index, tag = self._index_tag(address)
        lines = self._sets[set_index]
        for i, line in enumerate(lines):
            if line.tag == tag:  # refill of a resident block: refresh it
                lines.insert(0, lines.pop(i))
                line.dirty = line.dirty or dirty
                if payload is not None:
                    line.payload = payload
                return None
        evicted = None
        if len(lines) >= self.assoc:
            victim = lines.pop()  # LRU
            if victim.dirty:
                self.stats.writebacks += 1
            evicted = Eviction(
                address=self._line_address(set_index, victim.tag),
                dirty=victim.dirty,
                payload=victim.payload,
            )
        lines.insert(0, CacheLine(tag=tag, dirty=dirty, payload=payload))
        return evicted

    def invalidate(self, address: int) -> CacheLine | None:
        """Remove a block without writing it back; returns the removed line."""
        set_index, tag = self._index_tag(address)
        lines = self._sets[set_index]
        for i, line in enumerate(lines):
            if line.tag == tag:
                return lines.pop(i)
        return None

    def mark_dirty(self, address: int) -> bool:
        """Set the dirty bit of a resident block (used by lazy re-encryption)."""
        line = self.lookup(address)
        if line is None:
            return False
        line.dirty = True
        return True

    # -- introspection -----------------------------------------------------

    def resident_blocks(self) -> Iterator[tuple[int, CacheLine]]:
        """Yield (block_address, line) for every resident block."""
        for set_index, lines in enumerate(self._sets):
            for line in lines:
                yield self._line_address(set_index, line.tag), line

    def dirty_blocks(self) -> Iterator[tuple[int, CacheLine]]:
        """Yield (block_address, line) for every dirty resident block."""
        for address, line in self.resident_blocks():
            if line.dirty:
                yield address, line

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(lines) for lines in self._sets)

    def flush(self) -> list[Eviction]:
        """Evict everything; returns the dirty blocks as Evictions."""
        dirty = [
            Eviction(address=addr, dirty=True, payload=line.payload)
            for addr, line in self.dirty_blocks()
        ]
        self._sets = [[] for _ in range(self.num_sets)]
        return dirty

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        """Serializable state in the flat layout of :func:`cache_state`.

        Payloads are carried as bytes; :meth:`load_state` restores them as
        fresh ``bytearray`` buffers — payload identity is not preserved,
        only content and order.
        """
        lines = [line for per_set in self._sets for line in per_set]
        payloads = [bytes(line.payload) if line.payload is not None
                    else None for line in lines]
        return cache_state(
            [len(per_set) for per_set in self._sets],
            [line.tag for line in lines],
            [line.dirty for line in lines],
            payloads if any(p is not None for p in payloads) else None,
            self.stats)

    def load_state(self, state: dict) -> None:
        tags = state["tags"]
        dirty = state["dirty"]
        payloads = state["payloads"] or [None] * len(tags)
        sets: list[list[CacheLine]] = []
        start = 0
        for ways in state["ways"]:
            stop = start + ways
            sets.append([
                CacheLine(tag=tag, dirty=bit,
                          payload=(bytearray(payload)
                                   if payload is not None else None))
                for tag, bit, payload in zip(tags[start:stop],
                                             dirty[start:stop],
                                             payloads[start:stop])])
            start = stop
        self._sets = sets
        st = state["stats"]
        self.stats.hits = st["hits"]
        self.stats.misses = st["misses"]
        self.stats.writebacks = st["writebacks"]

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}: {self.size_bytes}B, {self.assoc}-way, "
            f"{self.block_size}B blocks, {self.num_sets} sets)"
        )
