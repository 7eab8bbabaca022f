"""The on-chip counter cache (a.k.a. sequence number cache, SNC).

Section 5's default is 32KB, 8-way, 64-byte blocks.  A counter-cache block
holds one counter block of the active scheme — for split counters that is
one major counter plus all 64 minors of an encryption page, so a single
lookup resolves both halves of the split counter and a single miss fetches
both (the design point argued for in section 4.1).

Counter blocks are addressed by their dense index within a reserved region
of physical memory; ``CounterCache`` translates indices into that region's
addresses so the generic :class:`repro.memory.cache.Cache` machinery and
the DRAM serialization can be reused unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import Cache, Eviction
from repro.obs.tracer import Tracer


@dataclass
class CounterAccessOutcome:
    """Result of resolving a counter through the cache."""

    hit: bool
    counter_block_index: int
    eviction: Eviction | None = None


class CounterCache:
    """Counter cache keyed by counter-block index."""

    #: optional observability hook; lookups become "counter" track instants
    #: (the timing layer adds richer half-miss events on the same track)
    tracer: Tracer | None = None

    def __init__(self, size_bytes: int = 32 * 1024, assoc: int = 8,
                 block_size: int = 64, region_base: int = 0):
        self.cache = Cache(size_bytes, assoc, block_size, name="counter")
        self.block_size = block_size
        self.region_base = region_base

    def memory_address(self, counter_block_index: int) -> int:
        """DRAM address of a counter block inside the counter region."""
        return self.region_base + counter_block_index * self.block_size

    def _cache_address(self, counter_block_index: int) -> int:
        # Index the cache by the dense counter-block index so that counter
        # blocks of any region placement map uniformly over the sets.
        return counter_block_index * self.block_size

    def access(self, counter_block_index: int, write: bool = False,
               now: float = 0.0) -> CounterAccessOutcome:
        """Look up a counter block; miss leaves the fill to the caller.

        ``now`` is purely observational — the timing layer passes the
        current cycle so traced lookup events land on the right timestamp.
        """
        hit = self.cache.access(self._cache_address(counter_block_index),
                                write=write)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("counter", "lookup-hit" if hit else "lookup-miss",
                           now, index=counter_block_index, write=write)
        return CounterAccessOutcome(hit=hit,
                                    counter_block_index=counter_block_index)

    def fill(self, counter_block_index: int, dirty: bool = False) -> Eviction | None:
        """Install a counter block, returning any displaced block.

        The returned eviction's address is translated back to a counter
        block *index* via :meth:`evicted_index`.
        """
        return self.cache.fill(self._cache_address(counter_block_index),
                               dirty=dirty)

    def evicted_index(self, eviction: Eviction) -> int:
        """Counter-block index of an evicted line."""
        return eviction.address // self.block_size

    def contains(self, counter_block_index: int) -> bool:
        return self.cache.contains(self._cache_address(counter_block_index))

    def mark_dirty(self, counter_block_index: int) -> bool:
        return self.cache.mark_dirty(self._cache_address(counter_block_index))

    def invalidate(self, counter_block_index: int) -> Eviction | None:
        """Drop a counter block without writing it back; returns what left
        (see :meth:`Cache.invalidate`)."""
        return self.cache.invalidate(self._cache_address(counter_block_index))

    @property
    def stats(self):
        return self.cache.stats

    # -- checkpoint support ------------------------------------------------

    def state_dict(self) -> dict:
        return self.cache.state_dict()

    def load_state(self, state: dict) -> None:
        self.cache.load_state(state)
