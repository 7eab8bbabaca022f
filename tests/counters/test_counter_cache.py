"""The on-chip counter cache (index-addressed wrapper over Cache)."""

from repro.counters.counter_cache import CounterCache


class TestAddressing:
    def test_memory_address_in_region(self):
        cc = CounterCache(region_base=0x100000, block_size=64)
        assert cc.memory_address(0) == 0x100000
        assert cc.memory_address(5) == 0x100000 + 5 * 64

    def test_evicted_index_inverts_fill(self):
        cc = CounterCache(size_bytes=64, assoc=1, block_size=64)
        cc.fill(7, dirty=True)
        eviction = cc.fill(13)
        assert eviction is not None
        assert cc.evicted_index(eviction) == 7


class TestBehaviour:
    def test_miss_then_hit(self):
        cc = CounterCache(size_bytes=1024, assoc=2, block_size=64)
        assert not cc.access(3).hit
        cc.fill(3)
        assert cc.access(3).hit

    def test_contains_and_invalidate(self):
        cc = CounterCache(size_bytes=1024, assoc=2, block_size=64)
        cc.fill(9)
        assert cc.contains(9)
        cc.invalidate(9)
        assert not cc.contains(9)

    def test_mark_dirty_causes_dirty_eviction(self):
        cc = CounterCache(size_bytes=64, assoc=1, block_size=64)
        cc.fill(0)
        assert cc.mark_dirty(0)
        eviction = cc.fill(1)
        assert eviction.dirty

    def test_distinct_indices_map_to_distinct_sets(self):
        """Consecutive counter blocks spread over the sets (no hot-set
        aliasing from the region base)."""
        cc = CounterCache(size_bytes=32 * 1024, assoc=8, block_size=64)
        for i in range(64):
            cc.fill(i)
        assert [len(lines) for lines in cc.cache.sets] == [1] * 64

    def test_default_geometry_matches_paper(self):
        cc = CounterCache()
        assert cc.cache.size_bytes == 32 * 1024
        assert cc.cache.assoc == 8
        assert cc.cache.block_size == 64
