"""Set-associative cache model: LRU, dirty tracking, evictions, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache


def small_cache(assoc=2, sets=4, block=64):
    return Cache(assoc * sets * block, assoc, block)


class TestGeometry:
    def test_set_count(self):
        c = Cache(32 * 1024, 8, 64)
        assert c.num_sets == 64

    def test_rejects_non_pow2_block(self):
        with pytest.raises(ValueError):
            Cache(1024, 2, 48)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            Cache(1000, 2, 64)

    def test_block_address_alignment(self):
        c = small_cache()
        assert c.block_address(0x1234) == 0x1200


class TestHitMiss:
    def test_first_access_misses(self):
        c = small_cache()
        assert not c.access(0)
        assert c.stats.misses == 1

    def test_access_after_fill_hits(self):
        c = small_cache()
        c.access(0)
        c.fill(0)
        assert c.access(0)
        assert c.stats.hits == 1

    def test_sub_block_addresses_share_line(self):
        c = small_cache()
        c.fill(0x100)
        assert c.access(0x13F)   # same 64B block
        assert not c.access(0x140)  # next block

    def test_contains_without_stats(self):
        c = small_cache()
        c.fill(0)
        before = c.stats.accesses
        assert c.contains(0)
        assert not c.contains(64)
        assert c.stats.accesses == before


class TestLRUAndEviction:
    def test_lru_victim(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0)
        c.fill(64)
        c.access(0)  # 0 becomes MRU; 64 is LRU
        evicted = c.fill(128)
        assert evicted is not None and evicted.address == 64

    def test_eviction_reports_dirty(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0, dirty=True)
        evicted = c.fill(64)
        assert evicted.dirty and evicted.address == 0
        assert c.stats.writebacks == 1

    def test_clean_eviction(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0)
        evicted = c.fill(64)
        assert not evicted.dirty
        assert c.stats.writebacks == 0

    def test_refill_resident_block_keeps_dirty(self):
        c = small_cache()
        c.fill(0, dirty=True)
        assert c.fill(0) is None
        assert c.is_dirty(0)

    def test_write_access_sets_dirty(self):
        c = small_cache()
        c.fill(0)
        c.access(0, write=True)
        assert c.is_dirty(0)

    def test_payload_travels_with_eviction(self):
        c = small_cache(assoc=1, sets=1)
        c.fill(0, dirty=True, payload=b"hello")
        evicted = c.fill(64)
        assert evicted.payload == b"hello"


class TestMaintenance:
    def test_invalidate(self):
        c = small_cache()
        c.fill(0)
        line = c.invalidate(0)
        assert line is not None
        assert not c.contains(0)
        assert c.invalidate(0) is None

    def test_mark_dirty(self):
        c = small_cache()
        c.fill(0)
        assert c.mark_dirty(0)
        assert c.is_dirty(0)
        assert not c.mark_dirty(0x4000)
        assert not c.is_dirty(0x4000)

    def test_flush_returns_dirty_blocks(self):
        c = small_cache()
        c.fill(0, dirty=True)
        c.fill(64)
        c.fill(128, dirty=True)
        dirty = c.flush()
        assert {e.address for e in dirty} == {0, 128}
        assert c.occupancy() == 0

    def test_dirty_blocks_iterator(self):
        c = small_cache()
        c.fill(0, dirty=True)
        c.fill(64)
        assert list(c.dirty_blocks()) == [0]


class TestInvariants:
    @settings(max_examples=30)
    @given(ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.booleans()), min_size=1, max_size=200))
    def test_against_reference_model(self, ops):
        """The cache must agree with a brute-force LRU reference model."""
        assoc, sets, block = 2, 4, 64
        cache = Cache(assoc * sets * block, assoc, block)
        reference = [[] for _ in range(sets)]  # MRU-first lists of blocks

        for block_index, write in ops:
            address = block_index * block
            set_index = block_index % sets
            ref_set = reference[set_index]
            expect_hit = block_index in ref_set
            assert cache.access(address, write=write) == expect_hit
            if expect_hit:
                ref_set.remove(block_index)
                ref_set.insert(0, block_index)
            else:
                cache.fill(address, dirty=write)
                if len(ref_set) >= assoc:
                    ref_set.pop()
                ref_set.insert(0, block_index)
            # residency agrees
            for candidate in range(64):
                assert (cache.contains(candidate * block)
                        == (candidate in reference[candidate % sets]))

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(("access", "fill", "fill", "mark_dirty",
                         "clear_dirty", "invalidate", "flush", "roundtrip")),
        st.integers(min_value=0, max_value=11),   # 1.5x the capacity
        st.sampled_from((0, 8, 63)),              # offset within the block
        st.booleans(),
        st.one_of(st.none(), st.binary(min_size=1, max_size=4))),
        min_size=8, max_size=120))
    def test_address_calls_against_reference_model(self, ops):
        """Everything a caller reaches by address — payloads on fill,
        refill and eviction, dirty marking and clearing, invalidate, flush
        and a checkpoint round trip — agrees with a brute-force model."""
        assoc, sets, block = 2, 4, 64
        cache = Cache(assoc * sets * block, assoc, block)
        lru = [[] for _ in range(sets)]   # MRU-first block addresses
        dirty: set[int] = set()
        payloads: dict[int, bytes] = {}
        hits = misses = writebacks = 0

        def leave(address):
            return (address, address in dirty, payloads.pop(address, None))

        for kind, index, offset, flag, payload in ops:
            address = index * block
            ref_set = lru[index % sets]
            if kind == "access":
                hit = address in ref_set
                assert cache.access(address + offset, write=flag) == hit
                if hit:
                    hits += 1
                    ref_set.remove(address)
                    ref_set.insert(0, address)
                    if flag:
                        dirty.add(address)
                else:
                    misses += 1
            elif kind == "fill":
                evicted = cache.fill(address + offset, dirty=flag,
                                     payload=payload)
                if address in ref_set:   # refill: refresh, keep dirt
                    assert evicted is None
                    ref_set.remove(address)
                else:
                    expect = None
                    if len(ref_set) >= assoc:
                        expect = leave(ref_set.pop())
                        dirty.discard(expect[0])
                        writebacks += expect[1]
                    got = (None if evicted is None else
                           (evicted.address, evicted.dirty, evicted.payload))
                    assert got == expect
                ref_set.insert(0, address)
                if flag:
                    dirty.add(address)
                if payload is not None:
                    payloads[address] = payload
            elif kind == "mark_dirty":
                resident = address in ref_set
                assert cache.mark_dirty(address + offset) == resident
                if resident:
                    dirty.add(address)
            elif kind == "clear_dirty":
                cache.clear_dirty(address + offset)
                dirty.discard(address)
            elif kind == "invalidate":
                evicted = cache.invalidate(address + offset)
                if address in ref_set:
                    expect = leave(address)
                    ref_set.remove(address)
                    dirty.discard(address)
                    assert (evicted.address, evicted.dirty,
                            evicted.payload) == expect
                else:
                    assert evicted is None
            elif kind == "flush":
                order = [a for lines in lru for a in lines if a in dirty]
                assert [(e.address, e.dirty, e.payload)
                        for e in cache.flush()] == [
                    (a, True, payloads.get(a)) for a in order]
                lru = [[] for _ in range(sets)]
                dirty.clear()
                payloads.clear()
            else:
                restored = Cache(assoc * sets * block, assoc, block)
                restored.load_state(cache.state_dict())
                assert restored.state_dict() == cache.state_dict()
                cache = restored
                payloads = {a: bytearray(p) for a, p in payloads.items()}

            order = [a for lines in lru for a in lines]
            assert list(cache.resident_blocks()) == order
            assert list(cache.dirty_blocks()) == [
                a for a in order if a in dirty]
            assert cache.occupancy() == len(order)
            for candidate in range(12):
                a = candidate * block
                assert cache.contains(a + offset) == (a in order)
                assert cache.is_dirty(a) == (a in dirty)
                assert cache.payload(a + offset) == payloads.get(a)
            assert (cache.stats.hits, cache.stats.misses,
                    cache.stats.writebacks) == (hits, misses, writebacks)

    @settings(max_examples=30)
    @given(blocks=st.lists(st.integers(min_value=0, max_value=1000),
                           max_size=100))
    def test_occupancy_never_exceeds_capacity(self, blocks):
        c = small_cache(assoc=2, sets=2)
        for b in blocks:
            c.fill(b * 64)
        assert c.occupancy() <= 4
