"""Trace container: accounting, slicing and prefix sums."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.trace import Trace


class TestTrace:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            Trace(name="bad", gaps=[1], writes=[], addrs=[0])

    def test_instruction_count(self):
        trace = Trace(name="t", gaps=[2, 3, 0], writes=[False] * 3,
                      addrs=[0, 64, 128])
        assert trace.instructions == 3 + 5

    def test_write_fraction(self):
        trace = Trace(name="t", gaps=[0] * 4,
                      writes=[True, False, True, False],
                      addrs=[0] * 4)
        assert trace.write_fraction == 0.5

    def test_write_fraction_empty(self):
        trace = Trace(name="t", gaps=[], writes=[], addrs=[])
        assert trace.write_fraction == 0.0

    def test_footprint_blocks(self):
        trace = Trace(name="t", gaps=[0] * 4, writes=[False] * 4,
                      addrs=[0, 10, 64, 129])
        assert trace.footprint_blocks() == 3

    def test_slice(self):
        trace = Trace(name="t", gaps=[1, 2, 3, 4], writes=[False] * 4,
                      addrs=[0, 64, 128, 192])
        sub = trace.slice(1, 3)
        assert sub.addrs == [64, 128]
        assert sub.gaps == [2, 3]
        assert len(sub) == 2


class TestPrefixSums:
    """``cum_insns``/``cum_cycles`` are NumPy accumulations; both engines
    index them, so they must equal the running Python sums bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(gaps=st.lists(st.integers(0, 10_000), max_size=400),
           cpi=st.sampled_from([1 / 3, 1 / 4, 1 / 2, 1.0, 0.1, 2.5]))
    def test_match_itertools_accumulate(self, gaps, cpi):
        trace = Trace(name="t", gaps=gaps, writes=[False] * len(gaps),
                      addrs=[0] * len(gaps))
        assert trace.cum_insns.tolist() == [0] + list(
            itertools.accumulate(g + 1 for g in gaps))
        cycles = trace.cum_cycles(cpi).tolist()
        reference = [0.0] + list(
            itertools.accumulate((g + 1) * cpi for g in gaps))
        assert [c.hex() for c in cycles] == [r.hex() for r in reference]
        assert all(type(c) is float for c in cycles)

    def test_cached_read_only_arrays(self):
        trace = Trace(name="t", gaps=[3, 0, 7], writes=[True, False, True],
                      addrs=[64, 0, 4096])
        assert trace.cum_cycles(0.5) is trace.cum_cycles(0.5)
        assert trace.cum_insns is trace.cum_insns
        for prefix in (trace.cum_cycles(0.5), trace.cum_insns):
            assert len(prefix) == len(trace) + 1
            with pytest.raises(ValueError, match="read-only"):
                prefix[0] = 1

    def test_rebuilt_trace_matches(self):
        trace = Trace(name="t", gaps=[3, 0, 7], writes=[True, False, True],
                      addrs=[64, 0, 4096])
        rebuilt = Trace.from_arrays("t", trace.arrays())
        assert rebuilt == trace
        assert rebuilt.arrays() is trace.arrays()
        assert (rebuilt.cum_cycles(1 / 3).tobytes()
                == trace.cum_cycles(1 / 3).tobytes())
        assert rebuilt.cum_insns.tobytes() == trace.cum_insns.tobytes()
        assert (rebuilt.gaps, rebuilt.writes, rebuilt.addrs) == (
            [3, 0, 7], [True, False, True], [64, 0, 4096])
        assert rebuilt != Trace.from_arrays("u", trace.arrays())
        assert rebuilt != Trace(name="t", gaps=[3, 0, 7],
                                writes=[True, False, False],
                                addrs=[64, 0, 4096])


class TestRecordsOnly:
    """A trace holds its records; the per-reference lists are built only
    when something reads them."""

    def test_from_arrays_builds_no_list(self):
        records = Trace(name="t", gaps=[1, 2], writes=[False, True],
                        addrs=[0, 64]).arrays()
        rebuilt = Trace.from_arrays("t", records)
        assert not {"gaps", "writes", "addrs"} & vars(rebuilt).keys()
        assert len(rebuilt) == 2
        assert rebuilt.instructions == 2 + 3
        assert rebuilt.write_fraction == 0.5
        assert not {"gaps", "writes", "addrs"} & vars(rebuilt).keys()
        assert rebuilt.writes is rebuilt.writes == [False, True]

    def test_slice_is_a_view(self):
        trace = Trace(name="t", gaps=[1, 2, 3, 4], writes=[False] * 4,
                      addrs=[0, 64, 128, 192])
        sub = trace.slice(1, 3)
        assert sub.arrays().base is trace.arrays()
        assert sub.name == "t[1:3]"
