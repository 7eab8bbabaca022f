"""Normalized IPC and its aggregation across apps."""

import math

import pytest

from repro.api import Experiment
from repro.core.config import baseline_config, direct_config
from repro.sim.metrics import geometric_mean
from repro.sim.processor import SimResult, simulate
from repro.workloads.trace import Trace


def sim_result(instructions, cycles, name="synthetic"):
    """A hand-built SimResult; memory is unused by the metrics layer."""
    return SimResult(name=name, instructions=instructions, cycles=cycles,
                     l1_hits=0, l1_misses=0, l2_hits=0, l2_misses=0,
                     writebacks=0, memory=None)


def miss_trace(n=200):
    return Trace(name="t", gaps=[2] * n, writes=[False] * n,
                 addrs=[i * 64 * 33 for i in range(n)])


def normalized(config, baseline=None):
    """Run ``config`` on the miss trace, against ``baseline`` if given."""
    trace = miss_trace()
    return Experiment(config, trace, refs=len(trace), warmup_refs=0,
                      baseline=baseline).run()


def scaled_baseline(cycle_factor):
    """The miss trace's baseline with its cycles scaled by ``cycle_factor``,
    so a baseline-config run normalizes to exactly ``cycle_factor``."""
    base = simulate(baseline_config(), miss_trace())
    return sim_result(base.instructions, base.cycles * cycle_factor)


class TestNormalization:
    def test_baseline_normalizes_to_one(self):
        result = normalized(baseline_config())
        assert result.normalized_ipc == pytest.approx(1.0)
        assert result.overhead == pytest.approx(0.0)

    def test_direct_shows_overhead(self):
        result = normalized(direct_config())
        assert 0 < result.normalized_ipc < 1
        assert result.overhead == pytest.approx(1 - result.normalized_ipc)

    def test_shared_baseline_reused(self):
        trace = miss_trace()
        base = simulate(baseline_config(), trace)
        experiment = Experiment(direct_config(), trace, refs=len(trace),
                                warmup_refs=0, baseline=base)
        result = experiment.run()
        assert experiment.baseline_result is base
        assert result.baseline_ipc == base.ipc


class TestNormalizedResultEdgeCases:
    def test_zero_cycle_result_has_zero_ipc(self):
        assert sim_result(100, 0).ipc == 0.0

    def test_zero_baseline_ipc_is_undefined_not_zero(self):
        """A dead baseline (0 cycles → 0 IPC) makes the ratio undefined.

        It must surface as nan — not 0.0, which would read as "the scheme
        is infinitely slow" and silently drag figure averages down.
        """
        result = normalized(direct_config(), baseline=sim_result(100, 0))
        assert result.baseline_ipc == 0.0
        assert math.isnan(result.normalized_ipc)
        assert math.isnan(result.overhead)
        assert math.isnan(result.to_dict()["normalized_ipc"])

    def test_aggregation_skips_invalid_cells(self):
        """The mean either rejects a nan cell loudly or skips it on request."""
        ok = normalized(baseline_config())
        dead = normalized(baseline_config(), baseline=sim_result(100, 0))
        nipcs = [ok.normalized_ipc, dead.normalized_ipc]
        with pytest.raises(ValueError):
            geometric_mean(nipcs)
        assert geometric_mean(nipcs, skip_invalid=True) == pytest.approx(1.0)

    def test_overhead_positive_when_scheme_slower(self):
        result = normalized(baseline_config(), baseline=scaled_baseline(0.8))
        assert result.normalized_ipc == pytest.approx(0.8)
        assert result.overhead == pytest.approx(0.2)

    def test_overhead_negative_when_scheme_faster(self):
        result = normalized(baseline_config(), baseline=scaled_baseline(1.25))
        assert result.normalized_ipc == pytest.approx(1.25)
        assert result.overhead == pytest.approx(-0.25)

    def test_multi_app_average_hand_computed(self):
        """The figure-level average over apps, checked against paper math:
        nIPCs 0.9, 0.8, 0.6 → geometric (0.432)^(1/3)."""
        assert geometric_mean([0.9, 0.8, 0.6]) == pytest.approx(
            (0.9 * 0.8 * 0.6) ** (1 / 3))


class TestMeans:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_geometric_leq_arithmetic(self):
        values = [0.5, 0.9, 0.99, 0.7]
        assert geometric_mean(values) <= sum(values) / len(values)

    def test_geomean_21_small_values_does_not_underflow(self):
        """The paper averages over 21 benchmarks; 21 values near 1e-20
        underflow a naive product (1e-420 < float min) to 0.0.  The log
        domain keeps the exact answer."""
        values = [1e-20] * 21
        assert geometric_mean(values) == pytest.approx(1e-20, rel=1e-9)

    def test_geomean_21_large_values_does_not_overflow(self):
        values = [1e18] * 21
        assert geometric_mean(values) == pytest.approx(1e18, rel=1e-9)

    def test_geomean_21_mixed_values_matches_log_domain(self):
        values = [0.5 + 0.05 * i for i in range(21)]
        expected = math.exp(sum(math.log(v) for v in values) / 21)
        assert geometric_mean(values) == pytest.approx(expected)

    def test_geomean_zero_annihilates(self):
        assert geometric_mean([0.0, 2.0, 8.0]) == 0.0

    def test_geomean_negative_raises(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    def test_geomean_nan_raises_unless_skipped(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, float("nan")])
        assert geometric_mean([4.0, float("nan"), 1.0],
                              skip_invalid=True) == pytest.approx(2.0)

    def test_geomean_all_invalid_skipped_is_zero(self):
        assert geometric_mean([float("nan")] * 3, skip_invalid=True) == 0.0
