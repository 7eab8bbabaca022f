"""Differential lockdown: the batched engine must equal the scalar oracle.

The batched engine (:mod:`repro.sim.batched`) restructures the reference
loop into NumPy preclassification plus Python drains, but its contract is
*bit-for-bit* equality with the scalar engine — same final cycles, same
stat counters, same metrics snapshot, same semantic memory state, same
per-miss PathTime records.  Three layers enforce it:

* a deterministic sweep over every registered preset on two fixed traces
  (one cold, one with warmup); for a preset the oracle runs under every
  engine, the sweep checks that routing instead of timing the oracle
  twice,
* a Hypothesis differential over random short traces x the presets the
  batched engine runs,
* the routing that decides which presets those are: the closure engine
  runs every preset it models, and the rest (counter prediction, secret
  shares, two AES copies) and every traced run go to the scalar oracle,
  so per-miss ``MissRecord``/event streams always come from the oracle.

A fourth check pins that the simulator never consults the module-level
``random`` state, so a global ``random.seed(...)`` from embedding code
cannot perturb timing results.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import get_config
from repro.core.config import PRESETS, SIM_ENGINES
from repro.obs.tracer import RecordingTracer
from repro.sim.batched import run_batched
from repro.sim.processor import Processor
from repro.workloads import PROFILES, generate_trace

PRESET_NAMES = sorted(PRESETS)

#: Presets the closure engine does not model (counter prediction, secret
#: shares, two AES copies): every ``sim_engine`` runs them on the oracle.
ORACLE_PRESETS = ("pred", "pred2eng", "scattered")
BATCHED_PRESETS = [s for s in PRESET_NAMES if s not in ORACLE_PRESETS]


def observables(processor, result):
    """Everything an engine is held accountable for, as one comparable."""
    return (
        result.cycles, result.instructions,
        result.l1_hits, result.l1_misses,
        result.l2_hits, result.l2_misses, result.writebacks,
        processor.metrics.snapshot(),
        processor.state_dict(),
    )


def run_engine(preset, trace, engine, warmup=0):
    p = Processor(get_config(preset, sim_engine=engine))
    r = p.run(trace, warmup_refs=warmup)
    return observables(p, r)


def assert_batched_equals_scalar(preset, trace, warmup=0):
    """Both engines leave the same observables.  A preset the closure
    engine does not model runs on the oracle under every ``sim_engine``,
    so timing it twice would compare the oracle with itself: for those
    the check is that routing."""
    if preset in ORACLE_PRESETS:
        for engine in SIM_ENGINES:
            processor = Processor(get_config(preset, sim_engine=engine))
            assert processor.resolved_sim_engine() == "scalar", engine
        return
    assert run_engine(preset, trace, "scalar", warmup=warmup) == \
        run_engine(preset, trace, "auto", warmup=warmup)


@pytest.fixture(scope="module")
def cold_trace():
    return generate_trace(PROFILES["swim"], 8000, seed=7)


@pytest.fixture(scope="module")
def warm_trace():
    return generate_trace(PROFILES["mcf"], 6000, seed=11)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_batched_equals_scalar_cold(preset, cold_trace):
    assert_batched_equals_scalar(preset, cold_trace)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_batched_equals_scalar_with_warmup(preset, warm_trace):
    assert_batched_equals_scalar(preset, warm_trace, warmup=2000)


@settings(max_examples=15, deadline=None)
@given(
    preset=st.sampled_from(BATCHED_PRESETS),
    app=st.sampled_from(sorted(PROFILES)),
    refs=st.integers(min_value=64, max_value=2500),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    warmup_frac=st.sampled_from([0.0, 0.25, 0.5]),
)
def test_batched_equals_scalar_random(preset, app, refs, seed, warmup_frac):
    trace = generate_trace(PROFILES[app], refs, seed=seed)
    warmup = int(refs * warmup_frac)
    assert run_engine(preset, trace, "scalar", warmup=warmup) == \
        run_engine(preset, trace, "auto", warmup=warmup)


# -- engine routing ------------------------------------------------------


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_resolved_sim_engine(preset):
    """The batched engine runs every preset it models under ``auto``; a
    new condition in ``supports`` that drops a fig. 4/9 preset to the
    oracle fails here, not just as a slower sweep."""
    expected = "scalar" if preset in ORACLE_PRESETS else "batched"
    processor = Processor(get_config(preset, sim_engine="auto"))
    assert processor.resolved_sim_engine() == expected
    processor = Processor(get_config(preset, sim_engine="scalar"))
    assert processor.resolved_sim_engine() == "scalar"


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_tracer_streams_identical(preset):
    """A traced run resolves to the scalar oracle under every
    ``sim_engine``, so its per-miss PathTime records and trace events
    cannot depend on the choice."""
    for engine in SIM_ENGINES:
        processor = Processor(get_config(preset, sim_engine=engine),
                              tracer=RecordingTracer())
        assert processor.resolved_sim_engine() == "scalar"


def test_batched_engine_refuses_what_it_does_not_model(cold_trace):
    """Called directly, the batched engine raises instead of timing a
    configuration it does not model."""
    processors = [Processor(get_config(preset)) for preset in ORACLE_PRESETS]
    processors.append(Processor(get_config("split+gcm"),
                                tracer=RecordingTracer()))
    for processor in processors:
        with pytest.raises(ValueError, match="does not support"):
            run_batched(processor, cold_trace)


# -- global random state -------------------------------------------------


def test_global_random_seed_does_not_perturb_timing(cold_trace):
    runs = []
    for global_seed in (123, 987654321):
        random.seed(global_seed)
        runs.append(run_engine("split+gcm", cold_trace, "auto"))
        random.seed()  # leave the global state unseeded again
    assert runs[0] == runs[1]

