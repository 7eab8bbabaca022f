"""Differential lockdown: trace-file replay must equal live generation.

Recording a workload generator to an ``.rtrc`` container and replaying
the file is required to be *bit-for-bit* equivalent to running the
generator live — same final cycles, same stat counters, same metrics
snapshot, same semantic memory state, same per-miss ``PathTime``/event
streams.  Anything less would make recorded-trace sweep results
incomparable with generated ones.

Covered here:

* every registered preset × both sim engines on one recorded SPEC trace
  (a preset the oracle runs under both is timed once, and its batched
  id checks that routing),
* a scenario-library recording (db-page-cache) on a representative
  preset pair,
* the tracer differential (PathTime/event streams) on authenticated
  presets,
* the end-to-end ``Experiment`` path: running ``trace:<path>`` equals
  running the generator by name, and the result's app id is the
  path-independent ``trace-<fingerprint>``.
"""

import pytest

from repro.api import Experiment, get_config
from repro.core.config import PRESETS
from repro.obs.tracer import RecordingTracer
from repro.sim.processor import Processor
from repro.workloads import (
    PROFILES,
    generate_trace,
    load_trace,
    scenario_trace,
    trace_fingerprint,
    write_trace,
)

PRESET_NAMES = sorted(PRESETS)
#: ``sim_engine`` values, with the engine each runs as its test id
ENGINES = ("scalar", "auto")
ENGINE_IDS = ("scalar", "batched")
REFS = 1500

TRACED_PRESETS = [s for s in ("split+gcm", "mono+sha", "secddr", "scattered")
                  if s in PRESETS]

#: presets the closure engine does not model: every ``sim_engine`` runs
#: them on the scalar oracle (``test_engine_equivalence`` pins the list)
ORACLE_PRESETS = ("pred", "pred2eng", "scattered")


def observables(processor, result):
    """Everything an engine is held accountable for, as one comparable."""
    return (
        result.cycles, result.instructions,
        result.l1_hits, result.l1_misses,
        result.l2_hits, result.l2_misses, result.writebacks,
        processor.metrics.snapshot(),
        processor.state_dict(),
    )


def run_engine(preset, trace, engine, warmup=0, tracer=None):
    p = Processor(get_config(preset, sim_engine=engine), tracer=tracer)
    r = p.run(trace, warmup_refs=warmup)
    return observables(p, r)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One live trace and its round-tripped recording, as a pair."""
    live = generate_trace(PROFILES["mcf"], REFS, seed=13)
    path = tmp_path_factory.mktemp("traces") / "mcf.rtrc"
    write_trace(path, live)
    return live, load_trace(path)


@pytest.fixture(scope="module")
def recorded_scenario(tmp_path_factory):
    live = scenario_trace("db-page-cache", num_refs=REFS, seed=21)
    path = tmp_path_factory.mktemp("traces") / "db.rtrc"
    write_trace(path, live)
    return live, load_trace(path)


def test_roundtrip_streams_identical(recorded):
    live, replayed = recorded
    assert replayed.addrs == live.addrs
    assert replayed.gaps == live.gaps
    assert replayed.writes == live.writes
    assert replayed.name == live.name


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_replay_equals_live(preset, engine, recorded):
    if engine == "auto" and preset in ORACLE_PRESETS:
        # the oracle runs it, so the scalar id already times this run
        processor = Processor(get_config(preset, sim_engine=engine))
        assert processor.resolved_sim_engine() == "scalar"
        return
    live, replayed = recorded
    assert run_engine(preset, replayed, engine) == \
        run_engine(preset, live, engine)


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
@pytest.mark.parametrize("preset", ["baseline", "split+gcm"])
def test_scenario_replay_equals_live(preset, engine, recorded_scenario):
    live, replayed = recorded_scenario
    assert run_engine(preset, replayed, engine) == \
        run_engine(preset, live, engine)


@pytest.mark.parametrize("preset", TRACED_PRESETS)
def test_tracer_streams_identical(preset, recorded):
    """Per-miss PathTime records and every trace event match exactly."""
    live, replayed = recorded
    streams = {}
    for label, trace in (("live", live), ("replayed", replayed)):
        tracer = RecordingTracer()
        run_engine(preset, trace, "auto", tracer=tracer)
        streams[label] = (
            [repr(vars(m)) for m in tracer.misses],
            [repr(vars(e)) for e in tracer.events],
        )
    assert streams["live"] == streams["replayed"]


def test_experiment_trace_workload_equals_generator(tmp_path):
    """The full api path: trace:<path> == named generator, same numbers."""
    from repro.workloads import resolve_trace

    live = resolve_trace("gcc", 1200, seed=1234)
    path = tmp_path / "gcc.rtrc"
    write_trace(path, live)

    by_name = Experiment("split+gcm", "gcc", refs=1200).run()
    by_file = Experiment("split+gcm", f"trace:{path}", refs=1200).run()
    assert by_file.cycles == by_name.cycles
    assert by_file.instructions == by_name.instructions
    assert by_file.l2_misses == by_name.l2_misses
    assert by_file.app == f"trace-{trace_fingerprint(path)}"

    bare = Experiment("split+gcm", str(path), refs=1200).run()
    assert bare.cycles == by_name.cycles


def test_experiment_trace_slice_matches_prefix(tmp_path):
    """Replaying fewer refs than recorded uses the exact prefix."""
    from repro.workloads import resolve_trace

    live = resolve_trace("swim", 1000, seed=1234)
    path = tmp_path / "swim.rtrc"
    write_trace(path, live)
    sliced = Experiment("split", f"trace:{path}", refs=600).run()
    prefix = Experiment("split", "swim", refs=600).run()
    assert sliced.cycles == prefix.cycles
    assert sliced.l2_misses == prefix.l2_misses
