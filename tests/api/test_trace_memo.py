"""The per-process trace memo behind ``Experiment.run``.

A generator workload's trace, stats-only baseline and packed cache
classifications are memoized on (name, refs, trace seed, warmup_refs).
A memo-served run must equal a cold one bit for bit, the memo must hold
only read-only arrays and scalars, a hit's run must build no
per-reference list, nothing a caller mutates may reach the next hit, and
a prebuilt trace, a recorded trace file or an explicit ``baseline=``
must bypass it.
"""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro import api
from repro.api import Experiment
from repro.obs import RecordingTracer
from repro.sim.batched import L1Classification, L2Classification
from repro.workloads import resolve_trace, spec_trace, write_trace

REFS = 4000
#: the fig. 4 encryption and fig. 9 authentication schemes
FIG4_FIG9 = (
    "split", "mono8b", "mono16b", "mono32b", "mono64b", "direct",
    "split+gcm", "mono+gcm", "split+sha", "mono+sha", "xom+sha",
)
#: one preset per drained view: B2 (mono8b), B2p (split), B1 (split+gcm)
PER_DRAIN = ("mono8b", "split", "split+gcm")


@pytest.fixture
def memo(monkeypatch):
    """A fresh memo for each test, so no test sees another's entries."""
    fresh = api._TraceMemo(api.TRACE_MEMO_BYTES)
    monkeypatch.setattr(api, "_TRACE_MEMO", fresh)
    return fresh


def counters(result) -> dict:
    """A scheme SimResult's counters plus its full metrics snapshot."""
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result) if f.name != "memory"}
    fields["metrics"] = json.dumps(result.memory.metrics.snapshot(),
                                   sort_keys=True)
    return fields


def key(app: str, refs: int = REFS, warmup: int | None = None) -> tuple:
    return (app, refs, api._TRACE_SEED,
            refs // 3 if warmup is None else warmup)


class TestMemoServedEqualsCold:
    @pytest.mark.parametrize("app", ["mcf", "db-page-cache"])
    def test_every_fig4_fig9_preset(self, memo, app):
        cold = {}
        for preset in FIG4_FIG9:
            memo.clear()
            experiment = Experiment(preset, app, refs=REFS)
            cold[preset] = (experiment.run().to_dict(),
                            counters(experiment.result))
        assert key(app) in memo._entries
        for preset in FIG4_FIG9:
            experiment = Experiment(preset, app, refs=REFS)
            served = experiment.run().to_dict()
            assert (served, counters(experiment.result)) == cold[preset]
        # the bypass path (the pre-memo code path) agrees as well
        for preset in ("split", "split+gcm", "mono64b"):
            experiment = Experiment(preset, resolve_trace(app, REFS),
                                    refs=REFS)
            assert experiment.run().to_dict() == cold[preset][0]

    def test_recording_tracer_sees_the_same_stream(self, memo):
        streams = []
        for _ in range(2):   # miss, then hit
            tracer = RecordingTracer()
            result = Experiment("split+gcm", "swim", refs=REFS,
                                trace=tracer).run()
            streams.append((result.to_dict(), tracer.events, tracer.misses))
        assert len(memo._entries) == 1
        assert streams[0] == streams[1]
        assert streams[0][1] and streams[0][2]

    def test_checkpointed_run(self, memo, tmp_path):
        cold = api.run("split+gcm", "mcf", refs=REFS).to_dict()
        path = str(tmp_path / "roll.ckpt")
        served = api.run("split+gcm", "mcf", refs=REFS,
                         checkpoint_every=1000, checkpoint_path=path)
        assert served.to_dict() == cold
        memo.clear()
        resumed = api.run("split+gcm", "mcf", refs=REFS, resume_from=path)
        assert resumed.to_dict() == cold
        # resuming on a memo hit gives the same result
        resumed = api.run("split+gcm", "mcf", refs=REFS, resume_from=path)
        assert resumed.to_dict() == cold


class TestStoredForm:
    def test_only_read_only_arrays_and_scalars(self, memo):
        api.run("split", "swim", refs=REFS)   # fills l1 and l2 entries
        entry = memo._entries[key("swim")]
        arrays = [entry.records]
        for packed in entry.classifications.values():
            assert isinstance(packed, (L1Classification, L2Classification))
            arrays.extend(packed)
        assert len(entry.classifications) == 2
        for array in arrays:
            assert isinstance(array, np.ndarray)
            assert array.dtype != object
            assert not array.flags.writeable
        assert entry.baseline.memory is None
        assert entry.nbytes == sum(array.nbytes for array in arrays)
        with pytest.raises(ValueError, match="read-only"):
            entry.records["gap"][0] = 7
        trace, _ = memo.get(key("swim"))
        with pytest.raises(ValueError, match="read-only"):
            trace.arrays()["addr"][0] = 64

    def test_hit_builds_no_per_reference_list(self, memo, monkeypatch):
        """A hit's batched run gathers only the events it drains: no
        ``tolist()`` spans the trace, and the trace's per-reference
        lists are never built.  Two hits share the memo's records."""
        cold = {preset: api.run(preset, "gcc", refs=REFS).to_dict()
                for preset in PER_DRAIN}
        hits = []
        get = memo.get

        def spy_get(memo_key):
            hit = get(memo_key)
            hits.append(hit[0])
            return hit

        monkeypatch.setattr(memo, "get", spy_get)
        spans = []

        def spy(_frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", "") == "tolist":
                spans.append(arg.__self__.size)

        previous = sys.getprofile()
        sys.setprofile(spy)
        try:
            served = {preset: api.run(preset, "gcc", refs=REFS).to_dict()
                      for preset in PER_DRAIN}
        finally:
            sys.setprofile(previous)
        assert served == cold
        assert spans and max(spans) < REFS
        assert len(hits) == len(PER_DRAIN)
        for trace in hits:
            assert not {"gaps", "writes", "addrs"} & vars(trace).keys()
        records = hits[0].arrays()
        assert all(trace.arrays() is records for trace in hits)
        assert not records.flags.writeable

    def test_mutating_a_hit_leaves_the_next_hit_unchanged(self, memo):
        api.run("split", "swim", refs=REFS)
        trace, baseline = memo.get(key("swim"))
        pristine = (list(trace.gaps), list(trace.addrs), list(trace.writes),
                    dataclasses.asdict(baseline))
        trace.gaps[0] += 1000
        trace.addrs.clear()
        trace.writes.reverse()
        trace.classifications.clear()
        baseline.cycles = -1.0
        baseline.instructions = 0
        again, baseline_again = memo.get(key("swim"))
        assert (again.gaps, again.addrs, again.writes,
                dataclasses.asdict(baseline_again)) == pristine
        assert len(again.classifications) == 2
        # an experiment's baseline_result is a copy, too
        experiment = Experiment("mono8b", "swim", refs=REFS)
        experiment.run()
        experiment.baseline_result.cycles = 1.0
        assert memo.get(key("swim"))[1].cycles == pristine[3]["cycles"]

    def test_baseline_result_is_stats_only_on_miss_and_hit(self, memo):
        for _ in range(2):
            experiment = Experiment("split", "gcc", refs=REFS)
            experiment.run()
            assert experiment.baseline_result.memory is None
            assert experiment.baseline_result.ipc > 0
        assert len(memo._entries) == 1


class TestBypass:
    def test_prebuilt_trace(self, memo):
        experiment = Experiment("split", spec_trace("gcc", REFS), refs=REFS)
        experiment.run()
        assert experiment.baseline_result.memory is not None
        assert not memo._entries

    def test_recorded_trace_file(self, memo, tmp_path):
        path = write_trace(tmp_path / "gcc.rtrc", spec_trace("gcc", REFS))
        experiment = Experiment("split", path, refs=REFS)
        experiment.run()
        assert experiment.baseline_result.memory is not None
        assert not memo._entries

    def test_explicit_baseline(self, memo):
        first = Experiment("split", spec_trace("gcc", REFS), refs=REFS)
        first.run()
        second = Experiment("mono8b", "gcc", refs=REFS,
                            baseline=first.baseline_result)
        second.run()
        assert second.baseline_result is first.baseline_result
        assert not memo._entries


class TestEviction:
    def test_lru_under_the_byte_budget(self, memo):
        # same trace, three warm-up lengths: three equal-size entries
        warmups = (1000, 1100, 1200)
        api.run("direct", "gcc", refs=REFS, warmup_refs=warmups[0])
        size = memo._entries[key("gcc", warmup=warmups[0])].nbytes
        memo.budget = 2 * size
        api.run("direct", "gcc", refs=REFS, warmup_refs=warmups[1])
        assert memo.get(key("gcc", warmup=warmups[0])) is not None
        api.run("direct", "gcc", refs=REFS, warmup_refs=warmups[2])
        # warm-up 1100 was least recently used
        assert list(memo._entries) == [key("gcc", warmup=w)
                                       for w in (1000, 1200)]
        assert sum(e.nbytes for e in memo._entries.values()) <= memo.budget

    def test_entry_over_the_budget_is_not_kept(self, memo):
        memo.budget = 1000
        result = api.run("direct", "gcc", refs=REFS)
        assert not memo._entries
        assert result.to_dict() == api.run("direct", "gcc",
                                           refs=REFS).to_dict()

    def test_concurrent_use_keeps_the_budget(self, memo):
        api.run("direct", "gcc", refs=REFS)
        trace, baseline = memo.get(key("gcc"))
        size = memo._entries[key("gcc")].nbytes
        memo.budget = 3 * size
        errors = []

        def worker(seed: int) -> None:
            try:
                for step in range(40):
                    k = key("gcc", warmup=(seed * 7 + step) % 6 + 1)
                    hit = memo.get(k)
                    if hit is None:
                        memo.keep(k, trace, baseline)
                    else:
                        assert hit[0].gaps == trace.gaps
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sum(e.nbytes for e in memo._entries.values()) <= memo.budget
        assert 1 <= len(memo._entries) <= 3


class TestRunArguments:
    @pytest.mark.parametrize("refs, warmup, field", [
        (0, None, "refs"),
        (-1, None, "refs"),
        (100, 100, "warmup_refs"),
        (100, 500, "warmup_refs"),
        (100, -1, "warmup_refs"),
    ])
    def test_rejected_before_any_work(self, monkeypatch, refs, warmup,
                                      field):
        def boom(*_args, **_kwargs):
            raise AssertionError("work started before argument checks")

        monkeypatch.setattr(api, "resolve_trace", boom)
        monkeypatch.setattr(api, "simulate", boom)
        for entry in (Experiment, api.run, api.profile):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                entry("split", "gcc", refs=refs, warmup_refs=warmup)

    def test_cli_exits_2(self, capsys):
        from repro.__main__ import main

        for command in ("simulate", "profile"):
            assert main([command, "--app", "gcc", "--scheme", "split",
                         "--refs", "0"]) == 2
            assert "refs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("warmup", [0, 1, 99])
    def test_boundaries_accepted(self, memo, warmup):
        assert api.run("split", "gcc", refs=100,
                       warmup_refs=warmup).instructions > 0
