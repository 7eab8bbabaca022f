"""Unified experiment facade — the documented entry point for the repro.

Everything an experiment needs lives behind three names:

* :func:`get_config` — preset lookup by benchmark label, with typo
  suggestions and keyword overrides
  (``get_config("split+gcm", mac_bits=32)``).
* :class:`Experiment` — one configuration bound to one workload; ``run()``
  simulates it (plus the no-protection baseline on the identical trace for
  normalization) and returns an :class:`ExperimentResult`.
* :func:`run` — one-shot convenience wrapping the two above.

The CLI (``python -m repro``), the pytest benchmarks, and the examples are
all thin layers over this module.  The older per-scheme constructors
(``split_gcm_config()`` and friends) and the raw ``PRESETS`` mapping remain
available as back-compat shims, but new code should start here.

Example::

    from repro.api import run

    result = run("split+gcm", "mcf", refs=40_000)
    print(result.normalized_ipc, result.counter_cache_hit_rate)
    print(result.to_dict())   # JSON-ready
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.core.config import PRESETS, SecureMemoryConfig, lookup_preset
from repro.core.results import (
    RESULT_SCHEMA,
    ResultBase,
    ResultMeta,
    config_fingerprint,
)
from repro.obs.tracer import RecordingTracer, Tracer
from repro.sim import LoopState, Processor, SimResult, simulate
from repro.workloads import (
    Trace,
    canonical_workload_id,
    resolve_trace,
    workload_kind,
)

if TYPE_CHECKING:
    from repro.obs.attribution import AttributionReport

__all__ = [
    "BenchResult",
    "ComponentInfo",
    "Experiment",
    "ExperimentResult",
    "ProfileResult",
    "RESULT_SCHEMA",
    "ResultMeta",
    "SchemeInfo",
    "bench",
    "describe_scheme",
    "fuzz",
    "get_config",
    "list_configs",
    "list_schemes",
    "loadgen",
    "profile",
    "run",
    "run_many",
]


def list_configs() -> list[str]:
    """The preset labels accepted by :func:`get_config`, in display order."""
    return list(PRESETS)


def get_config(name: str | None = None, *, preset: str | None = None,
               **overrides: Any) -> SecureMemoryConfig:
    """Look up a preset by its benchmark label, optionally overriding fields.

    The label can be passed positionally or as ``preset=``; exactly one of
    the two must be given.  Unknown labels raise :class:`KeyError` with
    close-match suggestions (``get_config("spilt")`` → *did you mean
    'split'?*).  Overrides go through
    :meth:`SecureMemoryConfig.with_updates`, so they are validated like any
    other construction.
    """
    if (name is None) == (preset is None):
        raise TypeError(
            "get_config takes exactly one scheme label: positional name or "
            "preset=")
    config = lookup_preset(name if name is not None else preset)
    return config.with_updates(**overrides) if overrides else config


# -- scheme registry views ----------------------------------------------------

@dataclass(frozen=True)
class ComponentInfo:
    """One mechanism of a scheme, as registered in the scheme registry."""

    kind: str
    name: str
    summary: str
    provides: tuple[str, ...]
    requires: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["provides"] = list(self.provides)
        payload["requires"] = list(self.requires)
        return payload


@dataclass(frozen=True)
class SchemeInfo:
    """Structured description of one registered scheme.

    ``encryption``/``counters``/``auth``/``mac_bits``/``integrity`` echo
    the resolved configuration (the stable CLI JSON contract);
    ``components`` and ``capabilities`` expose the registry's view of how
    the scheme is composed.
    """

    name: str
    summary: str
    encryption: str
    counters: str | None
    auth: str
    mac_bits: int
    integrity: str
    capabilities: tuple[str, ...]
    components: tuple[ComponentInfo, ...]

    def to_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["capabilities"] = list(self.capabilities)
        payload["components"] = [c.to_dict() for c in self.components]
        return payload


def describe_scheme(name: str) -> SchemeInfo:
    """Describe one registered scheme (preset) as structured data."""
    from repro.schemes import REGISTRY

    composition = REGISTRY.scheme(name)
    config = get_config(name)
    specs = [REGISTRY.component(kind, comp_name)
             for kind, comp_name in composition.component_names()]
    return SchemeInfo(
        name=composition.name,
        summary=composition.summary,
        encryption=config.encryption.value,
        counters=(config.counter_org.value if config.uses_counters
                  else None),
        auth=config.auth.value,
        mac_bits=config.mac_bits,
        integrity=config.resolved_integrity.value,
        capabilities=tuple(sorted(
            {cap for spec in specs for cap in spec.provides}
        )),
        components=tuple(
            ComponentInfo(kind=spec.kind, name=spec.name,
                          summary=spec.summary, provides=spec.provides,
                          requires=spec.requires)
            for spec in specs
        ),
    )


def list_schemes() -> list[SchemeInfo]:
    """Every registered scheme, in registration (display) order."""
    from repro.schemes import REGISTRY

    return [describe_scheme(name) for name in REGISTRY.scheme_names()]


@dataclass(frozen=True)
class ExperimentResult(ResultBase):
    """Headline metrics of one simulated design point.

    ``to_dict()`` returns the same fields as a JSON-ready mapping — this is
    what ``python -m repro simulate --json`` prints, so harnesses consume
    these names instead of scraping formatted text.
    """

    scheme: str
    app: str
    refs: int
    ipc: float
    baseline_ipc: float
    normalized_ipc: float
    overhead: float
    cycles: float
    instructions: int
    l2_misses: int
    bus_utilization: float
    #: None when the scheme keeps no counter cache (e.g. baseline, direct)
    counter_cache_hit_rate: float | None
    #: None when the scheme never requested a decryption pad
    timely_pad_rate: float | None
    page_reencryptions: int
    mean_page_reencryption_cycles: float
    full_reencryptions: int
    meta: ResultMeta | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


#: the seed every named generator workload is generated with
_TRACE_SEED = 1234

#: Byte budget of the per-process trace memo.  An entry is 0.9-2.8 MiB at
#: the 60k-reference default (all 24 named workloads: 32.8 MiB), so 48 MiB
#: holds the whole app matrix in one process in any cell order, with room
#: for a few longer traces, while bounding what a long-lived process (a
#: warm sweep runner, a notebook) can pin.  Least recently used entries
#: are evicted first.
TRACE_MEMO_BYTES = 48 << 20


@dataclass
class _MemoEntry:
    name: str
    records: Any                 # read-only TRACE_DTYPE array
    baseline: SimResult          # stats only: memory is None
    classifications: dict        # packed, see repro.sim.batched
    nbytes: int = 0


class _TraceMemo:
    """LRU memo of generator workloads' traces, stats-only baselines and
    the batched engine's packed cache classifications.

    Keyed on (workload name, refs, trace seed, warmup_refs).  It holds
    only read-only NumPy arrays and scalars.  Each hit gets a fresh
    :class:`~repro.workloads.Trace` over the entry's read-only records
    (shared by every hit of the key, never copied and never unpacked
    into per-reference lists), a copy of the classification dict and a
    fresh baseline copy, so nothing a caller mutates reaches the next
    hit.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._entries: OrderedDict[tuple, _MemoEntry] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> tuple[Trace, SimResult] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            classifications = dict(entry.classifications)
        trace = Trace.from_arrays(entry.name, entry.records)
        trace.classifications.update(classifications)
        return trace, replace(entry.baseline)

    def keep(self, key: tuple, trace: Trace, baseline: SimResult) -> None:
        """Store (or refresh) ``key`` from a finished run, then evict least
        recently used entries until the memo fits its budget."""
        # imported here, like the engine itself, so that importing the
        # api does not load the batched engine
        from repro.sim.batched import classification_nbytes

        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                records = trace.arrays()
                records.setflags(write=False)
                entry = _MemoEntry(trace.name, records, replace(baseline),
                                   {})
                self._entries[key] = entry
            self._entries.move_to_end(key)
            entry.classifications.update(trace.classifications)
            entry.nbytes = entry.records.nbytes + sum(
                map(classification_nbytes, entry.classifications.values()))
            total = sum(e.nbytes for e in self._entries.values())
            while total > self.budget:
                total -= self._entries.popitem(last=False)[1].nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_TRACE_MEMO = _TraceMemo(TRACE_MEMO_BYTES)


class Experiment:
    """One secure-memory configuration bound to one workload.

    ``config`` is a :class:`SecureMemoryConfig` or a preset label;
    ``workload`` is a SPEC-like app name (see ``repro.workloads.SPEC_APPS``),
    a scenario-library name (``repro.workloads.SCENARIO_APPS``), a recorded
    trace file (``trace:<path>`` or any ``*.rtrc`` path), or a prebuilt
    trace.  ``run()`` simulates the scheme and the baseline on
    the identical trace and returns an :class:`ExperimentResult`; the raw
    :class:`~repro.sim.SimResult` pair stays on ``.result`` /
    ``.baseline_result`` for deeper inspection.

    ``refs`` must be at least 1 and ``warmup_refs`` (default ``refs //
    3``) in ``[0, refs)``; anything else raises :class:`ValueError` here,
    before any work.

    A generator workload (SPEC or scenario name) without ``baseline=``
    goes through a per-process memo of its trace, baseline and cache
    classifications, keyed on (name, refs, trace seed, warmup_refs), so
    the scheme columns of one app pay only for their own simulation: a
    hit's batched run gathers just the events it drains from the memo's
    arrays and builds no per-reference Python list.  On
    every such run, memo hit or miss, ``baseline_result`` is stats only:
    its ``memory`` is ``None``.  A prebuilt trace, a recorded trace file
    or an explicit ``baseline=`` bypasses the memo, and then
    ``baseline_result.memory`` is the baseline's full memory system.
    """

    def __init__(self, config: SecureMemoryConfig | str,
                 workload: Any = "swim", *, refs: int = 60_000,
                 warmup_refs: int | None = None,
                 baseline: SimResult | None = None,
                 trace: Tracer | str | None = None):
        self.config = get_config(config) if isinstance(config, str) else config
        kind = None
        if isinstance(workload, str):
            kind = workload_kind(workload)  # raises with suggestions
        if refs < 1:
            raise ValueError(f"refs must be >= 1, got {refs}")
        if warmup_refs is None:
            warmup_refs = refs // 3
        elif not 0 <= warmup_refs < refs:
            raise ValueError(
                f"warmup_refs must be in [0, refs) = [0, {refs}), got "
                f"{warmup_refs}")
        self.workload = workload
        self.refs = refs
        self.warmup_refs = warmup_refs
        #: trace memo key; None when the memo is bypassed
        self._memo_key = (
            (workload, refs, _TRACE_SEED, warmup_refs)
            if kind in ("spec", "scenario") and baseline is None else None)
        self.result: SimResult | None = None
        #: pass a prior run's baseline to skip re-simulating it (it must
        #: come from the identical trace for the normalization to be fair)
        self.baseline_result: SimResult | None = baseline
        #: ``trace=`` accepts a :class:`~repro.obs.Tracer` to record into,
        #: or a file path — then a RecordingTracer is created and a Chrome
        #: trace is written there after ``run()``.
        self._trace_out: str | None = None
        if isinstance(trace, str):
            self._trace_out = trace
            trace = RecordingTracer()
        self.tracer: Tracer | None = trace

    def _trace(self):
        if isinstance(self.workload, str):
            return resolve_trace(self.workload, self.refs, seed=_TRACE_SEED)
        return self.workload

    def run(self, *, checkpoint_every: int | None = None,
            checkpoint_path: str | None = None,
            resume_from: str | None = None,
            checkpoint_hook=None) -> ExperimentResult:
        """Simulate the experiment (checkpointing / resuming on request).

        With ``checkpoint_every``/``checkpoint_path``, the run writes one
        rolling checkpoint file every N trace references (atomically —
        partial writes never clobber a good checkpoint).  ``resume_from``
        restores a checkpoint and continues the *same* experiment: the
        saved configuration, workload, reference counts, and trace digest
        must all match, otherwise :class:`repro.resilience.CheckpointError`
        is raised.  A resumed run finishes with statistics bit-identical to
        the uninterrupted run — the baseline is recomputed deterministically
        (or served by the trace memo) either way.

        Every checkpoint argument is validated *up front*: a non-positive
        cadence, a cadence without a path (or vice versa), or a
        ``resume_from`` that is missing, corrupt, or was taken under a
        different configuration/experiment raises :class:`ValueError`
        (:class:`~repro.resilience.CheckpointError` is a subclass) before
        any simulation work starts — never deep inside the run.

        ``checkpoint_hook`` (requires ``checkpoint_path``) is called with
        no arguments after every checkpoint file lands on disk — the
        fabric uses it to renew work leases and drive deterministic chaos
        injection at exact checkpoint boundaries.
        """
        key = self._memo_key
        memo_hit = _TRACE_MEMO.get(key) if key is not None else None
        if memo_hit is not None:
            trace, baseline = memo_hit
        else:
            trace, baseline = self._trace(), self.baseline_result
        checkpointing = (checkpoint_every is not None
                         or checkpoint_path is not None
                         or resume_from is not None)
        resume_payload = None
        if checkpoint_hook is not None and checkpoint_path is None:
            raise ValueError(
                "checkpoint_hook requires checkpoint_path: the hook fires "
                "after each checkpoint write, so there must be one")
        if checkpointing:
            resume_payload = self._validate_checkpoint_args(
                trace, checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path, resume_from=resume_from)
        if baseline is None:
            baseline = simulate(get_config("baseline"), trace,
                                warmup_refs=self.warmup_refs)
            if key is not None:
                baseline = replace(baseline, memory=None)
        if checkpointing:
            result = self._run_checkpointed(
                trace, checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                resume_payload=resume_payload,
                checkpoint_hook=checkpoint_hook)
        else:
            result = simulate(self.config, trace,
                              warmup_refs=self.warmup_refs,
                              tracer=self.tracer)
        if key is not None:
            _TRACE_MEMO.keep(key, trace, baseline)
        self.baseline_result = baseline
        self.result = result
        if self._trace_out is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(self.tracer, self._trace_out)
        memory = result.memory
        # nan, not 0.0, when the baseline is broken — matching
        # NormalizedResult so a bad cell cannot pose as "infinitely slow".
        nipc = (result.ipc / baseline.ipc if baseline.ipc
                else float("nan"))
        counter_cache = memory.counter_cache
        pads = memory.stats.pads
        reenc = memory.stats.reencryption
        return ExperimentResult(
            scheme=self.config.name,
            app=self._app_name(),
            refs=self.refs,
            ipc=result.ipc,
            baseline_ipc=baseline.ipc,
            normalized_ipc=nipc,
            overhead=1.0 - nipc,
            cycles=result.cycles,
            instructions=result.instructions,
            l2_misses=result.l2_misses,
            bus_utilization=memory.bus.utilization(result.cycles),
            counter_cache_hit_rate=(
                counter_cache.stats.hit_rate
                if counter_cache is not None else None
            ),
            timely_pad_rate=(
                pads.timely_rate if pads.pad_requests else None
            ),
            page_reencryptions=reenc.page_reencryptions,
            mean_page_reencryption_cycles=(
                reenc.mean_page_cycles if reenc.page_reencryptions else 0.0
            ),
            full_reencryptions=reenc.full_reencryptions,
            meta=ResultMeta(
                kind="run",
                config_fingerprint=config_fingerprint(self.config),
                preset=self.config.name,
            ),
        )

    def _app_name(self) -> str:
        # trace-file workloads canonicalize to "trace-<fingerprint>" so a
        # checkpoint taken under one path resumes under another (and never
        # resumes against a *different* recording at the same path)
        if isinstance(self.workload, str):
            return canonical_workload_id(self.workload)
        return getattr(self.workload, "name", "custom-trace")

    def _checkpoint_meta(self, trace) -> dict:
        from repro.resilience.checkpoint import trace_digest

        return {
            "app": self._app_name(),
            "refs": self.refs,
            "warmup_refs": self.warmup_refs,
            "trace_sha256": trace_digest(trace),
        }

    def _validate_checkpoint_args(self, trace, *,
                                  checkpoint_every: int | None,
                                  checkpoint_path: str | None,
                                  resume_from: str | None) -> dict | None:
        """Reject bad checkpoint arguments before any simulation runs.

        Returns the loaded, compatibility-checked resume payload (or
        ``None`` without ``resume_from``) so the run itself never touches
        the checkpoint file again.  Raises :class:`ValueError` — or its
        subclass :class:`~repro.resilience.CheckpointError` for a corrupt
        or mismatched checkpoint — *before* the baseline simulation, so a
        typo'd path cannot burn minutes of work first.
        """
        import os

        from repro.resilience.checkpoint import (
            CheckpointError,
            load_checkpoint,
            semantic_config_state,
        )

        if self.tracer is not None:
            raise ValueError(
                "checkpoint/resume does not compose with trace recording — "
                "tracer event streams are not checkpointed; run without "
                "trace=")
        if (checkpoint_every is None) != (checkpoint_path is None):
            raise ValueError(
                "checkpoint_every and checkpoint_path go together: one "
                "names the cadence, the other the rolling checkpoint file")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if resume_from is None:
            return None
        if not os.path.isfile(resume_from):
            raise ValueError(
                f"resume_from checkpoint {resume_from!r} does not exist "
                "(or is not a file)")
        payload = load_checkpoint(resume_from, kind="simulation")
        if (semantic_config_state(payload["config"])
                != semantic_config_state(self.config)):
            raise CheckpointError(
                "checkpoint was taken under a different configuration "
                f"({payload['config'].get('name')!r}); construct the "
                "experiment with the identical config to resume")
        meta = self._checkpoint_meta(trace)
        if payload["meta"] != meta:
            raise CheckpointError(
                "checkpoint is from a different experiment "
                f"(saved {payload['meta']}, resuming {meta})")
        return payload

    def _run_checkpointed(self, trace, *, checkpoint_every: int | None,
                          checkpoint_path: str | None,
                          resume_payload: dict | None,
                          checkpoint_hook=None) -> SimResult:
        from repro.resilience.checkpoint import (
            checkpoint_simulation,
            save_checkpoint,
        )

        meta = self._checkpoint_meta(trace)
        processor = Processor(self.config)
        resume_state = None
        if resume_payload is not None:
            processor.load_state(resume_payload["processor"])
            resume_state = LoopState.from_dict(resume_payload["loop"])
        on_checkpoint = None
        if checkpoint_path is not None:
            def on_checkpoint(loop):
                save_checkpoint(checkpoint_path,
                                checkpoint_simulation(processor, loop,
                                                      meta=meta))
                if checkpoint_hook is not None:
                    checkpoint_hook()
        return processor.run(trace, warmup_refs=self.warmup_refs,
                             resume=resume_state,
                             checkpoint_every=checkpoint_every,
                             on_checkpoint=on_checkpoint)


def run(config: SecureMemoryConfig | str, workload: Any = "swim", *,
        refs: int = 60_000, warmup_refs: int | None = None,
        trace: Tracer | str | None = None,
        checkpoint_every: int | None = None,
        checkpoint_path: str | None = None,
        resume_from: str | None = None) -> ExperimentResult:
    """One-shot: build an :class:`Experiment` and run it.

    ``trace`` takes a :class:`~repro.obs.RecordingTracer` (the caller keeps
    the reference and inspects events/misses afterwards) or a file path (a
    Chrome trace is written there when the run completes).  The checkpoint
    keywords pass through to :meth:`Experiment.run` — write a rolling
    checkpoint every N references and/or resume a previous one.
    """
    return Experiment(config, workload, refs=refs,
                      warmup_refs=warmup_refs, trace=trace).run(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from)


def run_many(cells, **kwargs: Any):
    """Run a sweep of experiments on the crash-tolerant sweep fabric.

    A facade over :func:`repro.resilience.fabric.run_many` (imported
    lazily), which documents every keyword.  ``cells`` is an iterable of
    :class:`repro.resilience.SweepCell` or equivalent dicts; each runs in
    a spawn-isolated worker process with an optional per-attempt
    wall-clock ``timeout`` and crash/timeout ``retries``.  Returns a
    :class:`repro.resilience.SweepReport` whose ``to_dict()`` marks every
    cell ``ok``/``failed``/``timeout``/``skipped``.
    """
    from repro.resilience.fabric import run_many as _run_many

    return _run_many(cells, **kwargs)


@dataclass
class ProfileResult(ResultBase):
    """Outcome of a traced, attribution-checked run."""

    run: ExperimentResult
    attribution: AttributionReport
    tracer: RecordingTracer
    tolerance: float
    trace_path: str | None = None
    csv_path: str | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    meta: ResultMeta | None = None

    @property
    def ok(self) -> bool:
        """Whether every miss's attribution summed within tolerance."""
        return self.attribution.max_residual_fraction <= self.tolerance

    def to_dict(self) -> dict[str, Any]:
        return {
            "run": self.run.to_dict(),
            "attribution": self.attribution.to_dict(),
            "events": len(self.tracer.events),
            "misses": len(self.tracer.misses),
            "tolerance": self.tolerance,
            "ok": self.ok,
            "trace_path": self.trace_path,
            "csv_path": self.csv_path,
            "meta": self.meta_dict(),
        }


def profile(config: SecureMemoryConfig | str, workload: Any = "swim", *,
            refs: int = 60_000, warmup_refs: int | None = None,
            tolerance: float = 0.01, trace_out: str | None = None,
            csv_out: str | None = None) -> ProfileResult:
    """Run one traced experiment and decompose every miss's latency.

    The simulation runs under a strict :class:`~repro.obs.RecordingTracer`
    (each miss's component breakdown is asserted against its observed
    ``auth_done - issue`` as it is recorded), then the per-component
    attribution report is built over all misses.  Optional exports:
    ``trace_out`` (Chrome/Perfetto JSON) and ``csv_out`` (flat CSV).
    """
    from repro.obs.attribution import build_report
    from repro.obs.export import write_chrome_trace, write_csv

    tracer = RecordingTracer(strict=True, tolerance=tolerance)
    experiment = Experiment(config, workload, refs=refs,
                            warmup_refs=warmup_refs, trace=tracer)
    result = experiment.run()
    report = build_report(tracer.misses, tolerance=tolerance)
    if trace_out is not None:
        write_chrome_trace(tracer, trace_out)
    if csv_out is not None:
        write_csv(tracer, csv_out)
    snapshot = experiment.result.memory.metrics.snapshot()
    metrics = {
        name: (None if isinstance(value, float) and math.isnan(value)
               else value)
        for name, value in snapshot.items()
        if isinstance(value, (int, float))
    }
    return ProfileResult(run=result, attribution=report, tracer=tracer,
                         tolerance=tolerance, trace_path=trace_out,
                         csv_path=csv_out, metrics=metrics,
                         meta=ResultMeta(
                             kind="profile",
                             config_fingerprint=config_fingerprint(
                                 experiment.config),
                             preset=experiment.config.name,
                         ))


@dataclass
class BenchResult(ResultBase):
    """Outcome of the perf-regression bench suite.

    ``report`` is the schema-versioned dict ``python -m repro bench --json``
    prints (see :data:`repro.bench.BENCH_SCHEMA`); diff two with
    :func:`repro.bench.compare_reports`.
    """

    report: dict[str, Any]
    meta: ResultMeta | None = None

    @property
    def ok(self) -> bool:
        """True when the report passed its own validation (it always has
        by the time :func:`bench` returns — run_bench validates)."""
        return bool(self.report)

    def to_dict(self) -> dict[str, Any]:
        return {"report": self.report, "meta": self.meta_dict()}


def bench(**kwargs: Any) -> BenchResult:
    """Run the perf-regression bench suite.

    A facade over :func:`repro.bench.run_bench` (imported lazily).  Returns
    a :class:`BenchResult` whose ``report`` holds the schema-versioned
    report dict.
    """
    from repro.bench import run_bench

    report = run_bench(**kwargs)
    return BenchResult(report=report,
                       meta=ResultMeta(kind="bench",
                                       seed=kwargs.get("seed")))


def fuzz(campaigns: int = 20, seed: int = 0, **kwargs: Any):
    """Run the adversarial-memory fault-injection harness.

    A facade over :func:`repro.testing.run_fuzz` (imported lazily so plain
    simulation work never pays for the harness).  Returns a
    :class:`repro.testing.FuzzReport`; ``report.ok`` is the pass/fail
    verdict and ``report.to_dict()`` the JSON the CLI emits.
    """
    from repro.testing import run_fuzz

    report = run_fuzz(campaigns, seed, **kwargs)
    report.meta = ResultMeta(kind="fuzz", seed=seed,
                             preset=",".join(report.presets))
    return report


def loadgen(host: str, port: int, **kwargs: Any):
    """Drive the seeded load generator against a running serve instance.

    A facade over :func:`repro.serve.run_loadgen` (imported lazily so the
    service stack is only paid for when used).  Returns a
    :class:`repro.serve.LoadgenResult` with requests/s and p50/p99 latency.
    """
    from repro.serve import run_loadgen

    return run_loadgen(host, port, **kwargs)
