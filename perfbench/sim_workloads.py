"""The ``cells`` and ``sweep`` workloads: simulator cells in-process and
through the supervised sweep executor.

Both draw fig. 4 + fig. 9 cells (11 schemes) over a few apps that span
L2 miss rate.  The seed picks the cell order and the app order; the
traces themselves are the program's fixed per-(app, refs) generators, so
every cell's simulated statistics are deterministic and are checked for
exact equality against ``expected.json`` (made by ``make_expected.py``
with the scalar oracle engine).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass

from common import (
    WORK,
    BusyHostSpeed,
    HostSpeed,
    import_probe_s,
    median,
    nproc,
    percentile,
    timing_metrics,
)
from spans import SpanRecorder, residual_frac, self_times, write_chrome_trace

#: the fig. 4 encryption and fig. 9 authentication schemes
SCHEMES = (
    "split", "mono8b", "mono16b", "mono32b", "mono64b", "direct",
    "split+gcm", "mono+gcm", "split+sha", "mono+sha", "xom+sha",
)
#: compute-bound, streaming, pointer-chasing, and a working set far
#: beyond the 1 MB L2
APPS = ("gcc", "swim", "mcf", "db-page-cache")
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


@dataclass(frozen=True)
class SimPlan:
    """Which cells a sim workload may pick, and how long each is."""

    schemes: tuple[str, ...] = SCHEMES
    apps: tuple[str, ...] = APPS
    refs: int = 30_000


CELLS_PLAN = SimPlan()
#: the SweepCell default length
SWEEP_PLAN = SimPlan(refs=20_000)
SWEEP_SCHEMES_PER_BATCH = 3


# -- inputs -------------------------------------------------------------------


def cell_passes(seed: int, plan: SimPlan):
    """Endless passes, each a seeded shuffle of the whole scheme x app
    matrix.  Runs end on a pass boundary, so every run holds each cell
    equally often and the seed changes only the order."""
    rng = random.Random(f"cells:{seed}")
    matrix = [(scheme, app) for scheme in plan.schemes for app in plan.apps]
    while True:
        rng.shuffle(matrix)
        yield list(matrix)


def sweep_batches(seed: int, plan: SimPlan):
    """Endless sweep batches, each a sub-matrix of every app under the
    next ``SWEEP_SCHEMES_PER_BATCH`` schemes of a seeded scheme order,
    cells shuffled.  Every batch holds each app equally often, so batch
    cost does not depend on which apps the seed happened to pick."""
    from repro.resilience import SweepCell

    rng = random.Random(f"sweep:{seed}")
    order: list[str] = []
    while True:
        while len(order) < SWEEP_SCHEMES_PER_BATCH:
            schemes = list(plan.schemes)
            rng.shuffle(schemes)
            order.extend(schemes)
        picked, order = (order[:SWEEP_SCHEMES_PER_BATCH],
                         order[SWEEP_SCHEMES_PER_BATCH:])
        cells = [SweepCell(scheme, app, refs=plan.refs)
                 for scheme in picked for app in plan.apps]
        rng.shuffle(cells)
        yield cells


# -- output checks ------------------------------------------------------------


def cell_key(scheme: str, app: str, refs: int) -> str:
    return f"{scheme}|{app}|{refs}"


def expected_row(result) -> dict:
    """The simulated statistics a cell is checked on."""
    if not isinstance(result, dict):
        result = result.to_dict()
    return {"cycles": result["cycles"],
            "normalized_ipc": result["normalized_ipc"],
            "l2_misses": result["l2_misses"]}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def matches(expected: dict, scheme: str, app: str, refs: int,
            result) -> bool:
    """Exact equality with the oracle table (simulation is deterministic)."""
    want = expected.get(cell_key(scheme, app, refs))
    return want is not None and expected_row(result) == want


# -- the sim-layer wrappers of the traced run ---------------------------------


class SimProbe:
    """Spans around the public entry points a cell goes through, plus the
    keys needed for the wasted-work ratios."""

    def __init__(self, rec: SpanRecorder):
        import repro.api as api_mod
        import repro.sim.processor as processor_mod
        from repro.core.config import AuthMode

        self.traces: list[tuple] = []
        self.baselines: list[tuple] = []

        def trace_span(workload, num_refs, *args, **kwargs):
            self.traces.append((workload, num_refs,
                                kwargs.get("seed", args[0] if args else None)))
            return "workloads.trace"

        def sim_span(config, trace, *_args, **_kwargs):
            if config.name == "baseline":
                self.baselines.append((trace.name, len(trace)))
                return "sim.baseline"
            return ("sim.scheme.auth" if config.auth is not AuthMode.NONE
                    else "sim.scheme.enc")

        rec.wrap(api_mod.Experiment, "run", "api.run")
        rec.wrap(api_mod, "resolve_trace", trace_span)
        rec.wrap(api_mod, "simulate", sim_span)
        rec.wrap(processor_mod.Processor, "__init__", "sim.build")

    @staticmethod
    def _ratio(keys: list) -> float:
        return len(set(keys)) / len(keys) if keys else 0.0

    def layer_metrics(self, rec: SpanRecorder, own: list[int],
                      l2_misses: int) -> dict:
        def self_ms(name: str) -> float:
            return median(o for n, o in zip(rec.names, own)
                          if n == name) / 1e6

        scheme_ns = sum(o for n, o in zip(rec.names, own)
                        if n.startswith("sim.scheme."))
        return {
            "workloads.trace_ms": median(
                d / 1e6 for d in rec.durations_ns("workloads.trace")),
            "workloads.unique_trace_ratio": self._ratio(self.traces),
            "sim.build_ms": self_ms("sim.build"),
            "sim.baseline_ms": self_ms("sim.baseline"),
            "sim.unique_baseline_ratio": self._ratio(self.baselines),
            "sim.scheme_ms.enc": self_ms("sim.scheme.enc"),
            "sim.scheme_ms.auth": self_ms("sim.scheme.auth"),
            "sim.host_us_per_l2_miss": (scheme_ns / 1e3 / l2_misses
                                        if l2_misses else 0.0),
            "sim.l2_misses": float(l2_misses),
            "api.self_ms": self_ms("api.run"),
        }


# -- cells --------------------------------------------------------------------


def _run_cell(scheme: str, app: str, refs: int):
    from repro import api

    return api.Experiment(scheme, app, refs=refs).run()


def run_cells(seed: int, seconds: float) -> dict:
    """Closed loop of in-process ``Experiment.run`` calls: whole passes
    until ``seconds`` have gone by."""
    plan, host = CELLS_PLAN, HostSpeed()
    setup_start = time.perf_counter()
    expected = load_expected()
    passes = cell_passes(seed, plan)
    setup_s = time.perf_counter() - setup_start + import_probe_s()
    latencies, failed = [], 0
    host.sample()
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        for scheme, app in next(passes):
            began = time.perf_counter()
            # a full collection of the previous cell's garbage is part of
            # this cell's time; it keeps old-generation collections from
            # landing in random cells
            gc.collect()
            try:
                result = _run_cell(scheme, app, plan.refs)
            except Exception:  # noqa: BLE001 — a failed cell is a measurement
                result = None
            latencies.append(host.bracket(time.perf_counter() - began))
            failed += result is None or not matches(
                expected, scheme, app, plan.refs, result)
    return {"attempted": len(latencies), "failed": failed,
            "metrics": timing_metrics(
                setup_s, percentile(latencies, 0.5),
                percentile(latencies, 0.9), len(latencies) / sum(latencies),
                host=host)}


def trace_cells(seed: int, trace_out: str | None = None) -> dict:
    """One seeded pass over the whole matrix untraced, then the same pass
    traced; per-layer metrics come from the traced pass."""
    from repro import api

    plan, expected = CELLS_PLAN, load_expected()
    cells = next(cell_passes(seed, plan))
    started = time.perf_counter()
    for scheme, app in cells:
        _run_cell(scheme, app, plan.refs)
    untraced = time.perf_counter() - started

    rec = SpanRecorder()
    probe = SimProbe(rec)
    failed = l2_misses = 0
    try:
        root = rec.begin("cells")
        for scheme, app in cells:
            try:
                result = api.Experiment(scheme, app, refs=plan.refs).run()
            except Exception:  # noqa: BLE001 — a failed cell is a measurement
                failed += 1
                continue
            with rec.span("bench.check"):
                l2_misses += result.l2_misses
                failed += not matches(expected, scheme, app, plan.refs,
                                      result)
        rec.end(root)
    finally:
        rec.restore()
    own = self_times(rec)
    traced = (rec.ends[root] - rec.starts[root]) / 1e9
    metrics = probe.layer_metrics(rec, own, l2_misses)
    metrics["residual_frac"] = residual_frac(rec)
    metrics["trace_overhead_frac"] = traced / untraced - 1.0
    if trace_out is not None:
        write_chrome_trace(rec, trace_out)
    return {"attempted": len(cells), "failed": failed, "layers": metrics}


# -- sweep --------------------------------------------------------------------


def _import_api() -> None:
    import repro.api  # noqa: F401 — the import is what is timed


def spawn_import_ms(trials: int = 3) -> float:
    """Median wall time to spawn a child that imports ``repro.api`` and
    exits — the fixed cost the executor pays per cell attempt."""
    context = multiprocessing.get_context("spawn")
    times = []
    for _ in range(trials):
        started = time.perf_counter()
        child = context.Process(target=_import_api)
        child.start()
        child.join()
        times.append((time.perf_counter() - started) * 1e3)
    return median(times)


def _sweep_once(cells, expected: dict) -> tuple[float, list, int]:
    """One ``run_many`` over a private queue; (wall, cell results, failed)."""
    from repro import api

    os.makedirs(WORK, exist_ok=True)
    queue = tempfile.mkdtemp(prefix="queue-", dir=WORK)
    try:
        started = time.perf_counter()
        report = api.run_many(cells, parallelism=nproc(), queue_dir=queue)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(queue, ignore_errors=True)
    failed = sum(
        1 for cell in report.cells
        if cell.status != "ok" or not matches(
            expected, cell.cell.scheme, cell.cell.app, cell.cell.refs,
            cell.result))
    return wall, report.cells, failed


def run_sweep(seed: int, seconds: float) -> dict:
    """Closed loop of fabric sweeps (parallelism = nproc): whole batches
    until ``seconds`` of sweeping have gone by.  Each batch's cell times
    are divided, and its rate multiplied, by the host slowdown sampled
    while that batch ran."""
    setup_start = time.perf_counter()
    expected = load_expected()
    batches = sweep_batches(seed, SWEEP_PLAN)
    setup_s = time.perf_counter() - setup_start + import_probe_s()
    latencies, rates, failed, wall = [], [], 0, 0.0
    host = HostSpeed()
    while not latencies or wall < seconds:
        with BusyHostSpeed() as busy:
            batch_wall, results, batch_failed = _sweep_once(next(batches),
                                                            expected)
        wall += batch_wall
        failed += batch_failed
        host.samples.extend(busy.samples)
        rates.append(len(results) / batch_wall * busy.slowdown)
        latencies.extend(cell.elapsed / busy.slowdown for cell in results)
    return {"attempted": len(latencies), "failed": failed,
            "metrics": timing_metrics(
                setup_s, percentile(latencies, 0.5),
                percentile(latencies, 0.9), median(rates), host=host,
                rss_children=True)}


def trace_sweep(seed: int, trace_out: str | None = None) -> dict:
    """The seed's first batch untraced, then traced, then the same cells
    in-process for their compute time, then the spawn/import probe."""
    import repro.api as api_mod

    expected = load_expected()
    cells = next(sweep_batches(seed, SWEEP_PLAN))
    untraced, _results, failed = _sweep_once(cells, expected)

    rec = SpanRecorder()
    try:
        rec.wrap(api_mod, "run_many", "resilience.run_many")
        root = rec.begin("sweep")
        _wall, results, traced_failed = _sweep_once(cells, expected)
        failed += traced_failed
        rec.end(root)
        probe = SimProbe(rec)
        l2_misses = 0
        compute_root = rec.begin("sweep.compute")
        for cell in cells:
            result = api_mod.Experiment(cell.scheme, cell.app,
                                        refs=cell.refs).run()
            with rec.span("bench.check"):
                l2_misses += result.l2_misses
                failed += not matches(expected, cell.scheme, cell.app,
                                      cell.refs, result)
        rec.end(compute_root)
    finally:
        rec.restore()
    own = self_times(rec)
    sweep_wall = rec.durations_ns("resilience.run_many")[0] / 1e9
    compute = [d / 1e9 for d in rec.durations_ns("api.run")]
    metrics = probe.layer_metrics(rec, own, l2_misses)
    metrics.update({
        "resilience.spawn_import_ms": spawn_import_ms(),
        "resilience.cell_elapsed_ms": median(
            cell.elapsed * 1e3 for cell in results),
        "resilience.cell_compute_ms": median(c * 1e3 for c in compute),
        "resilience.overhead_frac": 1.0 - sum(compute) / (sweep_wall
                                                          * nproc()),
        "resilience.attempts_per_cell": (
            sum(cell.attempts for cell in results) / len(results)),
        "residual_frac": residual_frac(rec),
        "trace_overhead_frac": sweep_wall / untraced - 1.0,
    })
    if trace_out is not None:
        write_chrome_trace(rec, trace_out)
    return {"attempted": 3 * len(cells), "failed": failed,
            "layers": metrics}
