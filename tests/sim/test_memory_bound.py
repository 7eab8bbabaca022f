"""A batched run's memory grows by a bounded number of bytes per reference.

A cold run (trace memo cleared) generates its trace, classifies it and
drains it.  Every O(refs) stream of that run lives in a compact array:
the trace's records and prefix sums and the packed classifications, a
few dozen bytes per reference.  Per-reference and per-event Python
objects are built one chunk at a time (``repro.workloads.trace.CHUNK``),
so their number does not grow with the trace.  The tracemalloc peak of a
cold ``db-page-cache`` run is taken at two lengths, on each drain path;
its slope must stay below :data:`MAX_BYTES_PER_REF`.  Lists that span the
whole trace cost 200-260 bytes per reference, so any one of them comes
back as a failure here.
"""

import gc
import tracemalloc

import pytest

from repro import api
from repro.sim.processor import Processor
from repro.workloads import resolve_trace

APP = "db-page-cache"
SHORT, LONG = 20_000, 80_000
#: bound on the growth of a cold run's traced peak, in bytes per reference
MAX_BYTES_PER_REF = 120


def experiment_run(scheme: str, refs: int) -> None:
    """One cold ``Experiment`` run: trace, baseline and scheme."""
    api._TRACE_MEMO.clear()
    api.Experiment(scheme, APP, refs=refs).run()
    api._TRACE_MEMO.clear()


def checkpointed_run(scheme: str, refs: int) -> None:
    """A run that stops at a checkpoint mid-trace, so its batched engine
    classifies every segment live instead of reading a cached
    classification.  Taking the checkpoint is a callback here: encoding
    one holds the machine state, whose size is not this test's subject."""
    states = []
    Processor(api.get_config(scheme)).run(
        resolve_trace(APP, refs), warmup_refs=refs // 3,
        checkpoint_every=refs // 2 + 1, on_checkpoint=states.append)
    assert len(states) == 1


def traced_peak(run, scheme: str, refs: int) -> int:
    """Traced peak bytes of ``run(scheme, refs)``, after one untraced
    short run has made every lazy import and one-time table."""
    run(scheme, 2_000)
    gc.collect()
    tracemalloc.start()
    try:
        run(scheme, refs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run, scheme", [
    (experiment_run, "mono8b"),     # phase B2: L2 dirty bits precomputed
    (experiment_run, "split"),      # phase B2p: dirty bits live in a shim
    (experiment_run, "split+gcm"),  # Merkle nodes share the L2: live L2
    (checkpointed_run, "split"),    # live L1 kernel, one per segment
], ids=["mono8b-B2", "split-B2p", "split+gcm-live-L2",
        "split-checkpointed-live-L1"])
def test_cold_run_peak_grows_boundedly_per_reference(run, scheme):
    assert Processor(api.get_config(scheme)).resolved_sim_engine() \
        == "batched"
    short = traced_peak(run, scheme, SHORT)
    long = traced_peak(run, scheme, LONG)
    slope = (long - short) / (LONG - SHORT)
    assert slope <= MAX_BYTES_PER_REF, (
        f"{scheme}: the traced peak grows {slope:.0f} B per reference "
        f"({short / 2**20:.2f} MiB at {SHORT} refs, "
        f"{long / 2**20:.2f} MiB at {LONG})")
