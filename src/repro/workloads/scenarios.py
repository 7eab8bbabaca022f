"""Scenario library beyond SPEC, plus the unified workload resolver.

Three access patterns the paper's SPEC2k-like generators do not cover,
each with a working set far larger than the 1 MB L2 so every preset's
off-chip machinery (counter caches, Merkle traffic, MAC checks) is
exercised under realistic locality:

* ``db-page-cache`` — an OLTP-ish buffer pool: a 32 MB pool of 4 KB pages
  visited with long intra-page bursts (tuple scans within a pinned page),
  a sequential scan stream (range queries), and a small hot region for
  the index root / latch words.
* ``gc-mark-sweep`` — a phased tracing collector: mutator phases bump-
  allocate sequential writes into a young generation and pointer-chase
  the heap; mark phases random-walk a 24 MB heap with near-zero spatial
  locality (the counter-cache stressor); sweep phases scan the heap
  sequentially with read-modify-write free-list maintenance (the
  write-back re-encryption stressor).
* ``ml-weight-stream`` — inference serving: layer weights streamed
  block-by-block from a 48 MB read-only region (two concurrent layers),
  with a small hot activation buffer written densely between layers.

Scenarios register in :data:`SCENARIOS` and are named exactly like SPEC
apps everywhere (``repro sim --app db-page-cache``, sweeps, fuzz, bench,
serve loadgen).  The resolver at the bottom (:func:`workload_kind`,
:func:`resolve_trace`, :func:`canonical_workload_id`) is the single
place that maps a workload *name* — SPEC app, scenario, or a recorded
``.rtrc`` trace path (``trace:/path/file.rtrc`` or any ``*.rtrc``) — to
a :class:`~repro.workloads.trace.Trace`, so harnesses need zero
per-workload wiring.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable

import numpy as np

from repro.workloads.generators import (
    BLOCK,
    WorkloadProfile,
    generate_trace,
    store_chunk,
)
from repro.workloads.spec2k import PROFILES, SPEC_APPS
from repro.workloads.trace import CHUNK, TRACE_DTYPE, Trace

__all__ = [
    "SCENARIO_APPS",
    "SCENARIOS",
    "canonical_workload_id",
    "is_trace_workload",
    "resolve_trace",
    "scenario_trace",
    "trace_path_of",
    "workload_kind",
    "workload_names",
]

MB = 1024 * 1024

#: buffer-pool scenario: 32 MB of pages, long in-page bursts, scan stream
_DB_PAGE_CACHE = WorkloadProfile(
    name="db-page-cache",
    mean_gap=2.5,
    write_fraction=0.22,          # dirty-page rate of an OLTP mix
    w_hot=0.12,                   # index root + latches
    w_stream=0.18,                # sequential range scans
    w_random=0.0,
    w_pages=0.70,                 # the buffer pool itself
    hot_bytes=16 * 1024,
    stream_bytes=16 * MB,
    stream_stride=BLOCK,          # scans read whole tuples block-at-a-time
    num_streams=2,
    page_pool_pages=8192,         # 32 MB pool ≫ the 1 MB L2
    page_burst=48,                # tuples examined per pinned page
)

#: inference scenario: weights streamed once per layer, hot activations
_ML_WEIGHT_STREAM = WorkloadProfile(
    name="ml-weight-stream",
    mean_gap=1.5,                 # dense FMA loops between loads
    write_fraction=0.04,          # weights are read-only
    w_hot=0.25,                   # activation buffer
    w_stream=0.72,                # the weight stream
    w_random=0.03,                # embedding-table gathers
    w_pages=0.0,
    hot_bytes=256 * 1024,
    hot_write_fraction=0.5,       # activations are written as often as read
    stream_bytes=48 * MB,         # model weights ≫ every cache
    stream_stride=BLOCK,          # each weight block read exactly once/pass
    num_streams=2,                # two layers prefetched concurrently
    random_bytes=8 * MB,
)

#: gc-mark-sweep geometry (module constants so the generator and tests
#: agree on the footprint)
_GC_HEAP_BYTES = 24 * MB
_GC_YOUNG_BYTES = 2 * MB
#: refs per phase within one collection cycle (mutate, mark, sweep)
_GC_PHASES = (("mutate", 2400), ("mark", 1100), ("sweep", 600))
#: per-phase mean non-memory instruction gap
_GC_MEAN_GAP = {"mutate": 2.5, "mark": 1.0, "sweep": 1.2}


def _gc_mark_sweep(num_refs: int, seed: int = 1234) -> Trace:
    """Phased tracing-GC trace; same seeding discipline as generate_trace,
    and filled into its records array a chunk at a time the same way."""
    rng = random.Random(
        (zlib.crc32(b"gc-mark-sweep") & 0xFFFF) ^ seed)
    draw = rng.random
    randrange = rng.randrange
    expovariate = rng.expovariate
    heap_blocks = _GC_HEAP_BYTES // BLOCK
    young_base = _GC_HEAP_BYTES
    young_blocks = _GC_YOUNG_BYTES // BLOCK
    alloc_ptr = 0                   # bump allocator, wraps (survivors copied)
    mark_cursor = randrange(heap_blocks)
    sweep_cursor = 0

    records = np.zeros(num_refs, dtype=TRACE_DTYPE)
    gaps: list[int] = []
    writes: list[bool] = []
    addrs: list[int] = []
    gap_append = gaps.append
    write_append = writes.append
    addr_append = addrs.append
    produced = stored = 0
    while produced < num_refs:
        for phase, length in _GC_PHASES:
            lambd = 1.0 / _GC_MEAN_GAP[phase]
            left = min(length, num_refs - produced)
            produced += left
            while left:
                take = min(left, CHUNK - len(addrs))
                for _ in range(take):
                    if phase == "mutate":
                        if draw() < 0.55:
                            # bump-allocation store into the young
                            # generation
                            addr_append(young_base
                                        + (alloc_ptr % young_blocks) * BLOCK)
                            alloc_ptr += 1
                            write_append(True)
                        else:
                            # mutator field access: pointer-chase into the
                            # heap
                            addr_append(randrange(heap_blocks) * BLOCK)
                            write_append(draw() < 0.10)
                    elif phase == "mark":
                        # tracing walk: each object points somewhere
                        # unrelated
                        mark_cursor = (mark_cursor * 1103515245
                                       + randrange(65536)) % heap_blocks
                        addr_append(mark_cursor * BLOCK)
                        write_append(draw() < 0.04)     # mark-bit flips
                    else:  # sweep: sequential scan, free-list RMW
                        addr_append((sweep_cursor % heap_blocks) * BLOCK)
                        sweep_cursor += 1
                        write_append(draw() < 0.50)
                    gap_append(int(expovariate(lambd)))
                left -= take
                if len(addrs) == CHUNK:
                    stored = store_chunk(records, stored, gaps, writes,
                                         addrs)
    store_chunk(records, stored, gaps, writes, addrs)
    return Trace.from_arrays("gc-mark-sweep", records)


def _profile_scenario(profile: WorkloadProfile
                      ) -> Callable[[int, int], Trace]:
    return lambda num_refs, seed=1234: generate_trace(
        profile, num_refs, seed)


#: scenario name -> factory(num_refs, seed) -> Trace
SCENARIOS: dict[str, Callable[[int, int], Trace]] = {
    "db-page-cache": _profile_scenario(_DB_PAGE_CACHE),
    "gc-mark-sweep": _gc_mark_sweep,
    "ml-weight-stream": _profile_scenario(_ML_WEIGHT_STREAM),
}

SCENARIO_APPS = tuple(sorted(SCENARIOS))


def scenario_trace(name: str, num_refs: int = 120_000,
                   seed: int = 1234) -> Trace:
    """Generate a scenario-library trace (mirrors ``spec_trace``)."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; have {', '.join(SCENARIO_APPS)}"
        ) from None
    return factory(num_refs, seed)


# -- unified workload resolver ------------------------------------------------


def is_trace_workload(name: str) -> bool:
    """True if ``name`` denotes a recorded trace file, not a generator."""
    return name.startswith("trace:") or name.endswith(".rtrc")


def trace_path_of(name: str) -> str:
    """Filesystem path of a trace workload name (strips ``trace:``)."""
    return name[len("trace:"):] if name.startswith("trace:") else name


def workload_kind(name: str) -> str:
    """Classify a workload name: ``"spec"``, ``"scenario"``, ``"trace"``.

    Raises :class:`ValueError` with close-match suggestions for a name
    that is none of the three — the single validation point shared by
    the API, the CLI, and the sweep runner.
    """
    if is_trace_workload(name):
        return "trace"
    if name in PROFILES:
        return "spec"
    if name in SCENARIOS:
        return "scenario"
    import difflib

    known = workload_names()
    close = difflib.get_close_matches(name, known, n=3)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    raise ValueError(
        f"unknown app or workload {name!r}{hint} (SPEC apps and "
        f"scenarios: {', '.join(known)}; or a recorded trace via "
        f"'trace:<path>' / '<path>.rtrc')")


def workload_names() -> tuple[str, ...]:
    """Every nameable generator workload (SPEC apps + scenarios)."""
    return SPEC_APPS + SCENARIO_APPS


def resolve_trace(workload: str, num_refs: int,
                  seed: int = 1234) -> Trace:
    """Materialize any workload name into a :class:`Trace`.

    Generators produce exactly ``num_refs`` references.  A recorded trace
    replays its stored stream: asking for fewer references replays a
    prefix, asking for more than were recorded is an error (a replay must
    never invent references the recording does not contain).
    """
    kind = workload_kind(workload)
    if kind == "trace":
        from repro.workloads.tracefile import load_trace

        trace = load_trace(trace_path_of(workload))
        if num_refs > len(trace):
            raise ValueError(
                f"trace {trace_path_of(workload)!r} holds {len(trace)} "
                f"references but {num_refs} were requested — replay "
                f"cannot extend a recording")
        if num_refs < len(trace):
            return trace.slice(0, num_refs)
        return trace
    if kind == "scenario":
        return SCENARIOS[workload](num_refs, seed)
    return generate_trace(PROFILES[workload], num_refs, seed)


def canonical_workload_id(name: str) -> str:
    """Path-independent identity of a workload name.

    Generator workloads are their own identity.  Trace workloads
    canonicalize to ``trace-<fingerprint>`` (the payload SHA-256 prefix),
    so two sweep cells replaying the same recording — under different
    paths or names — dedupe to one cell, and a *different* recording at a
    reused path never aliases a completed cell.
    """
    if not is_trace_workload(name):
        return name
    from repro.workloads.tracefile import trace_fingerprint

    return f"trace-{trace_fingerprint(trace_path_of(name))}"
