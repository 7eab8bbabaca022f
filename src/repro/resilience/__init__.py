"""Fault tolerance for the secure-memory runtime.

Four modules, importable from this package:

* :mod:`repro.resilience.recovery` — integrity-violation recovery
  (retry with backoff, transient/persistent classification, halt /
  quarantine / degrade policies);
* :mod:`repro.resilience.checkpoint` — versioned, integrity-summed
  serialization of full machine state for deterministic resume;
* :mod:`repro.resilience.runner` — the sweep data model (cells,
  per-cell verdicts, reports);
* :mod:`repro.resilience.fabric` — the sweep executor, ``run_many``: a
  crash-tolerant filesystem work-stealing queue (spawn-isolated
  workers, lease heartbeats, timeouts and retries, per-cell checkpoint
  resume, append-only result streaming, partial reports).

Every public name resolves lazily (PEP 562), so importing one submodule
loads only what that submodule needs.  ``recovery`` imports the core
config and the Merkle tree; a sweep fabric worker, which needs only the
queue protocol of ``fabric`` and ``runner``, never loads them.
"""

from __future__ import annotations

#: default mid-cell checkpoint cadence of a sweep cell, in trace refs
#: (``checkpoint_refs`` of ``run_many`` and ``FabricSettings``;
#: ``repro sweep --checkpoint-refs``).  A snapshot grows with the
#: simulated footprint, from 4-8 ms on gcc/split to 0.5-0.9 s for a
#: 1.3 MB db-page-cache/mono+sha blob, and a checkpointed run loses the
#: batched engine's cached classification: a 20k-ref cell checkpointed
#: every 2000 refs took 92 ms against 35 ms unchecked (medians;
#: EXPERIMENTS.md, "Checkpoint cadence").  At 250k refs no cell of the
#: 20k-ref sweep default or the 80k-ref figure traces checkpoints, while
#: a paper-scale cell still does, and a killed one reruns at most one
#: interval: 1.8-3.4 s on the slowest measured cell.
CHECKPOINT_REFS = 250_000

_RECOVERY_NAMES = frozenset({
    "QuarantinedPageError",
    "RecoveryConfig",
    "RecoveryController",
    "RecoveryEvent",
    "RecoveryHalted",
    "RecoveryPolicy",
    "RecoveryStats",
    "backoff_delay",
})

_CHECKPOINT_NAMES = frozenset({
    "CHECKPOINT_MAGIC",
    "CheckpointError",
    "atomic_write_bytes",
    "atomic_write_json",
    "checkpoint_simulation",
    "checkpoint_system",
    "config_from_state",
    "config_state",
    "dumps",
    "load_checkpoint",
    "load_simulation",
    "loads",
    "restore_system",
    "save_checkpoint",
    "semantic_config_state",
    "trace_digest",
})

_RUNNER_NAMES = frozenset({
    "CellResult",
    "SWEEP_SCHEMA",
    "SweepCell",
    "SweepReport",
    "load_sweep_report",
    "parse_inject",
})

_FABRIC_NAMES = frozenset({
    "FabricSettings",
    "FabricStats",
    "MANIFEST_SCHEMA",
    "QueuePaths",
    "cell_id",
    "init_queue",
    "lease_is_stale",
    "load_manifest",
    "read_events",
    "run_many",
})

__all__ = [
    "CHECKPOINT_REFS",
    *sorted(_RECOVERY_NAMES),
    *sorted(_CHECKPOINT_NAMES),
    *sorted(_RUNNER_NAMES),
    *sorted(_FABRIC_NAMES),
]


def __getattr__(name: str):
    if name in _RECOVERY_NAMES:
        from repro.resilience import recovery
        return getattr(recovery, name)
    if name in _CHECKPOINT_NAMES:
        from repro.resilience import checkpoint
        return getattr(checkpoint, name)
    if name in _RUNNER_NAMES:
        from repro.resilience import runner
        return getattr(runner, name)
    if name in _FABRIC_NAMES:
        from repro.resilience import fabric
        return getattr(fabric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
