"""SPEC CPU 2000-like synthetic workloads for the timing simulator.

Every public name resolves lazily (PEP 562), so importing one submodule
loads only what that submodule needs: a simulation reads the generators
and the in-memory :class:`Trace` without loading the ``.rtrc`` file
container, which only a recorded-trace workload needs.
"""

from __future__ import annotations

import importlib

_SUBMODULE_NAMES = {
    "generators": ("WorkloadProfile", "generate_trace"),
    "scenarios": (
        "SCENARIO_APPS",
        "SCENARIOS",
        "canonical_workload_id",
        "is_trace_workload",
        "resolve_trace",
        "scenario_trace",
        "trace_path_of",
        "workload_kind",
        "workload_names",
    ),
    "spec2k": (
        "FAST_COUNTER_APPS",
        "MEMORY_BOUND",
        "PROFILES",
        "SPEC_APPS",
        "profile_for",
        "spec_trace",
    ),
    "trace": ("Trace",),
    "tracefile": (
        "TraceFileError",
        "TraceWriter",
        "load_trace",
        "read_header",
        "trace_fingerprint",
        "write_trace",
    ),
}
_MODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
