"""Observability layer: structured tracing, unified metrics, attribution.

The paper's claims are accounting claims — normalized IPC, timely-pad
rates, the 0.3% re-encryption work ratio, the 5717-cycle mean page
re-encryption — so this package gives the whole stack one way to see
*where* a miss's cycles went:

* :mod:`repro.obs.tracer` — a :class:`Tracer` protocol with a near-zero-
  cost no-op default (:data:`NULL_TRACER`) and a :class:`RecordingTracer`
  that captures typed span/instant events (bus transfers, engine
  occupancy windows, counter hit/half-miss/miss, pad timeliness, Merkle
  level fetch+verify, RSR re-encryption) stamped in simulated cycles.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` unifying the ad-hoc
  stats dataclasses behind named counters/gauges/histograms with a single
  ``snapshot()``/``reset()``; ``reset_fields`` derives reset behaviour
  from ``dataclasses.fields()`` so newly added counters can never drift.
* :mod:`repro.obs.attribution` — per-miss critical-path decomposition of
  ``auth_done - issue`` into bus/DRAM/AES/GHASH/SHA/tree-walk/stall
  components that provably sum to the observed latency.
* :mod:`repro.obs.export` — Chrome-trace (Perfetto-loadable) JSON and
  flat-CSV exporters, wired into ``python -m repro profile`` and
  ``repro.api.run(trace=...)``.

Every public name resolves lazily (PEP 562), so importing one submodule
loads only what that submodule needs: the timing model reads the tracer,
the metrics and the attribution records without loading the exporters.
"""

from __future__ import annotations

import importlib

_SUBMODULE_NAMES = {
    "attribution": (
        "ATTRIBUTION_COMPONENTS",
        "AttributionError",
        "AttributionReport",
        "MissRecord",
        "PathTime",
        "build_report",
    ),
    "export": ("to_chrome_trace", "to_csv", "write_chrome_trace", "write_csv"),
    "metrics": (
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "reset_fields",
    ),
    "tracer": (
        "NULL_TRACER",
        "NullTracer",
        "RecordingTracer",
        "TraceEvent",
        "Tracer",
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
