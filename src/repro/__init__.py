"""repro — split-counter memory encryption and GCM authentication.

A from-scratch reproduction of Yan, Rogers, Englender, Solihin, Prvulovic,
"Improving Cost, Performance, and Security of Memory Encryption and
Authentication" (ISCA 2006).

Layers:

* :mod:`repro.crypto` — functional AES-128, GCM/GHASH, SHA-1 primitives.
* :mod:`repro.memory` — caches, DRAM, and the processor-memory bus.
* :mod:`repro.counters` — split / monolithic / global / predicted counters.
* :mod:`repro.auth` — MAC schemes, the Merkle tree, strictness policies.
* :mod:`repro.core` — the secure memory controller (functional layer).
* :mod:`repro.engines` — crypto-engine timing models.
* :mod:`repro.sim` — the trace-driven timing simulator (IPC results).
* :mod:`repro.workloads` — SPEC CPU 2000-like synthetic traces.
* :mod:`repro.attacks` — hardware-attack injectors and detection checks.
* :mod:`repro.analysis` — table/series formatting for the benchmarks.

Quick start::

    from repro import api

    result = api.run("split+gcm", "mcf", refs=40_000)
    print(result.normalized_ipc)

    from repro import SecureMemorySystem

    memory = SecureMemorySystem(api.get_config("split+gcm"),
                                protected_bytes=1 << 20)
    memory.write(0x1000, b"secret payload")
    assert memory.read(0x1000, 14) == b"secret payload"
"""

from __future__ import annotations

import importlib

#: re-exports resolved on first use (PEP 562): ``import repro`` alone
#: loads no submodule, so a process that needs only a light one — a
#: sweep fabric worker importing the queue protocol — skips the
#: simulator and NumPy
_CORE_NAMES = frozenset({
    "AuthMode",
    "CounterOrg",
    "EncryptionMode",
    "PRESETS",
    "SecureMemoryConfig",
    "SecureMemorySystem",
    "baseline_config",
    "direct_config",
    "gcm_auth_config",
    "mono_config",
    "mono_gcm_config",
    "mono_sha_config",
    "prediction_config",
    "sha_auth_config",
    "split_config",
    "split_gcm_config",
    "split_sha_config",
    "xom_sha_config",
})

_AUTH_NAMES = frozenset({"AuthPolicy", "IntegrityViolation"})

__version__ = "1.0.0"

__all__ = sorted({"__version__", "api", *_CORE_NAMES, *_AUTH_NAMES})


def __getattr__(name: str):
    # importlib, not ``from repro import api``: that form probes this
    # module's attributes first and would recurse into this hook
    if name == "api":
        return importlib.import_module("repro.api")
    if name in _CORE_NAMES:
        return getattr(importlib.import_module("repro.core"), name)
    if name in _AUTH_NAMES:
        return getattr(importlib.import_module("repro.auth"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
