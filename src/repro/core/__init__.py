"""The paper's contribution: split counters + GCM auth, tied together.

Every public name resolves lazily (PEP 562), so importing one submodule
loads only what that submodule needs: the service front end reads
:mod:`repro.core.config` without loading the functional memory system, its
crypto kernels, or NumPy.
"""

from __future__ import annotations

import importlib

_SUBMODULE_NAMES = {
    "config": (
        "AuthMode",
        "CounterOrg",
        "EncryptionMode",
        "IntegrityMode",
        "PRESETS",
        "SecureMemoryConfig",
        "baseline_config",
        "direct_config",
        "gcm_auth_config",
        "make_counter_config",
        "mono_config",
        "mono_gcm_config",
        "mono_sha_config",
        "prediction_config",
        "scattered_config",
        "secddr_config",
        "sha_auth_config",
        "split_config",
        "split_gcm_config",
        "split_sha_config",
        "xom_sha_config",
    ),
    "rsr": ("RSR", "RSRFile"),
    "secure_memory": ("SecureMemorySystem", "make_counter_scheme"),
    "stats": ("PadStats", "ReencryptionStats", "SecureMemoryStats"),
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
