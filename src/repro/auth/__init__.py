"""Memory authentication: MAC schemes, Merkle tree, and strictness policies.

One integrity tree serves every authenticated configuration:
:class:`MerkleTree` keeps the MACs of its top level on chip, so the
paper's tree (:func:`build_geometry`, one root MAC) and SecDDR's flat
MAC-of-MACs (:func:`~repro.auth.codes.build_flat_geometry`, one on-chip
MAC per level-1 group) differ only in geometry.

Every public name resolves lazily (PEP 562), so importing one submodule
loads only what that submodule needs: the configuration layer reads
:class:`AuthPolicy`, and the recovery policies name
:class:`IntegrityViolation`, without loading the Merkle tree or the MAC
kernels.
"""

from __future__ import annotations

import importlib

_SUBMODULE_NAMES = {
    "codes": ("TreeGeometry", "build_geometry", "merkle_levels_for_memory"),
    "errors": ("IntegrityViolation",),
    "merkle": ("MerkleStats", "MerkleTree"),
    "policies": ("COMMIT_HIDE_CYCLES", "AuthPolicy", "exposed_auth_latency"),
    "schemes": ("GCMMACScheme", "MACScheme", "SHAMACScheme"),
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
