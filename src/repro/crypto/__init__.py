"""Functional cryptography substrate, all implemented from scratch.

Contents:

* :mod:`repro.crypto.aes` — AES-128 (FIPS-197)
* :mod:`repro.crypto.gf128` / :mod:`repro.crypto.ghash` — GF(2^128) and GHASH
* :mod:`repro.crypto.gcm` — AES-GCM AEAD (SP 800-38D)
* :mod:`repro.crypto.sha1` — SHA-1 and HMAC-SHA1
* :mod:`repro.crypto.ctr` — counter-mode seeds and pads for memory encryption
* :mod:`repro.crypto.mac` — per-block authentication codes (GCM and SHA)
* :mod:`repro.crypto.vector` — NumPy batch kernels

The batch size picks the kernel of every bulk operation: the vector kernel
from a measured size up, the table kernel below it.  No configuration
names a kernel.

Every public name resolves lazily (PEP 562), so importing one submodule
loads only what that submodule needs: the configuration layer reads
:data:`VALID_MAC_BITS`, defined here, without loading any submodule.
"""

from __future__ import annotations

import importlib

#: per-block MAC widths, in bits, that :mod:`repro.crypto.mac` supports
VALID_MAC_BITS = (32, 64, 128)

_SUBMODULE_NAMES = {
    "aes": ("AES128", "decrypt_blocks", "encrypt_blocks"),
    "ctr": ("AUTHENTICATION_IV", "CHUNK_SIZE", "ENCRYPTION_IV",
            "bulk_ctr_transform", "bulk_ctr_transform_scalar",
            "bulk_ctr_transform_table", "ctr_transform", "generate_pads",
            "make_seed", "make_seeds", "xor_bytes"),
    "gcm": ("AESGCM", "AuthenticationError", "constant_time_equal"),
    "gf128": ("GF128Element", "GF128Table", "gf128_mul"),
    "ghash": ("GHASH", "ghash", "ghash_chunks", "ghash_chunks_scalar",
              "ghash_of"),
    "mac": ("gcm_block_mac", "gcm_block_macs", "gcm_block_macs_scalar",
            "gcm_block_macs_table", "macs_per_block", "sha_block_mac"),
    "sha1": ("hmac_sha1", "sha1"),
    "vector": ("VECTOR_MIN_BLOCKS", "VECTOR_MIN_CTR_BLOCKS",
               "VECTOR_MIN_MAC_BLOCKS", "VectorAES128", "VectorGHASH",
               "bulk_ctr_transform_vector", "decrypt_blocks_kernel",
               "encrypt_blocks_kernel", "gcm_block_macs_vector",
               "ghash_chunks_many", "make_seeds_array"),
}
_MODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items()
              for name in names}

__all__ = sorted({"VALID_MAC_BITS", *_MODULE_OF})


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
