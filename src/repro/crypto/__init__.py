"""Functional cryptography substrate, all implemented from scratch.

Contents:

* :mod:`repro.crypto.aes` — AES-128 (FIPS-197)
* :mod:`repro.crypto.gf128` / :mod:`repro.crypto.ghash` — GF(2^128) and GHASH
* :mod:`repro.crypto.gcm` — AES-GCM AEAD (SP 800-38D)
* :mod:`repro.crypto.sha1` — SHA-1 and HMAC-SHA1
* :mod:`repro.crypto.ctr` — counter-mode seeds and pads for memory encryption
* :mod:`repro.crypto.mac` — per-block authentication codes (GCM and SHA)
"""

from repro.crypto.aes import AES128, decrypt_blocks, encrypt_blocks
from repro.crypto.ctr import (
    AUTHENTICATION_IV,
    CHUNK_SIZE,
    ENCRYPTION_IV,
    bulk_ctr_transform,
    ctr_transform,
    generate_pads,
    make_seed,
    make_seeds,
    xor_bytes,
)
from repro.crypto.gcm import AESGCM, AuthenticationError, constant_time_equal
from repro.crypto.gf128 import GF128Element, GF128Table, gf128_mul
from repro.crypto.ghash import GHASH, ghash, ghash_chunks
from repro.crypto.mac import (
    gcm_block_mac,
    gcm_block_macs,
    macs_per_block,
    sha_block_mac,
)
from repro.crypto.sha1 import hmac_sha1, sha1
from repro.crypto.vector import (
    KERNELS,
    VECTOR_MIN_BLOCKS,
    VectorAES128,
    VectorGHASH,
    bulk_ctr_transform_vector,
    decrypt_blocks_kernel,
    encrypt_blocks_kernel,
    gcm_block_macs_vector,
    ghash_chunks_kernel,
    ghash_chunks_many,
    make_seeds_array,
    resolve_kernel,
    vector_aes,
    vector_ghash,
)

__all__ = [
    "AES128",
    "AESGCM",
    "AuthenticationError",
    "AUTHENTICATION_IV",
    "CHUNK_SIZE",
    "ENCRYPTION_IV",
    "GF128Element",
    "GF128Table",
    "GHASH",
    "KERNELS",
    "VECTOR_MIN_BLOCKS",
    "VectorAES128",
    "VectorGHASH",
    "bulk_ctr_transform",
    "bulk_ctr_transform_vector",
    "constant_time_equal",
    "ctr_transform",
    "decrypt_blocks",
    "decrypt_blocks_kernel",
    "encrypt_blocks",
    "encrypt_blocks_kernel",
    "generate_pads",
    "gf128_mul",
    "ghash",
    "ghash_chunks",
    "ghash_chunks_kernel",
    "ghash_chunks_many",
    "gcm_block_mac",
    "gcm_block_macs",
    "gcm_block_macs_vector",
    "hmac_sha1",
    "macs_per_block",
    "make_seed",
    "make_seeds",
    "make_seeds_array",
    "resolve_kernel",
    "sha1",
    "sha_block_mac",
    "vector_aes",
    "vector_ghash",
    "xor_bytes",
]
