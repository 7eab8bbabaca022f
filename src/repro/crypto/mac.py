"""Authentication-code helpers: block MAC construction and truncation.

The paper's Merkle tree stores authentication codes of configurable size
(128, 64, or 32 bits; 64 is the default).  Two MAC constructions coexist:

* **GCM MAC** — GHASH over the ciphertext chunks of the protected block,
  XORed with an AES *authentication pad* generated from the block address,
  its counter, and the authentication IV.  Because the pad computation needs
  only the address and counter (both known at miss time), it overlaps with
  the memory fetch; the GHASH chain runs as ciphertext chunks arrive.

* **SHA MAC** — HMAC-SHA1 over (address || counter || ciphertext), the
  construction used by the prior-work baselines (XOM-style and Merkle/SHA
  designs).  Its full latency lands after the data arrives.

Both are truncated to the configured MAC size, which sets the Merkle-tree
arity: a 64-byte code block holds 64/mac_bytes child codes.

:func:`gcm_block_macs` computes many GCM codes at once, and the batch size
picks its kernel: the NumPy vector kernel from ``VECTOR_MIN_MAC_BLOCKS``
blocks up, the table kernel below.  :func:`gcm_block_macs_table` and
:func:`gcm_block_macs_scalar` run the table kernel and the scalar
FIPS-197 / SP 800-38D reference at any size, for the differential checks
and ``repro bench``.  All three are byte-identical.
"""

from __future__ import annotations

from repro.crypto import VALID_MAC_BITS
from repro.crypto.aes import AES128
from repro.crypto.ctr import AUTHENTICATION_IV, CHUNK_SIZE, make_seed, xor_bytes
from repro.crypto.ghash import GHASH, ghash_chunks_scalar, ghash_of
from repro.crypto.sha1 import hmac_sha1


def _split_chunks(data: bytes) -> list[bytes]:
    if len(data) % CHUNK_SIZE:
        raise ValueError("MAC input must be whole 16-byte chunks")
    return [data[i : i + CHUNK_SIZE] for i in range(0, len(data), CHUNK_SIZE)]


def gcm_block_mac(aes: AES128, ghash_key: bytes | GHASH, block_address: int,
                  counter: int, ciphertext: bytes, mac_bits: int = 64) -> bytes:
    """Compute the (truncated) GCM authentication code for one block.

    ``ghash_key`` is the hash subkey, or the :class:`GHASH` object that
    keeps its table (a raw subkey builds one for this call only).
    """
    if mac_bits not in VALID_MAC_BITS:
        raise ValueError(f"mac_bits must be one of {VALID_MAC_BITS}")
    digest = ghash_of(ghash_key).hash_chunks(_split_chunks(ciphertext))
    auth_pad = aes.encrypt_block(
        make_seed(block_address, counter, AUTHENTICATION_IV)
    )
    return xor_bytes(digest, auth_pad)[: mac_bits // 8]


def gcm_block_macs(aes: AES128, ghash_key: bytes | GHASH,
                   items: list[tuple[int, int, bytes]],
                   mac_bits: int = 64) -> list[bytes]:
    """Compute GCM codes for many blocks, batched through one kernel.

    ``items`` is ``(block_address, counter, ciphertext)`` triples; results
    preserve order and are byte-identical to :func:`gcm_block_mac` per
    item.  The batch size picks the kernel: from ``VECTOR_MIN_MAC_BLOCKS``
    blocks on, the vector kernel hashes all same-length ciphertexts in one
    GHASH chain and generates all authentication pads in one AES batch —
    the bulk path behind Merkle ``verify_leaves``; smaller batches run
    :func:`gcm_block_macs_table`.
    """
    if mac_bits not in VALID_MAC_BITS:
        raise ValueError(f"mac_bits must be one of {VALID_MAC_BITS}")
    from repro.crypto import vector as _vector

    if len(items) >= _vector.VECTOR_MIN_MAC_BLOCKS:
        return _vector.gcm_block_macs_vector(aes, ghash_key, items, mac_bits)
    return gcm_block_macs_table(aes, ghash_key, items, mac_bits)


def gcm_block_macs_table(aes: AES128, ghash_key: bytes | GHASH,
                         items: list[tuple[int, int, bytes]],
                         mac_bits: int = 64) -> list[bytes]:
    """:func:`gcm_block_macs` on the table AES and GHASH kernels."""
    ghash = ghash_of(ghash_key)
    return [
        gcm_block_mac(aes, ghash, block_address, counter, ciphertext,
                      mac_bits)
        for block_address, counter, ciphertext in items
    ]


def gcm_block_macs_scalar(aes: AES128, ghash_key: bytes | GHASH,
                          items: list[tuple[int, int, bytes]],
                          mac_bits: int = 64) -> list[bytes]:
    """:func:`gcm_block_macs` on the FIPS-197 / SP 800-38D references:
    the bitwise GHASH chain and the per-byte AES rounds."""
    if mac_bits not in VALID_MAC_BITS:
        raise ValueError(f"mac_bits must be one of {VALID_MAC_BITS}")
    out = []
    for block_address, counter, ciphertext in items:
        digest = ghash_chunks_scalar(ghash_key, _split_chunks(ciphertext))
        auth_pad = aes.encrypt_block_scalar(
            make_seed(block_address, counter, AUTHENTICATION_IV)
        )
        out.append(xor_bytes(digest, auth_pad)[: mac_bits // 8])
    return out


def sha_block_mac(key: bytes, block_address: int, counter: int,
                  ciphertext: bytes, mac_bits: int = 64) -> bytes:
    """Compute the (truncated) HMAC-SHA1 code for one block."""
    if mac_bits not in VALID_MAC_BITS:
        raise ValueError(f"mac_bits must be one of {VALID_MAC_BITS}")
    message = (
        block_address.to_bytes(8, "big")
        + (counter & ((1 << 64) - 1)).to_bytes(8, "big")
        + ciphertext
    )
    return hmac_sha1(key, message)[: mac_bits // 8]


def macs_per_block(block_size: int, mac_bits: int) -> int:
    """How many MACs fit in one cache block — the Merkle-tree arity."""
    return block_size // (mac_bits // 8)
