"""GHASH universal hash function from NIST SP 800-38D.

GHASH_H(A, C) hashes the additional authenticated data A and the ciphertext
C under the hash subkey H = AES_K(0^128).  In the paper's memory
authentication setting the additional-data input is unused (Figure 2), so
the common call is ``ghash(h, b"", ciphertext)``.

The chain structure — one GF(2^128) multiply and one XOR per 16-byte chunk —
is exactly what the hardware GHASH unit evaluates in one cycle per chunk,
which is why GCM authentication latency is dominated by the (overlappable)
AES pad generation rather than the hash itself.

Every multiplication in the chain is by the same subkey H, so the hot path
runs on a per-subkey :class:`~repro.crypto.gf128.GF128Table` (Shoup's 8-bit
table method: 16 lookups per multiply instead of 128 shift-and-add steps).
A :class:`GHASH` object holds one subkey's table, and its NumPy batch twin
once :meth:`GHASH.vector` is first called; whoever owns the subkey (a MAC
scheme, an AES-GCM instance) keeps the object, so the tables live exactly
as long as the key.  The module functions take a subkey or such an object;
given raw bytes they build a table for that call only.
:func:`ghash_chunks_scalar` is the bitwise SP 800-38D reference chain with
no tables, which the differential checks and ``repro bench`` measure the
table and vector chains against.
"""

from __future__ import annotations

from repro.crypto.gf128 import (
    GF128Table,
    block_to_int,
    gf128_mul,
    int_to_block,
)


def _pad16(data: bytes) -> bytes:
    """Zero-pad to a multiple of 16 bytes (no-op when already aligned)."""
    remainder = len(data) % 16
    if remainder:
        return data + b"\x00" * (16 - remainder)
    return data


class GHASH:
    """GHASH bound to one hash subkey, holding its multiplication table."""

    __slots__ = ("h", "_table", "_vector")

    def __init__(self, h: bytes):
        self.h = bytes(h)
        self._table = GF128Table(block_to_int(self.h))
        self._vector = None

    def vector(self):
        """This subkey's :class:`~repro.crypto.vector.VectorGHASH`, built on
        the first call and kept on this object."""
        twin = self._vector
        if twin is None:
            from repro.crypto.vector import VectorGHASH

            twin = self._vector = VectorGHASH(self.h)
        return twin

    def hash_chunks(self, chunks: list[bytes]) -> bytes:
        """GHASH over pre-split 16-byte chunks without a length block."""
        mul = self._table.multiply
        frombytes = int.from_bytes
        y = 0
        for chunk in chunks:
            if len(chunk) != 16:
                raise ValueError("GHASH chunks must be 16 bytes")
            y = mul(y ^ frombytes(chunk, "big"))
        return y.to_bytes(16, "big")

    def __call__(self, aad: bytes, ciphertext: bytes) -> bytes:
        """Full GHASH_H(aad, ciphertext) per SP 800-38D section 6.4."""
        mul = self._table.multiply
        frombytes = int.from_bytes
        y = 0
        for data in (_pad16(aad), _pad16(ciphertext)):
            for offset in range(0, len(data), 16):
                y = mul(y ^ frombytes(data[offset:offset + 16], "big"))
        length_block = (len(aad) * 8) << 64 | (len(ciphertext) * 8)
        y = mul(y ^ length_block)
        return int_to_block(y)


def ghash_of(h: bytes | GHASH) -> GHASH:
    """``h`` if it is a :class:`GHASH`, else a new one for subkey ``h``."""
    return h if isinstance(h, GHASH) else GHASH(h)


def ghash(h: bytes | GHASH, aad: bytes, ciphertext: bytes) -> bytes:
    """Compute GHASH_H(aad, ciphertext) per SP 800-38D section 6.4.

    ``h`` is the 16-byte hash subkey, or the :class:`GHASH` object that
    keeps its table.  Returns the 16-byte hash.
    """
    return ghash_of(h)(aad, ciphertext)


def ghash_chunks(h: bytes | GHASH, chunks: list[bytes]) -> bytes:
    """GHASH over pre-split 16-byte chunks without a length block.

    This matches the memory-authentication datapath in Figure 2 of the
    paper, where the hashed message is always a fixed-size cache block (so
    no length encoding is needed) and there is no additional authenticated
    data.  Each step is ``y = (y XOR chunk) * H``.
    """
    return ghash_of(h).hash_chunks(chunks)


def ghash_chunks_scalar(h: bytes | GHASH, chunks: list[bytes]) -> bytes:
    """:func:`ghash_chunks` as the bitwise reference: each step is one
    shift-and-add :func:`~repro.crypto.gf128.gf128_mul`, no tables."""
    hval = block_to_int(h.h if isinstance(h, GHASH) else h)
    y = 0
    for chunk in chunks:
        if len(chunk) != 16:
            raise ValueError("GHASH chunks must be 16 bytes")
        y = gf128_mul(y ^ block_to_int(chunk), hval)
    return int_to_block(y)
