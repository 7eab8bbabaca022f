"""AES-GCM authenticated encryption (NIST SP 800-38D), from scratch.

Provides the standard GCM interface (96-bit IV fast path plus the general
GHASH-derived counter for other IV lengths), validated against the NIST /
McGrew-Viega test vectors in the test suite.  The secure-memory code paths
use the lower-level primitives in :mod:`repro.crypto.ctr` and
:mod:`repro.crypto.ghash` directly, because the paper composes the GCM
machinery in a slightly specialised way (per-chunk seeds carrying the block
address and split counter); this module exists both as the reference
implementation those paths are checked against and as a general-purpose
AEAD for library users.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes import AES128
from repro.crypto.ghash import GHASH


class AuthenticationError(Exception):
    """Raised when a GCM tag fails to verify."""


def _inc32(block: bytes) -> bytes:
    """Increment the low 32 bits of a 16-byte counter block (wrapping)."""
    prefix, counter = block[:12], int.from_bytes(block[12:], "big")
    return prefix + ((counter + 1) & 0xFFFFFFFF).to_bytes(4, "big")


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass(frozen=True)
class GCMResult:
    """Ciphertext and authentication tag produced by a seal operation."""

    ciphertext: bytes
    tag: bytes


class AESGCM:
    """AES-128-GCM authenticated encryption bound to one key."""

    def __init__(self, key: bytes, tag_length: int = 16):
        if not 4 <= tag_length <= 16:
            raise ValueError("tag_length must be between 4 and 16 bytes")
        self._aes = AES128(key)
        self._ghash = GHASH(self._aes.encrypt_block(b"\x00" * 16))
        self.tag_length = tag_length

    def _initial_counter(self, iv: bytes) -> bytes:
        if len(iv) == 12:
            return iv + b"\x00\x00\x00\x01"
        return self._ghash(b"", iv)

    def _ctr_transform(self, counter0: bytes, data: bytes) -> bytes:
        """Counter-mode keystream XOR, starting from inc32(counter0)."""
        output = bytearray()
        counter = counter0
        for offset in range(0, len(data), 16):
            counter = _inc32(counter)
            pad = self._aes.encrypt_block(counter)
            chunk = data[offset : offset + 16]
            output.extend(_xor_bytes(chunk, pad[: len(chunk)]))
        return bytes(output)

    def _tag(self, counter0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        s = self._ghash(aad, ciphertext)
        full = _xor_bytes(s, self._aes.encrypt_block(counter0))
        return full[: self.tag_length]

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> GCMResult:
        """Encrypt and authenticate; returns ciphertext plus tag."""
        counter0 = self._initial_counter(iv)
        ciphertext = self._ctr_transform(counter0, plaintext)
        return GCMResult(ciphertext, self._tag(counter0, aad, ciphertext))

    def open(self, iv: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises AuthenticationError on mismatch."""
        counter0 = self._initial_counter(iv)
        expected = self._tag(counter0, aad, ciphertext)
        if not constant_time_equal(expected, tag):
            raise AuthenticationError("GCM tag mismatch")
        return self._ctr_transform(counter0, ciphertext)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
