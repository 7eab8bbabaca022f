"""MAC scheme objects binding keys to the GCM / SHA-1 code constructions.

A ``MACScheme`` computes the authentication code of one memory block given
its address, its counter, and its (cipher)text.  Two implementations mirror
the paper's two datapaths:

* :class:`GCMMACScheme` — GHASH + AES authentication pad (Figure 2, lower
  half).  The pad depends only on (address, counter), which is what lets
  the timing layer overlap its generation with the memory fetch.
* :class:`SHAMACScheme` — HMAC-SHA1 over (address || counter || content),
  standing in for the MD-5/SHA-1 MACs of prior work.

Both truncate to the configured MAC width (32/64/128 bits, Figure 10).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.crypto.aes import AES128
from repro.crypto.ghash import GHASH
from repro.crypto.mac import gcm_block_mac, gcm_block_macs, sha_block_mac


class MACScheme(ABC):
    """Keyed per-block MAC with a configurable truncated width."""

    def __init__(self, mac_bits: int = 64):
        self.mac_bits = mac_bits
        self.mac_bytes = mac_bits // 8

    @abstractmethod
    def compute(self, address: int, counter: int, content: bytes) -> bytes:
        """MAC of one block's content under its address and counter."""

    def compute_many(self, items: list[tuple[int, int, bytes]]) -> list[bytes]:
        """MACs of many ``(address, counter, content)`` blocks, in order.

        The default is the scalar loop; schemes with a batch kernel
        override this.  Results are byte-identical to per-item
        :meth:`compute` calls either way.
        """
        return [self.compute(address, counter, content)
                for address, counter, content in items]

    @property
    @abstractmethod
    def name(self) -> str:
        """Scheme label used in benchmark output."""


class GCMMACScheme(MACScheme):
    """GCM authentication codes sharing the AES engine with encryption.

    The scheme owns its key's cipher and GHASH subkey objects, and with
    them every table and vector twin they build, so MACs under this key
    never rebuild that state however many other keys are in use.
    """

    def __init__(self, key: bytes, mac_bits: int = 64):
        super().__init__(mac_bits)
        self._aes = AES128(key)
        self._ghash = GHASH(self._aes.encrypt_block(b"\x00" * 16))

    def compute(self, address: int, counter: int, content: bytes) -> bytes:
        return gcm_block_mac(self._aes, self._ghash, address, counter,
                             content, self.mac_bits)

    def compute_many(self, items: list[tuple[int, int, bytes]]) -> list[bytes]:
        return gcm_block_macs(self._aes, self._ghash, items, self.mac_bits)

    @property
    def name(self) -> str:
        return "gcm"


class SHAMACScheme(MACScheme):
    """HMAC-SHA1 authentication codes (prior-work baseline)."""

    def __init__(self, key: bytes, mac_bits: int = 64):
        super().__init__(mac_bits)
        self._key = bytes(key)

    def compute(self, address: int, counter: int, content: bytes) -> bytes:
        return sha_block_mac(self._key, address, counter, content,
                             self.mac_bits)

    @property
    def name(self) -> str:
        return "sha1"
