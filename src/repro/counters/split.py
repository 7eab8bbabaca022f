"""Split counters: per-page major counter plus tiny per-block minor counters.

Section 2 / Figure 2 of the paper.  Each *encryption page* (4KB with 64-byte
blocks) owns one 64-bit major counter M shared by its 64 data blocks, and
each block has a 7-bit minor counter.  A block's encryption counter is the
concatenation M || m.  The whole set — one major plus 64 minors — packs
exactly into one 64-byte counter-cache block (64 + 64*7 = 512 bits), giving
the headline ratio of *one byte of counter storage per 64-byte data block*.

Minor-counter overflow increments the page's major counter and re-encrypts
only that page (handled by the RSR machinery in :mod:`repro.core.rsr`);
major counters are sized to never overflow in the machine's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters.base import (
    CounterScheme,
    IncrementResult,
    OverflowAction,
)
from repro.obs.metrics import fields_state, load_fields_state, reset_fields


@dataclass
class SplitCounterStats:
    """Split-scheme activity used by the re-encryption experiments."""

    increments: int = 0
    minor_overflows: int = 0

    def reset(self) -> None:
        reset_fields(self)


class SplitCounterScheme(CounterScheme):
    """Major/minor split counters (the paper's proposal)."""

    name = "split"

    def __init__(self, block_size: int = 64, minor_bits: int = 7,
                 major_bits: int = 64):
        if not 1 <= minor_bits <= 16:
            raise ValueError("minor_bits must be in [1, 16]")
        # One counter block = one major counter + one minor per data block,
        # sized to fill one cache block: with 7-bit minors and a 64-bit
        # major, 64 blocks fit exactly (the paper's default).  For other
        # minor widths we keep the page at block_size data blocks per page,
        # matching the paper's 32-byte-block example (32 six-bit minors).
        super().__init__(block_size, block_size)
        self.minor_bits = minor_bits
        self.major_bits = major_bits
        self.blocks_per_page = block_size
        self.page_size = self.blocks_per_page * block_size
        self.bits_per_block = minor_bits + major_bits // self.blocks_per_page
        self._minor_mask = (1 << minor_bits) - 1
        self._majors: dict[int, int] = {}
        self._minors: dict[int, int] = {}
        self.stats = SplitCounterStats()

    # -- page/block geometry -------------------------------------------------

    def page_of(self, block_address: int) -> int:
        """Encryption-page index containing a data block."""
        return block_address // self.page_size

    def page_base_address(self, page_index: int) -> int:
        """First data-block address of an encryption page."""
        return page_index * self.page_size

    def blocks_of_page(self, page_index: int) -> list[int]:
        """All data-block addresses belonging to an encryption page."""
        base = self.page_base_address(page_index)
        return [base + i * self.block_size for i in range(self.blocks_per_page)]

    # -- counter values --------------------------------------------------------

    def major_counter(self, page_index: int) -> int:
        return self._majors.get(page_index, 0)

    def minor_counter(self, block_address: int) -> int:
        return self._minors.get(block_address, 0)

    def _concat(self, major: int, minor: int) -> int:
        return (major << self.minor_bits) | minor

    def counter_for_block(self, block_address: int) -> int:
        page = self.page_of(block_address)
        return self._concat(self.major_counter(page),
                            self.minor_counter(block_address))

    def counter_with_major(self, block_address: int, major: int) -> int:
        """Counter using an explicit (old) major — the RSR decryption path."""
        return self._concat(major, self.minor_counter(block_address))

    def increment(self, block_address: int) -> IncrementResult:
        self.stats.increments += 1
        page = self.page_of(block_address)
        minor = self.minor_counter(block_address) + 1
        if minor <= self._minor_mask:
            self._minors[block_address] = minor
            return IncrementResult(
                counter=self._concat(self.major_counter(page), minor)
            )
        # Minor overflow: bump the major, reset every minor on the page.
        # The caller must re-encrypt the page (RSR machinery); the block
        # triggering the overflow is written with the new major and minor 1.
        self.stats.minor_overflows += 1
        self.begin_page_reencryption(page)
        self._minors[block_address] = 1
        return IncrementResult(
            counter=self._concat(self.major_counter(page), 1),
            action=OverflowAction.PAGE_REENCRYPTION,
            page_address=page,
        )

    def begin_page_reencryption(self, page_index: int) -> int:
        """Advance the page's major counter; minors stay for now.

        Returns the *old* major counter, which the RSR stores so that
        not-yet-re-encrypted blocks can still be decrypted.  Minor counters
        are *not* zeroed here: each block keeps its old minor (needed to
        decrypt it under the old major) until the RSR processes that block
        and calls :meth:`reset_minor` — matching the per-block "minor
        counter is reset, the done bit is set" sequence of section 4.2.
        """
        old_major = self.major_counter(page_index)
        self._majors[page_index] = old_major + 1
        return old_major

    def reset_minor(self, block_address: int) -> None:
        """Zero one block's minor counter (per-block re-encryption step)."""
        self._minors.pop(block_address, None)

    # -- checkpoint support ------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "majors": dict(self._majors),
            "minors": dict(self._minors),
            "stats": fields_state(self.stats),
        }

    def load_state(self, state: dict) -> None:
        self._majors = dict(state["majors"])
        self._minors = dict(state["minors"])
        load_fields_state(self.stats, state["stats"])

    # -- serialization -----------------------------------------------------------

    def encode_counter_block(self, counter_block_index: int) -> bytes:
        """Pack major (8 bytes) + bit-packed minors into one block image."""
        page = counter_block_index
        out = bytearray(self.block_size)
        out[0:8] = self.major_counter(page).to_bytes(8, "big")
        bits = 0
        acc = 0
        pos = 8
        for addr in self.blocks_of_page(page):
            acc = (acc << self.minor_bits) | self.minor_counter(addr)
            bits += self.minor_bits
            while bits >= 8:
                bits -= 8
                out[pos] = (acc >> bits) & 0xFF
                pos += 1
        if bits:
            out[pos] = (acc << (8 - bits)) & 0xFF
        return bytes(out)

    def decode_counter_block(self, counter_block_index: int,
                             data: bytes) -> None:
        """Unpack a counter-block image fetched from (untrusted) DRAM."""
        page = counter_block_index
        self._majors[page] = int.from_bytes(data[0:8], "big")
        acc = int.from_bytes(data[8:], "big")
        total_bits = (len(data) - 8) * 8
        addresses = self.blocks_of_page(page)
        for i, addr in enumerate(addresses):
            shift = total_bits - (i + 1) * self.minor_bits
            minor = (acc >> shift) & self._minor_mask
            if minor:
                self._minors[addr] = minor
            else:
                self._minors.pop(addr, None)
