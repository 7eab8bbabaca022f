"""Counter-organization interface for counter-mode memory encryption.

Every scheme the paper evaluates — split counters, monolithic counters of
8/16/32/64 bits, the on-chip global counter, and the prediction scheme —
answers the same questions:

* what counter value encrypts a given data block right now;
* what happens to that value on a write-back (increment + possible
  overflow), and how expensive the overflow consequence is
  (page re-encryption vs. entire-memory re-encryption);
* how counters are laid out in memory (which *counter block* holds the
  counter for a data block, and how many counter bits each data block
  costs), which determines counter-cache behaviour and bus traffic.

The schemes keep authoritative counter state in plain dictionaries; the
functional secure-memory layer serializes counter blocks into the untrusted
DRAM (so attacks can tamper with them) and the timing layer charges cache
and bus costs using the layout metadata.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass


class OverflowAction(enum.Enum):
    """What a counter overflow forces the system to do."""

    NONE = "none"
    PAGE_REENCRYPTION = "page"       # split counters: one encryption page
    FULL_REENCRYPTION = "memory"     # monolithic/global: key change, all RAM


@dataclass(frozen=True)
class IncrementResult:
    """Outcome of bumping a block's counter on write-back."""

    counter: int                     # value to use for this encryption
    action: OverflowAction = OverflowAction.NONE
    page_address: int | None = None  # affected page for PAGE_REENCRYPTION


class CounterScheme(ABC):
    """Abstract counter organization over a block-granular memory."""

    #: bits of counter storage charged to each data block (storage overhead)
    bits_per_block: int
    #: human-readable scheme name used in benchmark tables
    name: str

    def __init__(self, block_size: int, data_blocks_per_counter_block: int):
        self.block_size = block_size
        #: how many data blocks share one 64-byte counter block
        self.data_blocks_per_counter_block = data_blocks_per_counter_block
        #: bytes of data memory whose counters share one counter block
        self.counter_block_span = block_size * data_blocks_per_counter_block

    # -- counter values ----------------------------------------------------

    @abstractmethod
    def counter_for_block(self, block_address: int) -> int:
        """Current counter value used to encrypt/decrypt ``block_address``."""

    @abstractmethod
    def increment(self, block_address: int) -> IncrementResult:
        """Advance the block's counter for a write-back.

        Returns the counter value the write-back must encrypt with and the
        overflow consequence, if any.  For split counters an overflow has
        already applied the major-counter bump and minor reset when this
        returns (callers then perform the page re-encryption the result
        demands).
        """

    # -- memory layout -----------------------------------------------------

    def counter_block_address(self, block_address: int) -> int:
        """Index of the counter block holding this data block's counter.

        Counter blocks are identified by a dense index (0, 1, 2, ...); the
        secure-memory layer maps indices into a reserved DRAM region.
        Every organization lays its counters out contiguously, so the
        index is the address divided by :attr:`counter_block_span` (for
        split counters, the encryption-page index).
        """
        return block_address // self.counter_block_span

    # -- functional serialization (counter blocks as real bytes) -----------

    @abstractmethod
    def encode_counter_block(self, counter_block_index: int) -> bytes:
        """Serialize one counter block to its in-memory byte image."""

    @abstractmethod
    def decode_counter_block(self, counter_block_index: int,
                             data: bytes) -> None:
        """Load counter state for one counter block from a byte image.

        Used when a counter block is (re-)fetched from the untrusted DRAM —
        this is the path a counter-replay attack corrupts.
        """

    # -- statistics helpers --------------------------------------------------

    def storage_overhead(self) -> float:
        """Counter storage as a fraction of protected data capacity."""
        return self.bits_per_block / (self.block_size * 8)
