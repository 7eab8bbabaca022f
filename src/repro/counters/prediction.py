"""Counter prediction with pad precomputation (Shi et al. [16] baseline).

The comparison scheme of Figure 6.  Instead of caching counters on-chip, it
keeps a *base counter* per page (conceptually in the TLB/page tables) and,
on an L2 miss, speculatively precomputes N pads using the predicted counter
values base, base+1, ..., base+N-1 (N = 5 as recommended by [16]).  The
block's actual 64-bit counter is stored in memory and fetched alongside the
data block to verify the prediction, adding 8 bytes of traffic per 64-byte
block fetch.

Costs the paper highlights:

* N pads per decryption multiplies AES-engine demand N-fold — one engine
  produces timely pads for only ~61% of decryptions; two engines reach ~96%.
* 64-bit per-block counters cost 1/8 of memory capacity and extra bus
  bandwidth (no small split counters to fetch instead).
* Prediction accuracy decays over time as per-block counters within a page
  drift apart (Figure 6b), while a counter cache's hit rate holds steady.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters.base import (
    CounterScheme,
    IncrementResult,
    OverflowAction,
)
from repro.obs.metrics import fields_state, load_fields_state, reset_fields

DEFAULT_PREDICTION_DEPTH = 5


@dataclass
class PredictionStats:
    """Prediction accuracy accounting for Figure 6."""

    predictions: int = 0
    correct: int = 0
    increments: int = 0

    @property
    def prediction_rate(self) -> float:
        return self.correct / self.predictions if self.predictions else 0.0

    def reset(self) -> None:
        reset_fields(self)


class CounterPredictionScheme(CounterScheme):
    """64-bit per-block counters, predicted from a per-page base."""

    name = "prediction"

    def __init__(self, block_size: int = 64, page_size: int = 4096,
                 depth: int = DEFAULT_PREDICTION_DEPTH):
        # laid out like 64-bit monolithic counters
        super().__init__(block_size, block_size * 8 // 64)
        if depth < 1:
            raise ValueError("prediction depth must be >= 1")
        self.page_size = page_size
        self.depth = depth
        self.counter_bits = 64
        self.bits_per_block = 64
        self._counters: dict[int, int] = {}
        self._bases: dict[int, int] = {}
        self.stats = PredictionStats()

    def _page_of(self, block_address: int) -> int:
        return block_address // self.page_size

    def counter_for_block(self, block_address: int) -> int:
        return self._counters.get(block_address, 0)

    def base_counter(self, block_address: int) -> int:
        return self._bases.get(self._page_of(block_address), 0)

    def predict(self, block_address: int) -> tuple[bool, list[int]]:
        """Predict the block's counter on a data fetch.

        Returns ``(correct, candidates)`` where ``candidates`` are the
        ``depth`` counter values whose pads get precomputed.  Statistics are
        updated; on a miss the page base resynchronizes to the actual value
        (modelling the base-update policy of [16]).
        """
        base = self.base_counter(block_address)
        candidates = [base + k for k in range(self.depth)]
        actual = self.counter_for_block(block_address)
        self.stats.predictions += 1
        correct = base <= actual < base + self.depth
        if correct:
            self.stats.correct += 1
        else:
            self._bases[self._page_of(block_address)] = actual
        return correct, candidates

    def increment(self, block_address: int) -> IncrementResult:
        self.stats.increments += 1
        value = self._counters.get(block_address, 0) + 1
        self._counters[block_address] = value
        # 64-bit counters never overflow on simulated timescales.
        return IncrementResult(counter=value, action=OverflowAction.NONE)

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "counters": dict(self._counters),
            "bases": dict(self._bases),
            "stats": fields_state(self.stats),
        }

    def load_state(self, state: dict) -> None:
        self._counters = dict(state["counters"])
        self._bases = dict(state["bases"])
        load_fields_state(self.stats, state["stats"])

    # -- layout (same as 64-bit monolithic) ---------------------------------

    def _block_addresses_of(self, counter_block_index: int) -> list[int]:
        per = self.data_blocks_per_counter_block
        first = counter_block_index * per
        return [(first + i) * self.block_size for i in range(per)]

    def encode_counter_block(self, counter_block_index: int) -> bytes:
        out = bytearray()
        for addr in self._block_addresses_of(counter_block_index):
            out.extend(self.counter_for_block(addr).to_bytes(8, "big"))
        return bytes(out)

    def decode_counter_block(self, counter_block_index: int,
                             data: bytes) -> None:
        for i, addr in enumerate(self._block_addresses_of(counter_block_index)):
            value = int.from_bytes(data[i * 8:(i + 1) * 8], "big")
            if value:
                self._counters[addr] = value
            else:
                self._counters.pop(addr, None)
