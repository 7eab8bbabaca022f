"""Monolithic per-block counters — the prior-work baselines (Mono8b..64b).

Each data block owns one n-bit counter (n in {8, 16, 32, 64}).  When any
counter wraps, the only pad-generation parameter left to change is the AES
key, whose change forces re-encryption of the *entire* memory — the
"freeze" the paper's introduction quantifies at nearly one second for 4GB.
Smaller counters improve counter-cache reach but overflow frequently;
Table 2 and Figure 4 explore this trade-off.
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
class MonolithicStats:
    """Counts used by Table 2 (overflow rate estimation)."""

    increments: int = 0
    overflows: int = 0
    max_counter: int = 0

    def reset(self) -> None:
        reset_fields(self)


class MonolithicCounterScheme(CounterScheme):
    """Per-block n-bit counters with key-change on overflow."""

    def __init__(self, counter_bits: int, block_size: int = 64):
        if counter_bits not in (8, 16, 32, 64):
            raise ValueError("counter_bits must be 8, 16, 32, or 64")
        super().__init__(block_size, block_size * 8 // counter_bits)
        self.counter_bits = counter_bits
        self.bits_per_block = counter_bits
        self.name = f"mono{counter_bits}b"
        self._mask = (1 << counter_bits) - 1
        self._counters: dict[int, int] = {}
        self.stats = MonolithicStats()

    def counter_for_block(self, block_address: int) -> int:
        return self._counters.get(block_address, 0)

    def increment(self, block_address: int) -> IncrementResult:
        self.stats.increments += 1
        value = self._counters.get(block_address, 0) + 1
        if value > self._mask:
            # Counter wrap: the key must change and all of memory must be
            # re-encrypted.  Counters are NOT cleared here — the caller
            # must first decrypt everything under the old key and the
            # current counters, then call :meth:`reset_all_counters`, bump
            # the key epoch, and re-encrypt.  The returned counter (1) is
            # the triggering block's value under the new key epoch.
            self.stats.overflows += 1
            return IncrementResult(
                counter=1, action=OverflowAction.FULL_REENCRYPTION
            )
        self._counters[block_address] = value
        self.stats.max_counter = max(self.stats.max_counter, value)
        return IncrementResult(counter=value)

    def reset_all_counters(self) -> None:
        """Zero every counter — performed as part of a key change."""
        self._counters.clear()

    def set_counter(self, block_address: int, value: int) -> None:
        """Force a counter value (used when completing a key change)."""
        if value:
            self._counters[block_address] = value
        else:
            self._counters.pop(block_address, None)

    def fastest_counter(self) -> int:
        """Largest counter value reached — drives Table 2's overflow ETA."""
        return max(self._counters.values(), default=0)

    # -- checkpoint support --------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "counters": dict(self._counters),
            "stats": fields_state(self.stats),
        }

    def load_state(self, state: dict) -> None:
        self._counters = dict(state["counters"])
        load_fields_state(self.stats, state["stats"])

    # -- layout --------------------------------------------------------------

    def _block_addresses_of(self, counter_block_index: int) -> list[int]:
        per = self.data_blocks_per_counter_block
        first = counter_block_index * per
        return [(first + i) * self.block_size for i in range(per)]

    def encode_counter_block(self, counter_block_index: int) -> bytes:
        width = self.counter_bits // 8
        out = bytearray()
        for addr in self._block_addresses_of(counter_block_index):
            out.extend(self.counter_for_block(addr).to_bytes(width, "big"))
        return bytes(out)

    def decode_counter_block(self, counter_block_index: int,
                             data: bytes) -> None:
        width = self.counter_bits // 8
        for i, addr in enumerate(self._block_addresses_of(counter_block_index)):
            value = int.from_bytes(data[i * width:(i + 1) * width], "big")
            if value:
                self._counters[addr] = value
            else:
                self._counters.pop(addr, None)
