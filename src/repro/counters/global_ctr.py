"""Globally incremented counter scheme (Table 2's Global32b column).

A single on-chip counter is incremented on *every* write-back system-wide
and its value at encryption time is stored per block (the stored value is
still needed to decrypt).  Because the global counter advances at the
aggregate write-back rate rather than any one block's rate, a 32-bit global
counter overflows within minutes (Table 2) — far sooner than 32-bit
per-block counters.  Its one advantage, noted in section 6.1, is that
counter values never repeat, so the counter-replay pitfall of section 4.3
cannot arise without needing counter authentication.
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
class GlobalCounterStats:
    increments: int = 0
    overflows: int = 0

    def reset(self) -> None:
        reset_fields(self)


class GlobalCounterScheme(CounterScheme):
    """One on-chip counter; per-block snapshots stored in memory."""

    def __init__(self, counter_bits: int = 32, block_size: int = 64):
        if counter_bits not in (32, 64):
            raise ValueError("global counter is 32 or 64 bits")
        super().__init__(block_size, block_size * 8 // counter_bits)
        self.counter_bits = counter_bits
        self.bits_per_block = counter_bits  # stored snapshot per block
        self.name = f"global{counter_bits}b"
        self._mask = (1 << counter_bits) - 1
        self.global_counter = 0
        self._snapshots: dict[int, int] = {}
        self.stats = GlobalCounterStats()

    def counter_for_block(self, block_address: int) -> int:
        return self._snapshots.get(block_address, 0)

    def increment(self, block_address: int) -> IncrementResult:
        self.stats.increments += 1
        if self.global_counter + 1 > self._mask:
            # Wrap: key change + full re-encryption, orchestrated by the
            # caller (snapshots must survive until old blocks decrypt).
            self.stats.overflows += 1
            return IncrementResult(
                counter=1, action=OverflowAction.FULL_REENCRYPTION
            )
        self.global_counter += 1
        self._snapshots[block_address] = self.global_counter
        return IncrementResult(counter=self.global_counter)

    def reset_all_counters(self) -> None:
        """Restart the global counter and forget all snapshots (key change)."""
        self.global_counter = 0
        self._snapshots.clear()

    def set_counter(self, block_address: int, value: int) -> None:
        """Force a snapshot value (used when completing a key change)."""
        if value:
            self._snapshots[block_address] = value
            self.global_counter = max(self.global_counter, value)
        else:
            self._snapshots.pop(block_address, None)

    # -- checkpoint support -------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "global_counter": self.global_counter,
            "snapshots": dict(self._snapshots),
            "stats": fields_state(self.stats),
        }

    def load_state(self, state: dict) -> None:
        self.global_counter = state["global_counter"]
        self._snapshots = dict(state["snapshots"])
        load_fields_state(self.stats, state["stats"])

    # -- layout (identical to monolithic counters of the same width) -------

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
                self._snapshots[addr] = value
            else:
                self._snapshots.pop(addr, None)
