"""Stateful property test: the secure memory vs. a plain dict reference.

Hypothesis drives random interleavings of block writes, reads, byte-level
read-modify-writes, flushes, and forced L2 evictions against the full
Split+GCM system (small caches so evictions and counter traffic are
constant), checking that the plaintext view always matches a reference
model and that no integrity violation ever fires without an attack.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.core import SecureMemorySystem, split_gcm_config

REGION = 32 * 1024
NUM_BLOCKS = REGION // 64


class SecureMemoryMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.system = SecureMemorySystem(
            split_gcm_config(minor_bits=3, counter_cache_size=512,
                             counter_cache_assoc=2),
            protected_bytes=REGION, l2_size=1024, l2_assoc=2,
        )
        self.reference: dict[int, bytes] = {}

    @rule(block=st.integers(min_value=0, max_value=NUM_BLOCKS - 1),
          fill=st.integers(min_value=0, max_value=255))
    def write_block(self, block, fill):
        data = bytes([fill ^ (i & 0xFF) for i in range(64)])
        self.system.write_block(block * 64, data)
        self.reference[block * 64] = data

    @rule(block=st.integers(min_value=0, max_value=NUM_BLOCKS - 1))
    def read_block(self, block):
        expected = self.reference.get(block * 64, bytes(64))
        assert self.system.read_block(block * 64) == expected

    @rule(address=st.integers(min_value=0, max_value=REGION - 8),
          payload=st.binary(min_size=1, max_size=8))
    def write_bytes(self, address, payload):
        self.system.write(address, payload)
        for i, value in enumerate(payload):
            base = (address + i) & ~63
            block = bytearray(self.reference.get(base, bytes(64)))
            block[(address + i) - base] = value
            self.reference[base] = bytes(block)

    @rule()
    def flush(self):
        self.system.flush()

    @rule(block=st.integers(min_value=0, max_value=NUM_BLOCKS - 1))
    def evict_block(self, block):
        """Natural eviction stand-in: write back + drop from the L2."""
        address = block * 64
        evicted = self.system.l2.invalidate(address)
        if evicted is not None and evicted.dirty:
            self.system._write_back(address, bytes(evicted.payload))

    @invariant()
    def no_spurious_violations(self):
        if hasattr(self, "system"):
            assert self.system.integrity_violations == 0


TestSecureMemoryStateful = SecureMemoryMachine.TestCase
TestSecureMemoryStateful.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
