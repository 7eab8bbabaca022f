"""Seeded write-storm property tests for RSR page re-encryption.

Section 4.2's correctness obligations under minor-counter overflow:

* plaintext is preserved across any number of page re-encryptions
  (including for blocks the storm never touched after materializing);
* no (key epoch, address, counter) encryption tuple ever repeats — a
  repeat would reuse a counter-mode pad, the exact break the paper's
  counter-replay discussion (section 4.3) warns about.

The storms are seeded, so a failure replays from its printed seed.
"""

import random

import pytest

from repro.analysis.overflow import estimate_overflow, reencryption_work_ratio
from repro.core import SecureMemorySystem, split_gcm_config


def _storm_system(minor_bits=2):
    # Tiny minors overflow after 2^minor_bits write-backs; a tiny counter
    # cache keeps counter blocks moving through DRAM while the storm runs.
    config = split_gcm_config(minor_bits=minor_bits,
                              counter_cache_size=128,
                              counter_cache_assoc=1)
    return SecureMemorySystem(config, protected_bytes=64 * 1024,
                              l2_size=2 * 1024, l2_assoc=2)


class _EncryptSpy:
    """Records every (key epoch, address, counter) the system encrypts."""

    def __init__(self, system):
        self.system = system
        self.tuples = []
        self.duplicates = []
        self._seen = set()
        self._orig = system._encrypt
        system._encrypt = self._call

    def _call(self, address, counter, plaintext):
        key = (self.system._key_epoch, address, counter)
        if key in self._seen:
            self.duplicates.append(key)
        self._seen.add(key)
        self.tuples.append(key)
        return self._orig(address, counter, plaintext)


def _force_writeback(system, address):
    if system.l2.is_dirty(address):
        evicted = system.l2.invalidate(address)
        system._write_back(address, bytes(evicted.payload))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_write_storm_preserves_plaintext_and_never_reuses_pads(seed):
    system = _storm_system()
    spy = _EncryptSpy(system)
    rng = random.Random(seed)
    block = system.block_size
    addresses = [index * block for index in
                 rng.sample(range(64 * 1024 // block), 10)]
    model = {}
    for _ in range(300):
        address = rng.choice(addresses)
        data = rng.randbytes(block)
        system.write_block(address, data)
        model[address] = data
        if rng.random() < 0.7:
            _force_writeback(system, address)
    assert system.stats.reencryption.page_reencryptions > 0, \
        "storm too weak: minors never overflowed"
    assert not spy.duplicates, \
        f"pad reuse: {spy.duplicates[:3]} (seed {seed})"
    for address, expected in model.items():
        assert system.read_block(address) == expected, hex(address)


def test_reencrypted_page_readable_after_flush():
    system = _storm_system(minor_bits=1)     # overflow every 2 write-backs
    block = system.block_size
    # Materialize several blocks of one page, then hammer a single one.
    for index in range(4):
        system.write_block(index * block, bytes([index]) * block)
    system.flush()
    for round_ in range(10):
        system.write_block(0, bytes([0x10 + round_]) * block)
        _force_writeback(system, 0)
    assert system.stats.reencryption.page_reencryptions > 0
    system.flush()
    for address in list(system.l2.resident_blocks()):
        system.l2.invalidate(address)
    for index in range(1, 4):
        assert system.read_block(index * block) == bytes([index]) * block
    assert system.read_block(0) == bytes([0x19]) * block


class TestOverflowAnalysis:
    def test_wider_counters_overflow_later(self):
        times = [estimate_overflow(bits, fastest_count=1_000_000,
                                   simulated_seconds=1.0).seconds_to_overflow
                 for bits in (8, 16, 32, 64)]
        assert times == sorted(times)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_zero_growth_never_overflows(self):
        estimate = estimate_overflow(8, 0, 1.0)
        assert estimate.seconds_to_overflow == float("inf")
        assert estimate.human == "never"

    def test_split_work_beats_monolithic_with_skewed_pages(self):
        # One hot page, many cold pages: split re-encrypts only the hot
        # page, monolithic re-encrypts everything at the hot page's rate.
        counters = {0: 1024}
        counters.update({64 * page: 1 for page in range(1, 16)})
        ratio = reencryption_work_ratio(
            counters, minor_bits=7, mono_bits=7, blocks_per_page=64,
            page_of=lambda block: block // 64,
            total_memory_blocks=16 * 64)
        assert 0 < ratio < 1

    def test_work_ratio_empty_distribution(self):
        assert reencryption_work_ratio({}, 7, 7, 64, lambda b: 0, 64) == 0.0
