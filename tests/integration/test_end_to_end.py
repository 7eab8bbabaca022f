"""End-to-end integration: miniature versions of the headline results.

These are scaled-down (single-app, short-trace) versions of the benchmark
suite's shape checks, fast enough for the regular test run.
"""

import pytest

from repro.core import (
    baseline_config,
    direct_config,
    gcm_auth_config,
    mono_config,
    mono_sha_config,
    sha_auth_config,
    split_config,
    split_gcm_config,
)
from repro.sim import run_normalized, simulate
from repro.workloads import spec_trace

REFS = 30_000
WARMUP = 10_000


@pytest.fixture(scope="module")
def swim_trace():
    return spec_trace("swim", REFS)


@pytest.fixture(scope="module")
def swim_baseline(swim_trace):
    return simulate(baseline_config(), swim_trace, warmup_refs=WARMUP)


def nipc(config, trace, baseline):
    return run_normalized(config, trace, baseline=baseline,
                          warmup_refs=WARMUP).normalized_ipc


class TestFigure4Shape:
    def test_split_beats_mono64_and_direct(self, swim_trace, swim_baseline):
        split = nipc(split_config(), swim_trace, swim_baseline)
        mono64 = nipc(mono_config(64), swim_trace, swim_baseline)
        direct = nipc(direct_config(), swim_trace, swim_baseline)
        assert split > mono64
        assert split > direct
        assert split > 0.85

    def test_counter_width_gradient(self, swim_trace, swim_baseline):
        values = [nipc(mono_config(b), swim_trace, swim_baseline)
                  for b in (8, 16, 32, 64)]
        assert values == sorted(values, reverse=True)


class TestFigure7Shape:
    def test_gcm_beats_slow_sha(self, swim_trace, swim_baseline):
        gcm = nipc(gcm_auth_config(), swim_trace, swim_baseline)
        sha320 = nipc(sha_auth_config(320), swim_trace, swim_baseline)
        sha640 = nipc(sha_auth_config(640), swim_trace, swim_baseline)
        assert gcm > sha320 > sha640


class TestFigure9Shape:
    def test_new_scheme_beats_old(self, swim_trace, swim_baseline):
        new = nipc(split_gcm_config(), swim_trace, swim_baseline)
        old = nipc(mono_sha_config(), swim_trace, swim_baseline)
        assert (1 - old) > 1.8 * (1 - new)


class TestFunctionalTimingAgreement:
    def test_counter_cache_behaviour_matches(self):
        """The functional and timing layers share counter-cache structure:
        driving both with the same block-level access pattern yields the
        same hit/miss counts."""
        from repro.core import SecureMemorySystem
        from repro.sim.timing_memory import TimingSecureMemory

        config = split_config(counter_cache_size=1024,
                              counter_cache_assoc=2)
        functional = SecureMemorySystem(config, protected_bytes=256 * 1024,
                                        l2_size=2 * 1024)
        timing = TimingSecureMemory(config)

        addresses = [i * 4096 for i in range(16)] * 3
        for address in addresses:
            functional.write_block(address, bytes(64))
            evicted = functional.l2.invalidate(address)
            functional._write_back(address, bytes(evicted.payload))
            timing.write_back(0.0, address)
        assert (functional.counter_cache.stats.misses
                == timing.counter_cache.stats.misses)

    def test_overflow_counts_match(self):
        """Minor-counter overflow schedules identically in both layers."""
        from repro.core import SecureMemorySystem
        from repro.sim.timing_memory import TimingSecureMemory

        config = split_config(minor_bits=3)
        functional = SecureMemorySystem(config, protected_bytes=64 * 1024,
                                        l2_size=1024)
        timing = TimingSecureMemory(config)
        for i in range(30):
            functional.write_block(0, bytes([i]) * 64)
            functional.flush()
            timing.write_back(float(i), 0)
        assert (functional.stats.reencryption.page_reencryptions
                == timing.stats.reencryption.page_reencryptions)
