"""Timing secure memory: latency relationships the figures depend on."""

import pytest

from repro.auth.policies import AuthPolicy
from repro.core.config import (
    baseline_config,
    direct_config,
    gcm_auth_config,
    mono_config,
    prediction_config,
    sha_auth_config,
    split_config,
    split_gcm_config,
)
from repro.sim.timing_memory import TimingSecureMemory


def miss(config, address=0x10000, now=1000.0, memory=None):
    memory = memory or TimingSecureMemory(config)
    return memory.read_miss(now, address), memory


class TestBaselineLatency:
    def test_uncontended_miss_latency(self):
        (timing, memory) = miss(baseline_config())
        # bus transfer (4 beats) + 200-cycle round trip
        expected = 1000.0 + memory.bus.transfer_cycles(64) + 200
        assert timing.data_ready == pytest.approx(expected)
        assert timing.auth_done == timing.data_ready

    def test_bus_contention_delays_second_miss(self):
        memory = TimingSecureMemory(baseline_config())
        first = memory.read_miss(0.0, 0x1000)
        second = memory.read_miss(0.0, 0x2000)
        assert second.data_ready > first.data_ready


class TestEncryptionLatency:
    def test_direct_adds_aes_after_arrival(self):
        base, _ = miss(baseline_config())
        direct, _ = miss(direct_config())
        assert direct.data_ready >= base.data_ready + 80

    def test_counter_hit_hides_pad_generation(self):
        """With the counter cached, the pad overlaps the fetch: only the
        XOR cycle lands after arrival."""
        memory = TimingSecureMemory(split_config())
        memory.counter_cache.fill(
            memory.scheme.counter_block_address(0x10000)
        )
        timing = memory.read_miss(1000.0, 0x10000)
        base, _ = miss(baseline_config())
        assert timing.data_ready == pytest.approx(base.data_ready + 1)

    def test_counter_miss_costs_extra(self):
        hit_memory = TimingSecureMemory(split_config())
        hit_memory.counter_cache.fill(
            hit_memory.scheme.counter_block_address(0x10000)
        )
        hit = hit_memory.read_miss(1000.0, 0x10000)
        cold, _ = miss(split_config())
        assert cold.data_ready > hit.data_ready
        assert cold == cold  # sanity

    def test_counter_half_miss_waits_without_traffic(self):
        memory = TimingSecureMemory(split_config())
        memory.read_miss(1000.0, 0x10000)
        txns = memory.bus.stats.transactions
        memory.read_miss(1001.0, 0x10040)  # same page: counter in flight
        assert memory.stats.counter_half_misses == 1
        # only the data transfer was added, not a second counter fetch
        assert memory.bus.stats.transactions == txns + 1


class TestAuthenticationLatency:
    def test_gcm_tag_lands_just_after_data(self):
        """With the chain cached, GCM costs GHASH + XOR ≈ 5 cycles."""
        memory = TimingSecureMemory(gcm_auth_config())
        memory.read_miss(1000.0, 0x10000)         # warms chain + counter
        timing = memory.read_miss(5000.0, 0x10000)
        assert timing.auth_done - timing.data_ready <= 10

    def test_sha_mac_costs_full_latency_after_data(self):
        memory = TimingSecureMemory(sha_auth_config(320))
        memory.read_miss(1000.0, 0x10000)
        timing = memory.read_miss(5000.0, 0x10000)
        assert timing.auth_done - timing.data_ready >= 320

    def test_parallel_chain_not_slower_than_sequential(self):
        par = TimingSecureMemory(gcm_auth_config(parallel_auth=True))
        seq = TimingSecureMemory(gcm_auth_config(parallel_auth=False))
        tp = par.read_miss(1000.0, 0x1F000000)  # deep cold chain
        ts = seq.read_miss(1000.0, 0x1F000000)
        assert tp.auth_done <= ts.auth_done

    def test_cold_chain_fetches_tree_levels(self):
        memory = TimingSecureMemory(gcm_auth_config())
        before = memory.bus.stats.transactions
        memory.read_miss(1000.0, 0x10000)
        # data + counter + several node levels
        assert memory.bus.stats.transactions > before + 2


class TestPrediction:
    def test_correct_prediction_is_timely_pad(self):
        memory = TimingSecureMemory(prediction_config())
        timing = memory.read_miss(1000.0, 0x10000)
        assert memory.stats.pads.timely_pads == 1
        base, _ = miss(baseline_config())
        # one extra bus beat carries the 8-byte counter, plus the XOR cycle
        extra_beat = memory.bus.cycles_per_beat
        assert timing.data_ready <= base.data_ready + extra_beat + 2

    def test_wrong_prediction_pays_pad_after_arrival(self):
        memory = TimingSecureMemory(prediction_config())
        for _ in range(10):
            memory.scheme.increment(0x10000)  # drift beyond the window
        timing = memory.read_miss(1000.0, 0x10000)
        base, _ = miss(baseline_config())
        assert timing.data_ready > base.data_ready + 80

    def test_prediction_transfers_carry_counters(self):
        memory = TimingSecureMemory(prediction_config())
        memory.read_miss(1000.0, 0x10000)
        assert memory.bus.stats.bytes_moved == 72  # 64B data + 8B counter


class TestWriteBack:
    def test_writeback_is_posted(self):
        memory = TimingSecureMemory(split_config())
        stall = memory.write_back(1000.0, 0x10000)
        assert stall <= 1000.0

    def test_writeback_consumes_bus(self):
        memory = TimingSecureMemory(baseline_config())
        before = memory.bus.stats.bytes_moved
        memory.write_back(1000.0, 0x10000)
        assert memory.bus.stats.bytes_moved == before + 64

    def test_minor_overflow_triggers_rsr(self):
        config = split_gcm_config(minor_bits=2)
        memory = TimingSecureMemory(config)
        for _ in range(4):
            memory.write_back(1000.0, 0x10000)
        assert memory.stats.reencryption.page_reencryptions == 1

    def test_mono_overflow_counted_but_free(self):
        """Paper methodology: Mono8b's full re-encryption is assumed
        instantaneous with no traffic — only counted."""
        memory = TimingSecureMemory(mono_config(8))
        for i in range(256):
            memory.write_back(float(i), 0x10000)
        assert memory.stats.reencryption.full_reencryptions == 1
        assert memory.scheme.counter_for_block(0x10000) == 1

