"""Pipelined crypto-engine timing models."""

import pytest

from repro.engines import (
    AES_LATENCY_CYCLES,
    AESEngine,
    GHASHUnit,
    PipelinedEngine,
    SHA1_LATENCY_CYCLES,
    SHA1Engine,
)


class TestPipelinedEngine:
    def test_idle_request_completes_after_latency(self):
        engine = PipelinedEngine(latency=80, stages=16)
        assert engine.request(100.0) == 180.0

    def test_initiation_interval(self):
        engine = PipelinedEngine(latency=80, stages=16)
        assert engine.initiation_interval == 5.0
        engine.request(0.0)
        assert engine.request(0.0) == 85.0  # second op issues 5 later

    def test_pipelining_beats_serialization(self):
        engine = PipelinedEngine(latency=80, stages=16)
        done = engine.request_many(0.0, 4)
        assert done == 80 + 3 * 5  # far less than 4 * 80

    def test_second_engine_doubles_bandwidth(self):
        one = PipelinedEngine(latency=80, stages=16, copies=1)
        two = PipelinedEngine(latency=80, stages=16, copies=2)
        # issue 8 ops at t=0: the dual engine finishes sooner
        assert two.request_many(0.0, 8) < one.request_many(0.0, 8)

    def test_gap_resets_queue(self):
        engine = PipelinedEngine(latency=80, stages=16)
        engine.request(0.0)
        assert engine.request(1000.0) == 1080.0

    def test_stall_accounting(self):
        engine = PipelinedEngine(latency=10, stages=2)
        engine.request(0.0)
        engine.request(0.0)  # queues 5 cycles
        assert engine.stats.stall_cycles == 5.0
        assert engine.stats.operations == 2

    def test_reset(self):
        engine = PipelinedEngine(latency=10, stages=2)
        engine.request(0.0)
        engine.reset()
        assert engine.stats.operations == 0
        assert engine.request(0.0) == 10.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PipelinedEngine(latency=0, stages=1)
        with pytest.raises(ValueError):
            PipelinedEngine(latency=10, stages=0)


class TestPaperEngines:
    def test_aes_defaults_match_section5(self):
        engine = AESEngine()
        assert engine.latency == AES_LATENCY_CYCLES == 80
        assert engine.stages == 16

    def test_sha_defaults_match_section5(self):
        engine = SHA1Engine()
        assert engine.latency == SHA1_LATENCY_CYCLES == 320
        assert engine.stages == 32

    def test_sha_latency_sweep_configurable(self):
        assert SHA1Engine(latency=640).request(0.0) == 640.0

    def test_block_pads_stream_through_pipeline(self):
        engine = AESEngine()
        assert engine.request_many(0.0, 4) == 95.0


class TestGHASHUnit:
    def test_overlapped_pad_costs_five_cycles(self):
        """Pad ready before data arrives: tag = arrival + 4 chunks + XOR,
        the paper's core GCM latency claim."""
        unit = GHASHUnit()
        assert unit.hash_block(data_ready=1000.0, pad_ready=500.0) == 1005.0

    def test_late_pad_dominates(self):
        unit = GHASHUnit()
        assert unit.hash_block(data_ready=1000.0, pad_ready=2000.0) == 2001.0
