"""Service behavior: tenant isolation, backpressure, fault containment.

Everything here runs the real asyncio server over loopback TCP with the
deterministic inline shard backend (``TestProcessBackend`` runs the
process backend end to end, including a shard worker's death).  Each scenario is a coroutine driven by
``asyncio.run`` so the suite needs no async test plugin.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.serve import (
    SecureMemoryService,
    ServeConfig,
    ServeClient,
    loadgen,
)
from repro.serve.client import ServeError
from repro.serve.protocol import ErrorCode, encode_frame, read_frame
from repro.serve.shard import _frame, _Frames


def _run(scenario_factory, **config_kwargs):
    """Boot a service, run the scenario coroutine, always stop cleanly."""
    config_kwargs.setdefault("backend", "inline")
    config_kwargs.setdefault("num_shards", 2)
    config_kwargs.setdefault("tenant_bytes", 1 << 16)

    async def main():
        service = SecureMemoryService(ServeConfig(**config_kwargs))
        await service.start()
        try:
            host, port = service.address
            return await scenario_factory(service, host, port)
        finally:
            await service.stop()

    return asyncio.run(main())


async def _open(client, tenant, recovery=None):
    response = await client.open_tenant(tenant, recovery)
    return response["token"], response["block_size"]


def _code(excinfo) -> str:
    return excinfo.value.code


class TestBasicOps:
    def test_write_read_round_trip_across_shards(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0")
                # blocks 0..15 stripe across both shards
                writes = [(i * bs, bytes([i]) * bs) for i in range(16)]
                assert await client.write("t0", token, writes) == 16
                data = await client.read("t0", token,
                                         [i * bs for i in range(16)])
                assert data == [bytes([i]) * bs for i in range(16)]

        _run(scenario)

    def test_unwritten_blocks_read_as_zero(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0")
                [block] = await client.read("t0", token, [8 * bs])
                assert block == bytes(bs)

        _run(scenario)

    def test_pipelined_requests_matched_by_id(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0")
                await client.write("t0", token,
                                   [(i * bs, bytes([i]) * bs)
                                    for i in range(8)])
                reads = [client.read("t0", token, [i * bs])
                         for i in range(8)]
                results = await asyncio.gather(*reads)
                assert [r[0] for r in results] == [bytes([i]) * bs
                                                   for i in range(8)]

        _run(scenario)

    def test_unknown_op_and_bad_requests(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as err:
                    await client.request("conjure")
                assert _code(err) == ErrorCode.UNKNOWN_OP
                token, bs = await _open(client, "t0")
                for addresses, why in [
                        ([bs + 1], "unaligned"),
                        ([-bs], "negative"),
                        ([1 << 40], "out of range"),
                        (["zero"], "non-integer")]:
                    with pytest.raises(ServeError) as err:
                        await client.read("t0", token, addresses)
                    assert _code(err) == ErrorCode.BAD_REQUEST, why
                with pytest.raises(ServeError) as err:
                    await client.write("t0", token, [(0, b"short")])
                assert _code(err) == ErrorCode.BAD_REQUEST

        _run(scenario)


class TestMalformedFramesAtServer:
    def test_garbage_frame_gets_error_response_server_survives(self):
        async def scenario(_service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            body = b"not json at all"
            writer.write(len(body).to_bytes(4, "big") + body)
            await writer.drain()
            response = await read_frame(reader)
            assert response["ok"] is False
            assert response["error"] == ErrorCode.BAD_REQUEST
            writer.close()
            # the server must keep serving fresh connections
            async with ServeClient(host, port) as client:
                assert (await client.ping())["pong"] is True

        _run(scenario)

    def test_oversize_declaration_drops_connection_not_server(self):
        async def scenario(_service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write((1 << 30).to_bytes(4, "big"))
            await writer.drain()
            response = await read_frame(reader)
            assert response["ok"] is False
            # after the terminal error the stream ends
            assert await read_frame(reader) is None
            writer.close()
            async with ServeClient(host, port) as client:
                assert (await client.ping())["pong"] is True

        _run(scenario)

    def test_request_without_op_rejected(self):
        async def scenario(_service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"id": 1}))
            await writer.drain()
            response = await read_frame(reader)
            assert response["ok"] is False
            assert response["error"] == ErrorCode.BAD_REQUEST
            writer.close()

        _run(scenario)


class TestTenantIsolation:
    def test_same_address_different_tenants_different_data(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token_a, bs = await _open(client, "alice")
                token_b, _ = await _open(client, "bob")
                await client.write("alice", token_a, [(0, b"A" * bs)])
                await client.write("bob", token_b, [(0, b"B" * bs)])
                assert (await client.read("alice", token_a, [0]))[0] \
                    == b"A" * bs
                assert (await client.read("bob", token_b, [0]))[0] \
                    == b"B" * bs

        _run(scenario)

    def test_wrong_token_rejected_everywhere(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token_a, bs = await _open(client, "alice")
                token_b, _ = await _open(client, "bob")
                for call in (
                        client.read("alice", token_b, [0]),
                        client.write("alice", token_b, [(0, b"x" * bs)]),
                        client.metrics("alice", token_b),
                        client.rotate_epoch("alice", token_b),
                        client.corrupt("alice", token_b, 0),
                        client.close_tenant("alice", token_b)):
                    with pytest.raises(ServeError) as err:
                        await call
                    assert _code(err) == ErrorCode.AUTH

        _run(scenario)

    def test_unknown_tenant_and_duplicate_open(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                with pytest.raises(ServeError) as err:
                    await client.read("ghost", "deadbeef", [0])
                assert _code(err) == ErrorCode.NO_TENANT
                await _open(client, "alice")
                with pytest.raises(ServeError) as err:
                    await client.open_tenant("alice")
                assert _code(err) == ErrorCode.TENANT_EXISTS

        _run(scenario)

    def test_epoch_rotation_rekeys_and_resets(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "alice")
                await client.write("alice", token, [(0, b"A" * bs)])
                assert await client.rotate_epoch("alice", token) == 1
                # fresh epoch: fresh key, fresh (zero) address space
                assert (await client.read("alice", token, [0]))[0] \
                    == bytes(bs)
                metrics = await client.metrics("alice", token)
                assert metrics["epoch"] == 1

        _run(scenario)


class TestFaultContainment:
    def test_halt_latches_other_tenant_unaffected(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token_a, bs = await _open(client, "alice", "halt")
                token_b, _ = await _open(client, "bob", "halt")
                await client.write("alice", token_a, [(0, b"A" * bs)])
                await client.write("bob", token_b, [(0, b"B" * bs)])
                await client.corrupt("alice", token_a, 0)
                with pytest.raises(ServeError) as err:
                    await client.read("alice", token_a, [0])
                assert _code(err) == ErrorCode.HALTED
                # halt latches: even untouched addresses refuse
                with pytest.raises(ServeError) as err:
                    await client.read("alice", token_a, [4 * bs])
                assert _code(err) == ErrorCode.HALTED
                # the blast radius is one tenant
                assert (await client.read("bob", token_b, [0]))[0] \
                    == b"B" * bs
                # rotation is the recovery path after a halt
                await client.rotate_epoch("alice", token_a)
                assert (await client.read("alice", token_a, [0]))[0] \
                    == bytes(bs)

        _run(scenario)

    def test_quarantine_fences_page_keeps_tenant_alive(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "alice", "quarantine_page")
                await client.write("alice", token, [(0, b"A" * bs)])
                await client.corrupt("alice", token, 0)
                with pytest.raises(ServeError) as err:
                    await client.read("alice", token, [0])
                assert _code(err) == ErrorCode.QUARANTINED
                # a distant address on the same shard but a different
                # local page (2 shards: tenant block 128 -> shard 0,
                # local block 64 = local page 1) still works
                far = 128 * bs
                await client.write("alice", token, [(far, b"Z" * bs)])
                assert (await client.read("alice", token, [far]))[0] \
                    == b"Z" * bs
                metrics = await client.metrics("alice", token)
                assert metrics["aggregate"].get(
                    "recovery.quarantined_pages", 0) >= 1

        _run(scenario)

    def test_degrade_serves_unverified_data_and_counts_it(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "alice", "degrade")
                await client.write("alice", token, [(0, b"A" * bs)])
                await client.corrupt("alice", token, 0)
                [block] = await client.read("alice", token, [0])
                assert block != b"A" * bs       # corrupt image, no error
                metrics = await client.metrics("alice", token)
                assert metrics["aggregate"].get(
                    "recovery.degraded_accesses", 0) >= 1

        _run(scenario)


class TestBackpressure:
    def test_full_lane_rejects_with_busy_and_recovers(self):
        async def scenario(service, host, port):
            gate = asyncio.Event()
            entered = asyncio.Event()
            lane = service._lanes[0]
            inner = lane.shard.call

            async def blocking(kind, payload):
                if kind == "execute":
                    entered.set()
                    await asyncio.wait_for(gate.wait(), 30)
                return await inner(kind, payload)

            lane.shard.call = blocking
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0")
                # step 1: occupy the worker and wait until it is provably
                # inside the (blocked) shard call, so later submissions
                # cannot be drained out from under the test
                head = asyncio.ensure_future(client.read("t0", token, [0]))
                await asyncio.wait_for(entered.wait(), 30)
                # step 2: fill the depth-2 queue behind it
                in_flight = [
                    asyncio.ensure_future(client.read("t0", token, [0]))
                    for _ in range(2)]
                for _ in range(500):
                    if lane.queue.full():
                        break
                    await asyncio.sleep(0.01)
                assert lane.queue.full()
                # step 3: admission control rejects instantly with BUSY
                with pytest.raises(ServeError) as err:
                    await client.read("t0", token, [0])
                assert _code(err) == ErrorCode.BUSY
                stats = await client.stats()
                assert stats["metrics"]["serve.busy"] >= 1
                gate.set()                       # unblock the lane
                results = await asyncio.gather(head, *in_flight)
                assert all(r == [bytes(bs)] for r in results)
                # after draining, admission control admits again
                assert (await client.read("t0", token, [0]))[0] == bytes(bs)

        _run(scenario, num_shards=1, queue_depth=2, batch_max=1)


class TestCoalescing:
    def test_concurrent_singles_become_few_batches(self):
        async def scenario(service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0")
                await client.write("t0", token,
                                   [(i * bs, bytes([i]) * bs)
                                    for i in range(32)])
                before = service.metrics.snapshot()
                reads = [client.read("t0", token, [i * bs])
                         for i in range(32)]
                results = await asyncio.gather(*reads)
                assert [r[0] for r in results] == [bytes([i]) * bs
                                                   for i in range(32)]
                after = service.metrics.snapshot()
                ops = after["serve.batched_ops"] - before["serve.batched_ops"]
                batches = after["serve.batches"] - before["serve.batches"]
                assert ops == 32
                # 32 pipelined single-block reads on one lane must land in
                # strictly fewer shard calls than ops (the coalescing
                # contract); scheduling decides the exact count
                assert batches < ops

        _run(scenario, num_shards=1)


class TestLifecycle:
    def test_stop_drains_and_rejects_new_work(self):
        async def scenario(service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0")
                assert await client.write("t0", token, [(0, b"x" * bs)]) == 1
            await service.stop()        # idempotent with the outer stop
            # post-stop: connections are refused (socket closed)
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        _run(scenario)

    def test_metrics_snapshot_shape(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0", "halt")
                await client.write("t0", token, [(0, b"x" * bs)])
                await client.read("t0", token, [0])
                metrics = await client.metrics("t0", token)
                assert metrics["recovery_policy"] == "halt"
                assert metrics["halted"] == [False, False]
                assert set(metrics["shards"]) == {"0", "1"}
                aggregate = metrics["aggregate"]
                # L2 absorbs the read-after-write, but both ops hit the L2
                assert aggregate["l2.accesses"] >= 2
                assert "mem.reads" in aggregate
                assert "recovery.violations" in aggregate
                stats = await client.stats()
                assert stats["tenants"] == 1
                assert stats["metrics"]["serve.requests"] >= 4

        _run(scenario)


class TestLoadgen:
    def test_loadgen_against_inline_service(self):
        async def scenario(_service, host, port):
            return await loadgen(host, port, tenants=2, connections=3,
                                 requests=10, batch=2,
                                 footprint_blocks=32, seed=7)

        result = _run(scenario)
        assert result.requests == 30
        assert result.reads + result.writes == 30
        assert result.errors == 0, result.error_details
        assert result.blocks == 60
        assert result.rps > 0
        assert result.p50_ms <= result.p99_ms

    def test_loadgen_deterministic_op_mix(self):
        async def scenario(_service, host, port):
            return await loadgen(host, port, tenants=1, connections=2,
                                 requests=8, batch=1,
                                 footprint_blocks=16, seed=42)

        first = _run(scenario)
        second = _run(scenario)
        # same seed, same mix (timing differs; the op stream must not)
        assert (first.reads, first.writes) == (second.reads, second.writes)
        assert first.errors == second.errors == 0


class TestShardFraming:
    def test_frames_reassemble_from_any_chunking(self):
        """A process shard's socket delivers bytes, not frames: a reply
        may arrive split across reads, or several in one read."""
        messages = [("ok", [bytes([i]) * 64] * i) for i in range(5)]
        stream = b"".join(_frame(message) for message in messages)
        one_by_one = _Frames()
        got = [m for i in range(len(stream))
               for m in one_by_one.feed(stream[i:i + 1])]
        assert got == messages
        assert _Frames().feed(stream) == messages


class TestProcessBackend:
    def test_process_shards_end_to_end(self):
        async def scenario(_service, host, port):
            async with ServeClient(host, port) as client:
                token_a, bs = await _open(client, "alice", "halt")
                token_b, _ = await _open(client, "bob", "degrade")
                await client.write("alice", token_a,
                                   [(i * bs, bytes([i]) * bs)
                                    for i in range(4)])
                await client.write("bob", token_b, [(0, b"B" * bs)])
                data = await client.read("alice", token_a,
                                         [i * bs for i in range(4)])
                assert data == [bytes([i]) * bs for i in range(4)]
                # a halt inside the worker process is contained to alice
                await client.corrupt("alice", token_a, 0)
                with pytest.raises(ServeError) as err:
                    await client.read("alice", token_a, [0])
                assert _code(err) == ErrorCode.HALTED
                assert (await client.read("bob", token_b, [0]))[0] \
                    == b"B" * bs

        _run(scenario, backend="process", num_shards=1)

    def test_killed_shard_answers_internal_and_spares_other_shards(self):
        """A SIGKILLed worker is an EOF on its socket: every call to that
        shard fails at once with INTERNAL, never hangs, and the tenant's
        blocks on the surviving shard read back byte-identical."""
        async def scenario(service, host, port):
            async with ServeClient(host, port) as client:
                token, bs = await _open(client, "t0")
                # blocks 0, 2, 4, ... live on shard 0; 1, 3, 5, ... on 1
                writes = [(i * bs, bytes([i]) * bs) for i in range(8)]
                await client.write("t0", token, writes)
                worker = service._lanes[0].shard._process
                os.kill(worker.pid, signal.SIGKILL)
                with pytest.raises(ServeError) as err:
                    await asyncio.wait_for(
                        client.read("t0", token, [0]), 10)
                assert _code(err) == ErrorCode.INTERNAL
                odd = [i * bs for i in range(1, 8, 2)]
                assert await asyncio.wait_for(
                    client.read("t0", token, odd), 10) == [
                        bytes([i]) * bs for i in range(1, 8, 2)]
            started = time.monotonic()
            await asyncio.wait_for(service.stop(), 10)
            assert time.monotonic() - started < 10

        _run(scenario, backend="process", num_shards=2)
