"""Asyncio front end of the multi-tenant secure-memory service.

Architecture (one server process):

* One *lane* per shard: a bounded :class:`asyncio.Queue` of ops and a
  worker coroutine that drains it in batches, keeping one batch in flight
  per shard.  Every shard call — batches and control ops alike — is an
  awaitable ``shard.call(kind, payload)`` on the event loop.  With the
  ``process`` backend the loop owns the shard's socket and the crypto
  runs inside the shard's own worker process, so shards execute truly in
  parallel and the front end runs on one thread.
* **Coalescing**: the lane worker collects up to ``batch_max`` queued ops
  (from any number of connections) into one shard batch; the shard merges
  consecutive same-kind ops per tenant into single
  ``read_blocks``/``write_blocks`` calls — the vector-kernel batch path.
* **Admission control**: a full lane queue rejects immediately with
  ``BUSY`` instead of buffering without bound.  The queue depth is the
  whole per-shard memory obligation; clients retry with backoff.
* **Tenants**: opened dynamically, each with a bearer token, a key epoch,
  its own address space (sharded block-interleaved across lanes), and its
  own recovery policy.  One tenant's integrity faults — even a ``halt``
  verdict — never touch another tenant's systems.

Address routing: a tenant address is a byte offset in that tenant's own
flat space, block-aligned.  Block ``b = addr // block_size`` lives on
shard ``b % num_shards`` at local address
``(b // num_shards) * block_size`` — consecutive blocks stripe across
shards so any dense working set loads all lanes.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import secrets
import time
from dataclasses import dataclass
from typing import Any

from repro.serve.protocol import (
    ErrorCode,
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
)
from repro.serve.shard import InlineShard, ProcessShard, ShardCore, ShardError

__all__ = ["SecureMemoryService", "ServeConfig", "run_server"]


@dataclass(frozen=True)
class ServeConfig:
    """Static shape of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = pick an ephemeral port
    scheme: str = "split+gcm"         # preset label, see repro.api.get_config
    num_shards: int = 1
    backend: str = "inline"           # "inline" | "process"
    tenant_bytes: int = 1 << 20       # per-tenant address-space size
    queue_depth: int = 256            # max queued ops per shard (admission)
    batch_max: int = 64               # max ops coalesced into one shard batch
    max_request_blocks: int = 256     # max blocks one read/write may name
    l2_size: int = 64 * 1024          # per (tenant, shard) cache size
    base_key: bytes = b"repro-serve-base-key"

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.backend not in ("inline", "process"):
            raise ValueError(f"unknown shard backend {self.backend!r} "
                             "(want 'inline' or 'process')")
        if self.queue_depth < 1 or self.batch_max < 1:
            raise ValueError("queue_depth and batch_max must be >= 1")


class _TenantInfo:
    __slots__ = ("token", "epoch", "recovery")

    def __init__(self, token: str, recovery: str | None):
        self.token = token
        self.epoch = 0
        self.recovery = recovery


@dataclass
class _Lane:
    """One shard's bounded op queue and the worker that drains it.

    The worker awaits each batch's reply before taking the next, so a
    shard has at most one batch in flight; control ops bypass the queue
    and go straight to ``shard.call``.
    """

    shard: Any
    queue: asyncio.Queue
    worker: asyncio.Task | None = None


class SecureMemoryService:
    """The server: lifecycle, tenant registry, op dispatch, lanes."""

    def __init__(self, config: ServeConfig):
        from repro.core.config import lookup_preset
        from repro.obs.metrics import MetricsRegistry

        self.config = config
        self.memory_config = lookup_preset(config.scheme)
        self.block_size = self.memory_config.block_size
        if config.tenant_bytes % (self.block_size * config.num_shards):
            raise ValueError(
                f"tenant_bytes ({config.tenant_bytes}) must be a multiple "
                f"of block_size * num_shards "
                f"({self.block_size} * {config.num_shards})")
        self._lanes: list[_Lane] = []
        self._tenants: dict[str, _TenantInfo] = {}
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._started = time.monotonic()
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter("serve.requests")
        self._busy = self.metrics.counter("serve.busy")
        self._proto_errors = self.metrics.counter("serve.protocol_errors")
        self._batches = self.metrics.counter("serve.batches")
        self._batched_ops = self.metrics.counter("serve.batched_ops")
        self._batch_size = self.metrics.histogram("serve.batch_size")

    # -- lifecycle ----------------------------------------------------------

    async def _build_shard(self, index: int):
        per_shard = self.config.tenant_bytes // self.config.num_shards
        if self.config.backend == "process":
            # returns once the worker is started; the workers boot in
            # parallel, and calls queue in each socket meanwhile
            return await ProcessShard.spawn(
                index, self.config.num_shards, self.memory_config,
                per_shard, self.config.base_key,
                l2_size=self.config.l2_size)
        return InlineShard(ShardCore(index, self.config.num_shards,
                                     self.memory_config, per_shard,
                                     self.config.base_key,
                                     l2_size=self.config.l2_size))

    async def start(self) -> None:
        for index in range(self.config.num_shards):
            lane = _Lane(shard=await self._build_shard(index),
                         queue=asyncio.Queue(self.config.queue_depth))
            lane.worker = asyncio.ensure_future(self._lane_worker(lane))
            self._lanes.append(lane)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ephemeral port 0."""
        if self._server is None:
            raise RuntimeError("service is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Drain and stop: no new work, finish queued batches, free shards."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for lane in self._lanes:
            await lane.queue.put(None)          # drain sentinel
        for lane in self._lanes:
            if lane.worker is not None:
                await lane.worker
        await asyncio.gather(*[lane.shard.close() for lane in self._lanes])

    # -- lane worker: coalescing + batch execution --------------------------

    async def _lane_worker(self, lane: _Lane) -> None:
        stopping = False
        while not stopping:
            item = await lane.queue.get()
            if item is None:
                break
            batch = [item]
            while len(batch) < self.config.batch_max:
                try:
                    extra = lane.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    stopping = True
                    break
                batch.append(extra)
            self._batches.inc()
            self._batched_ops.inc(len(batch))
            self._batch_size.observe(float(len(batch)))
            ops = [op for op, _future in batch]
            try:
                results = await lane.shard.call("execute", ops)
            except Exception as exc:  # noqa: BLE001 — fail the batch, not us
                for _op, future in batch:
                    if not future.done():
                        future.set_exception(
                            ShardError(f"shard {lane.shard.index} batch "
                                       f"failed: {exc}"))
                continue
            for (_op, future), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)

    def _submit(self, lane: _Lane, op: tuple) -> asyncio.Future:
        """Admission control: enqueue or raise ``_Busy`` immediately."""
        future = asyncio.get_running_loop().create_future()
        try:
            lane.queue.put_nowait((op, future))
        except asyncio.QueueFull:
            self._busy.inc()
            raise _Busy(
                f"shard {lane.shard.index} queue is full "
                f"({self.config.queue_depth} ops); retry with backoff"
            ) from None
        return future

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()           # serializes frame writes per conn
        pending: set[asyncio.Task] = set()

        async def respond(payload: dict) -> None:
            async with lock:
                writer.write(encode_frame(payload))
                await writer.drain()

        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as exc:
                    # stream can no longer be framed: one terminal error,
                    # then drop the connection
                    self._proto_errors.inc()
                    with contextlib.suppress(ConnectionError):
                        await respond(error_response(
                            None, ErrorCode.BAD_REQUEST, str(exc)))
                    break
                if request is None:
                    break
                # pipelining: each request is served concurrently; the
                # per-connection lock keeps response frames whole
                task = asyncio.ensure_future(
                    self._serve_request(request, respond))
                pending.add(task)
                task.add_done_callback(pending.discard)
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            # CancelledError: the loop may be tearing down mid-close; this
            # is the handler's last statement, nothing is left to cancel
            with contextlib.suppress(ConnectionError,
                                     asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_request(self, request: dict, respond) -> None:
        request_id = request.get("id")
        self._requests.inc()
        try:
            response = await self._dispatch(request_id, request)
        except _Busy as exc:
            response = error_response(request_id, ErrorCode.BUSY, str(exc))
        except _RequestError as exc:
            response = error_response(request_id, exc.code, str(exc))
        except ShardError as exc:
            response = error_response(request_id, ErrorCode.INTERNAL,
                                      str(exc))
        except Exception as exc:  # noqa: BLE001 — a bug must not kill serving
            response = error_response(
                request_id, ErrorCode.INTERNAL,
                f"{type(exc).__name__}: {exc}")
        with contextlib.suppress(ConnectionError):
            await respond(response)

    # -- request dispatch ---------------------------------------------------

    async def _dispatch(self, request_id, request: dict) -> dict:
        op = request.get("op")
        if not isinstance(op, str):
            raise _RequestError(ErrorCode.BAD_REQUEST,
                                "request needs a string 'op' field")
        if self._closing and op != "ping":
            raise _RequestError(ErrorCode.SHUTDOWN, "server is stopping")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise _RequestError(ErrorCode.UNKNOWN_OP,
                                f"unknown op {op!r}")
        return await handler(request_id, request)

    def _authed(self, request: dict) -> tuple[str, _TenantInfo]:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise _RequestError(ErrorCode.BAD_REQUEST,
                                "request needs a non-empty 'tenant' field")
        info = self._tenants.get(tenant)
        if info is None:
            raise _RequestError(ErrorCode.NO_TENANT,
                                f"tenant {tenant!r} is not open")
        token = request.get("token")
        if not isinstance(token, str) or not hmac.compare_digest(
                info.token, token):
            raise _RequestError(ErrorCode.AUTH,
                                f"bad token for tenant {tenant!r}")
        return tenant, info

    def _route(self, address: Any) -> tuple[int, int]:
        """Tenant byte address -> (shard index, shard-local address)."""
        if not isinstance(address, int) or isinstance(address, bool):
            raise _RequestError(ErrorCode.BAD_REQUEST,
                                f"address must be an integer, "
                                f"got {address!r}")
        if address < 0 or address >= self.config.tenant_bytes:
            raise _RequestError(
                ErrorCode.BAD_REQUEST,
                f"address {address:#x} outside the tenant space "
                f"[0, {self.config.tenant_bytes:#x})")
        if address % self.block_size:
            raise _RequestError(
                ErrorCode.BAD_REQUEST,
                f"address {address:#x} is not {self.block_size}-byte "
                "block-aligned")
        block = address // self.block_size
        shard = block % self.config.num_shards
        local = (block // self.config.num_shards) * self.block_size
        return shard, local

    @staticmethod
    def _check_result(result: tuple) -> Any:
        if result[0] == "ok":
            return result[1]
        _tag, code, detail = result
        raise _RequestError(code, detail)

    # each op below is named _op_<wire name> and found via getattr

    async def _op_ping(self, request_id, request: dict) -> dict:
        return ok_response(request_id, pong=True)

    async def _op_open_tenant(self, request_id, request: dict) -> dict:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise _RequestError(ErrorCode.BAD_REQUEST,
                                "open_tenant needs a non-empty 'tenant'")
        if tenant in self._tenants:
            raise _RequestError(ErrorCode.TENANT_EXISTS,
                                f"tenant {tenant!r} is already open")
        recovery = request.get("recovery")
        if recovery is not None and recovery not in (
                "halt", "quarantine_page", "degrade"):
            raise _RequestError(
                ErrorCode.BAD_REQUEST,
                f"unknown recovery policy {recovery!r} (want 'halt', "
                "'quarantine_page', or 'degrade')")
        await asyncio.gather(*[
            lane.shard.call("open_tenant", {"tenant": tenant, "epoch": 0,
                                            "recovery": recovery})
            for lane in self._lanes])
        info = _TenantInfo(secrets.token_hex(16), recovery)
        self._tenants[tenant] = info
        return ok_response(request_id, token=info.token, epoch=0,
                           tenant_bytes=self.config.tenant_bytes,
                           block_size=self.block_size)

    async def _op_close_tenant(self, request_id, request: dict) -> dict:
        tenant, _info = self._authed(request)
        await asyncio.gather(*[lane.shard.call("close_tenant", tenant)
                               for lane in self._lanes])
        del self._tenants[tenant]
        return ok_response(request_id, closed=tenant)

    async def _op_rotate_epoch(self, request_id, request: dict) -> dict:
        tenant, info = self._authed(request)
        epochs = await asyncio.gather(*[lane.shard.call("rotate", tenant)
                                        for lane in self._lanes])
        info.epoch = epochs[0]
        return ok_response(request_id, epoch=info.epoch)

    async def _op_read(self, request_id, request: dict) -> dict:
        tenant, _info = self._authed(request)
        addresses = request.get("addresses")
        if not isinstance(addresses, list) or not addresses:
            raise _RequestError(ErrorCode.BAD_REQUEST,
                                "read needs a non-empty 'addresses' list")
        if len(addresses) > self.config.max_request_blocks:
            raise _RequestError(
                ErrorCode.BAD_REQUEST,
                f"read names {len(addresses)} blocks (cap is "
                f"{self.config.max_request_blocks})")
        per_shard: dict[int, list[tuple[int, int]]] = {}
        for position, address in enumerate(addresses):
            shard, local = self._route(address)
            per_shard.setdefault(shard, []).append((position, local))
        futures = []
        for shard, entries in per_shard.items():
            op = ("read", tenant, [local for _pos, local in entries])
            futures.append((entries, self._submit(self._lanes[shard], op)))
        data: list[str | None] = [None] * len(addresses)
        for (entries, future) in futures:
            blocks = self._check_result(await future)
            for (position, _local), block in zip(entries, blocks):
                data[position] = block.hex()
        return ok_response(request_id, data=data)

    async def _op_write(self, request_id, request: dict) -> dict:
        tenant, _info = self._authed(request)
        writes = request.get("writes")
        if not isinstance(writes, list) or not writes:
            raise _RequestError(ErrorCode.BAD_REQUEST,
                                "write needs a non-empty 'writes' list of "
                                "[address, hex_data] pairs")
        if len(writes) > self.config.max_request_blocks:
            raise _RequestError(
                ErrorCode.BAD_REQUEST,
                f"write names {len(writes)} blocks (cap is "
                f"{self.config.max_request_blocks})")
        per_shard: dict[int, list[tuple[int, bytes]]] = {}
        for entry in writes:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2):
                raise _RequestError(
                    ErrorCode.BAD_REQUEST,
                    "each write must be an [address, hex_data] pair")
            address, hex_data = entry
            shard, local = self._route(address)
            try:
                payload = bytes.fromhex(hex_data)
            except (TypeError, ValueError):
                raise _RequestError(
                    ErrorCode.BAD_REQUEST,
                    f"write data for address {address:#x} is not a hex "
                    "string") from None
            if len(payload) != self.block_size:
                raise _RequestError(
                    ErrorCode.BAD_REQUEST,
                    f"write data for address {address:#x} is "
                    f"{len(payload)} bytes (block size is "
                    f"{self.block_size})")
            per_shard.setdefault(shard, []).append((local, payload))
        futures = [
            self._submit(self._lanes[shard], ("write", tenant, pairs))
            for shard, pairs in per_shard.items()]
        written = 0
        for future in futures:
            written += self._check_result(await future)
        return ok_response(request_id, written=written)

    async def _op_corrupt(self, request_id, request: dict) -> dict:
        """Fault injection (tests / CI smoke): flip DRAM bits of one block.

        A control op: it skips the lane's op queue and goes straight to
        the shard, where it queues first in, first out behind whatever the
        shard is already running (the worker answers its socket's frames
        in order; an inline shard runs each call whole on the loop).  So
        it lands between two batches, never inside one.
        """
        tenant, _info = self._authed(request)
        shard, local = self._route(request.get("address"))
        await self._lanes[shard].shard.call(
            "corrupt", {"tenant": tenant, "address": local})
        return ok_response(request_id, corrupted=request["address"],
                           shard=shard)

    async def _op_metrics(self, request_id, request: dict) -> dict:
        """Per-tenant metrics: per-shard scalar snapshots + a summed view.

        Integer counters (accesses, hits, retries, quarantined pages...)
        are summed across shards; rates/floats don't sum meaningfully and
        stay per-shard only.
        """
        tenant, info = self._authed(request)
        snapshots = await asyncio.gather(*[lane.shard.call("metrics", tenant)
                                           for lane in self._lanes])
        aggregate: dict[str, int] = {}
        for snapshot in snapshots:
            for name, value in snapshot["metrics"].items():
                if isinstance(value, int) and not isinstance(value, bool):
                    aggregate[name] = aggregate.get(name, 0) + value
        return ok_response(
            request_id,
            tenant=tenant,
            epoch=info.epoch,
            recovery_policy=info.recovery,
            halted=[s["halted"] for s in snapshots],
            aggregate=aggregate,
            shards={str(index): snapshot["metrics"]
                    for index, snapshot in enumerate(snapshots)})

    async def _op_stats(self, request_id, request: dict) -> dict:
        """Server-level serve.* metrics (unauthenticated, no tenant data)."""
        return ok_response(
            request_id,
            uptime_s=time.monotonic() - self._started,
            num_shards=self.config.num_shards,
            backend=self.config.backend,
            scheme=self.config.scheme,
            tenants=len(self._tenants),
            queue_depths=[lane.queue.qsize() for lane in self._lanes],
            metrics=self.metrics.snapshot())


class _Busy(Exception):
    """Admission control verdict: lane queue full, client should back off."""


class _RequestError(Exception):
    """A request-level failure with a wire error code."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code


async def _serve_forever(service: SecureMemoryService,
                         ready=None) -> None:
    import signal

    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signum, stop.set)
    if ready is not None:
        ready(service.address)
    try:
        await stop.wait()
    finally:
        await service.stop()


def run_server(config: ServeConfig, *, ready=None) -> None:
    """Blocking entry point behind ``python -m repro serve``.

    ``ready(address)`` is called once the socket is bound — the CLI uses
    it to print the endpoint, tests could use it for synchronization.
    Returns after SIGINT/SIGTERM once all lanes have drained.
    """
    asyncio.run(_serve_forever(SecureMemoryService(config), ready=ready))
