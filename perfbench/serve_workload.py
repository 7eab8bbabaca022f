"""The ``serve`` workload: a closed loop of pipelined-client requests
against an in-process multi-tenant service with one process-backed shard.

Each connection owns one tenant and sends its next request only after
the previous reply.  The seed makes every request: kind (65% reads),
size in {1, 2, 4, 8, 16} blocks, block addresses inside the tenant's
footprint, and write payloads.  The per-(tenant, shard) L2 is far smaller
than the footprint, so most blocks take the functional miss path
(decrypt, MAC, Merkle).  A shadow copy of every tenant's blocks checks
each read payload.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

from common import (
    HostSpeed,
    import_probe_s,
    median,
    nproc,
    percentile,
    timing_metrics,
)
from spans import SpanRecorder, residual_frac, write_chrome_trace

SCHEME = "split+gcm"
MAX_BUSY_RETRIES = 50
#: service set-ups per run; ``setup_s`` reports their median
SETUP_TRIALS = 5
FILL_CHUNK = 64
#: the closed loop is summarized per window of this length, and the run
#: reports the median window, so a burst of host noise moves one window
#: rather than the run; the host is calibrated between windows, when no
#: request is in flight, and each window is normalized by the samples
#: around it
WINDOW_S = 1.0
READ_FRACTION = 0.65
#: request sizes in blocks, spanning the ~10-block crossover between the
#: table and vector crypto kernels
SIZES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class ServePlan:
    footprint_blocks: int = 1024        # per tenant: 64 KiB
    l2_size: int = 4096                 # per (tenant, shard): 64 blocks


SERVE_PLAN = ServePlan()


def connections() -> int:
    return min(2, nproc())


# -- inputs -------------------------------------------------------------------


def op_stream(seed: int, connection: int, plan: ServePlan,
              block_size: int = 64):
    """Endless seeded requests of one connection: (kind, addrs, payloads)."""
    rng = random.Random(f"serve:{seed}:{connection}")
    blocks = range(plan.footprint_blocks)
    while True:
        is_read = rng.random() < READ_FRACTION
        addrs = [b * block_size
                 for b in rng.sample(blocks, rng.choice(SIZES))]
        if is_read:
            yield ("read", addrs, None)
        else:
            yield ("write", addrs,
                   [rng.randbytes(block_size) for _ in addrs])


def fill_chunks(seed: int, connection: int, plan: ServePlan,
                block_size: int = 64):
    """The seeded writes that initialize one tenant's whole footprint."""
    rng = random.Random(f"fill:{seed}:{connection}")
    for start in range(0, plan.footprint_blocks, FILL_CHUNK):
        stop = min(start + FILL_CHUNK, plan.footprint_blocks)
        yield [(b * block_size, rng.randbytes(block_size))
               for b in range(start, stop)]


# -- the live service ---------------------------------------------------------


class _Tenant:
    def __init__(self, name: str, token: str):
        self.name = name
        self.token = token
        self.shadow: dict[int, bytes] = {}
        #: every request sent, in order, for the traced run's replay
        self.log: list[tuple] = []


async def _start(seed: int, plan: ServePlan):
    from repro.serve import SecureMemoryService, ServeClient, ServeConfig

    service = SecureMemoryService(ServeConfig(
        scheme=SCHEME, num_shards=1, backend="process",
        l2_size=plan.l2_size))
    await service.start()
    host, port = service.address
    tenants = []
    async with ServeClient(host, port) as admin:
        for index in range(connections()):
            name = f"bench-{index}"
            opened = await admin.open_tenant(name)
            tenant = _Tenant(name, opened["token"])
            for pairs in fill_chunks(seed, index, plan):
                await admin.write(name, tenant.token, pairs)
                tenant.shadow.update(pairs)
            tenants.append(tenant)
    return service, tenants


class _Loop:
    """Results of one timed phase across all connections."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = {"read": [], "write": []}
        #: every latency in completion order, and per window
        #: (p50 s, p90 s, requests/s)
        self.ordered: list[float] = []
        self.windows: list[tuple[float, float, float]] = []
        self.failed = 0
        self.busy = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies["read"]) + len(self.latencies["write"])


async def _connection(client, tenant: _Tenant, ops, deadline: float,
                      out: _Loop, rec: SpanRecorder | None,
                      lane: int | None) -> None:
    from repro.serve import ServeError
    from repro.serve.protocol import ErrorCode

    while time.perf_counter() < deadline:
        gen_start = time.perf_counter_ns()
        kind, addrs, payloads = next(ops)
        tenant.log.append((kind, addrs, payloads))
        sent = time.perf_counter_ns()
        got, ok = None, True
        for attempt in range(MAX_BUSY_RETRIES + 1):
            try:
                if kind == "read":
                    got = await client.read(tenant.name, tenant.token, addrs)
                else:
                    await client.write(tenant.name, tenant.token,
                                       list(zip(addrs, payloads)))
                break
            except ServeError as exc:
                if exc.code != ErrorCode.BUSY or attempt == MAX_BUSY_RETRIES:
                    ok = False
                    break
                out.busy += 1
                await asyncio.sleep(min(0.1, 0.001 * 2 ** min(attempt, 6)))
        replied = time.perf_counter_ns()
        if ok and kind == "read":
            ok = all(tenant.shadow.get(a) == data
                     for a, data in zip(addrs, got))
        elif ok:
            tenant.shadow.update(zip(addrs, payloads))
        out.failed += not ok
        out.latencies[kind].append((replied - sent) / 1e9)
        out.ordered.append((replied - sent) / 1e9)
        if rec is not None:
            rec.record(f"serve.request.{kind}", sent, replied, lane)
            rec.record("bench.client", gen_start, sent, lane)
            rec.record("bench.client", replied, time.perf_counter_ns(), lane)


async def _drive(service, tenants, streams, seconds: float,
                 rec: SpanRecorder | None = None,
                 host: HostSpeed | None = None) -> _Loop:
    from repro.serve import ServeClient

    out = _Loop()
    clients = [ServeClient(*service.address) for _ in tenants]
    for client in clients:
        await client.connect()
    try:
        lanes = [None] * len(tenants)
        if rec is not None:
            lanes = [rec.record("serve.conn", 0, 0, -1) for _ in tenants]
        begun = time.perf_counter_ns()
        if host is not None:
            host.sample()
        while out.wall < seconds:
            started = time.perf_counter()
            first = len(out.ordered)
            deadline = started + min(WINDOW_S, seconds - out.wall)
            await asyncio.gather(*[
                _connection(client, tenant, stream, deadline, out, rec,
                            lane)
                for client, tenant, stream, lane
                in zip(clients, tenants, streams, lanes)])
            elapsed = time.perf_counter() - started
            out.wall += elapsed
            slowdown = 1.0
            if host is not None:
                host.sample()
                slowdown = host.recent_slowdown()
            window = out.ordered[first:]
            out.windows.append((percentile(window, 0.5) / slowdown,
                                percentile(window, 0.9) / slowdown,
                                len(window) / elapsed * slowdown))
        if rec is not None:
            for lane in lanes:
                rec.starts[lane] = begun
                rec.ends[lane] = max(rec.ends[i] for i, p
                                     in enumerate(rec.parents) if p == lane)
    finally:
        for client in clients:
            await client.close()
    return out


def _streams(seed: int, plan: ServePlan) -> list:
    return [op_stream(seed, index, plan) for index in range(connections())]


async def _run(seed: int, seconds: float, plan: ServePlan,
               host: HostSpeed) -> dict:
    """Median of ``SETUP_TRIALS`` normalized set-ups, then the loop on
    the last one."""
    setup_host, trials = HostSpeed(), []
    setup_host.sample()
    for trial in range(SETUP_TRIALS):
        started = time.perf_counter()
        service, tenants = await _start(seed, plan)
        trials.append(setup_host.bracket(time.perf_counter() - started))
        if trial < SETUP_TRIALS - 1:
            await service.stop()
    try:
        out = await _drive(service, tenants, _streams(seed, plan), seconds,
                           host=host)
    finally:
        await service.stop()
    return {"setup": median(trials), "loop": out}


def run_serve(seed: int, seconds: float) -> dict:
    """Closed loop of reads and writes for ``seconds``."""
    host = HostSpeed()
    probe = import_probe_s()
    result = asyncio.run(_run(seed, seconds, SERVE_PLAN, host))
    out: _Loop = result["loop"]
    p50s, p90s, rates = zip(*out.windows)
    return {"attempted": out.attempted, "failed": out.failed,
            "metrics": timing_metrics(probe + result["setup"], median(p50s),
                                      median(p90s), median(rates),
                                      host=host)}


# -- traced run ---------------------------------------------------------------


async def _traced_live(seed: int, seconds: float, plan: ServePlan,
                       rec: SpanRecorder) -> dict:
    import repro.serve.client as client_mod
    import repro.serve.protocol as protocol_mod
    import repro.serve.server as server_mod
    from repro.serve import ServeClient

    service, tenants = await _start(seed, plan)
    streams = _streams(seed, plan)
    try:
        untraced = await _drive(service, tenants, streams, seconds / 2)
        marks = [len(tenant.log) for tenant in tenants]
        async with ServeClient(*service.address) as admin:
            before = (await admin.stats())["metrics"]
        try:
            rec.time_calls(client_mod, "encode_frame", "serve.encode")
            rec.time_calls(server_mod, "encode_frame", "serve.encode")
            rec.time_calls(protocol_mod, "decode_frame", "serve.decode")
            traced = await _drive(service, tenants, streams, seconds / 2,
                                  rec)
        finally:
            rec.restore()
        async with ServeClient(*service.address) as admin:
            after = (await admin.stats())["metrics"]
    finally:
        await service.stop()
    batches = after["serve.batches"] - before["serve.batches"]
    return {"tenants": tenants, "marks": marks, "untraced": untraced,
            "traced": traced,
            "ops_per_batch": (after["serve.batched_ops"]
                              - before["serve.batched_ops"]) / batches}


def _replay(seed: int, plan: ServePlan, tenants, marks,
            rec: SpanRecorder) -> tuple[list[list[int]], int, float]:
    """Re-execute every request in-process through a ``ShardCore`` built
    like the service's shard; only the traced phase is timed.  Returns
    per-request shard times (ns) per tenant, replay mismatches, and the
    L2 hit rate over the traced phase."""
    import repro.core.secure_memory as memory_mod
    from repro.api import get_config
    from repro.auth.merkle import MerkleTree
    from repro.auth.schemes import GCMMACScheme
    from repro.serve import ServeConfig
    from repro.serve.shard import ShardCore

    config = ServeConfig(scheme=SCHEME, num_shards=1, backend="process",
                         l2_size=plan.l2_size)
    core = ShardCore(0, 1, get_config(SCHEME), config.tenant_bytes,
                     config.base_key, l2_size=plan.l2_size)
    shadows = []
    for index, tenant in enumerate(tenants):
        core.open_tenant(tenant.name)
        shadow: dict[int, bytes] = {}
        for pairs in fill_chunks(seed, index, plan):
            core.execute([("write", tenant.name, pairs)])
            shadow.update(pairs)
        shadows.append(shadow)

    def step(tenant: _Tenant, shadow: dict, request) -> bool:
        kind, addrs, payloads = request
        if kind == "write":
            pairs = list(zip(addrs, payloads))
            (result,) = core.execute([("write", tenant.name, pairs)])
            shadow.update(pairs)
            return result[0] == "ok"
        (result,) = core.execute([("read", tenant.name, addrs)])
        return result[0] == "ok" and all(
            shadow[a] == data for a, data in zip(addrs, result[1]))

    mismatches = 0
    for tenant, shadow, mark in zip(tenants, shadows, marks):
        for request in tenant.log[:mark]:
            mismatches += not step(tenant, shadow, request)
    l2_before = [core.metrics(t.name)["metrics"] for t in tenants]

    def blocks(_self, items, *_args, **_kwargs) -> int:
        return len(items)

    rec.wrap(core, "execute", "serve.shard")
    rec.wrap(memory_mod.SecureMemorySystem, "read_blocks",
             "core.read_blocks", units=blocks)
    rec.wrap(memory_mod.SecureMemorySystem, "write_blocks",
             "core.write_blocks", units=blocks)
    rec.wrap(memory_mod, "bulk_ctr_transform", "crypto.ctr",
             units=lambda _aes, items, **_kw: len(items))
    rec.wrap(memory_mod, "ctr_transform", "crypto.ctr",
             units=lambda *_args: 1)
    rec.wrap(GCMMACScheme, "compute", "crypto.mac", units=lambda *_a: 1)
    rec.wrap(GCMMACScheme, "compute_many", "crypto.mac", units=blocks)
    rec.wrap(MerkleTree, "verify_leaves", "auth.verify_leaves")
    rec.wrap(MerkleTree, "update_leaf", "auth.update_leaf")
    shard_ns: list[list[int]] = []
    try:
        root = rec.begin("serve.replay")
        for tenant, shadow, mark in zip(tenants, shadows, marks):
            spans_before = len(rec.names)
            for request in tenant.log[mark:]:
                mismatches += not step(tenant, shadow, request)
            shard_ns.append([
                rec.ends[i] - rec.starts[i]
                for i in range(spans_before, len(rec.names))
                if rec.names[i] == "serve.shard"])
        rec.end(root)
    finally:
        rec.restore()
    hits = accesses = 0
    for tenant, early in zip(tenants, l2_before):
        late = core.metrics(tenant.name)["metrics"]
        hits += late["l2.hits"] - early["l2.hits"]
        accesses += late["l2.accesses"] - early["l2.accesses"]
    return shard_ns, mismatches, hits / accesses if accesses else 0.0


def trace_serve(seed: int, seconds: float,
                trace_out: str | None = None) -> dict:
    """Half the time untraced, half traced, then the traced half's
    requests replayed in-process for the shard-side layers."""
    plan, rec = SERVE_PLAN, SpanRecorder()
    live = asyncio.run(_traced_live(seed, seconds, plan, rec))
    tenants, marks = live["tenants"], live["marks"]
    untraced: _Loop = live["untraced"]
    traced: _Loop = live["traced"]
    shard_ns, mismatches, hit_rate = _replay(seed, plan, tenants, marks, rec)

    transport = []
    request_ns = {index: [] for index in range(len(tenants))}
    lane_of = {lane: n for n, lane in enumerate(
        i for i, name in enumerate(rec.names) if name == "serve.conn")}
    for i, name in enumerate(rec.names):
        if name.startswith("serve.request."):
            request_ns[lane_of[rec.parents[i]]].append(
                rec.ends[i] - rec.starts[i])
    for index, rtts in request_ns.items():
        transport.extend((rtt - shard) / 1e6
                         for rtt, shard in zip(rtts, shard_ns[index]))

    def total(name: str) -> tuple[float, int]:
        durations = rec.durations_ns(name)
        return sum(durations), rec.counts.get(name, [0, 0])[1]

    def us_per_unit(name: str) -> float:
        ns, units = total(name)
        return ns / 1e3 / units if units else 0.0

    encode = rec.counts.get("serve.encode", [0, 0])
    decode = rec.counts.get("serve.decode", [0, 0])
    layers = {
        "serve.rtt_ms.read": median(traced.latencies["read"]) * 1e3,
        "serve.rtt_ms.write": median(traced.latencies["write"]) * 1e3,
        "serve.transport_ms": median(transport),
        "serve.codec_us": ((encode[1] + decode[1]) / 1e3 / encode[0]
                           if encode[0] else 0.0),
        "serve.shard_ms": median(
            ns / 1e6 for per_tenant in shard_ns for ns in per_tenant),
        "serve.ops_per_batch": live["ops_per_batch"],
        "serve.busy_retries": float(untraced.busy + traced.busy),
        "core.read_blocks_us_per_block": us_per_unit("core.read_blocks"),
        "core.write_blocks_us_per_block": us_per_unit("core.write_blocks"),
        "crypto.ctr_us_per_block": us_per_unit("crypto.ctr"),
        "crypto.mac_us_per_block": us_per_unit("crypto.mac"),
        "auth.verify_leaves_us": median(
            d / 1e3 for d in rec.durations_ns("auth.verify_leaves")),
        "auth.update_leaf_us": median(
            d / 1e3 for d in rec.durations_ns("auth.update_leaf")),
        "core.l2_hit_rate": hit_rate,
        "residual_frac": residual_frac(rec),
        "trace_overhead_frac": (
            (traced.wall / traced.attempted)
            / (untraced.wall / untraced.attempted) - 1.0),
    }
    if trace_out is not None:
        write_chrome_trace(rec, trace_out)
    attempted = untraced.attempted + traced.attempted
    return {"attempted": attempted,
            "failed": untraced.failed + traced.failed + mismatches,
            "layers": layers}
