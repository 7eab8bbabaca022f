"""Shard backends: per-tenant secure-memory systems behind one dispatch.

A *shard* owns one :class:`~repro.core.SecureMemorySystem` per tenant and
executes coalesced op batches against them.  The same synchronous engine
(:class:`ShardCore`) runs in two places:

* :class:`InlineShard` — in the server process.  Deterministic and cheap;
  what the unit tests and quick smoke paths use.
* :class:`ProcessShard` — inside a spawned worker process, one per shard,
  driven over a socket pair.  This is what makes ``--shards N`` scale on
  a multi-core host: each shard's crypto (AES pads, GHASH MACs, Merkle
  walks) runs on its own core, outside the server's GIL.

Both expose one awaitable ``call(kind, payload)``.  A process shard's
socket belongs to the server's event loop: a call writes one
length-prefixed pickle frame without blocking and awaits its reply, which
the worker sends in request order, so no thread ever waits on a shard.
The worker's death is an EOF on that socket, and every pending and later
call then fails with :class:`ShardError`.

Tenant isolation is structural, not advisory: every tenant gets its own
system per shard, keyed by ``sha256(base_key, tenant, epoch)`` — separate
key material, separate DRAM image, separate Merkle tree, separate
recovery controller.  There is no address a tenant can name that reaches
another tenant's state, and rotating a tenant's key epoch rebuilds only
that tenant's systems.

Batches funnel into the existing ``read_blocks``/``write_blocks`` batch
path: consecutive same-kind ops of one tenant merge into a single bulk
call, so a burst of concurrent single-block requests is serviced with one
AES dispatch and one Merkle walk per shared parent, exactly like the
simulator's batch path.  The merged batch's size picks its crypto kernel:
the NumPy vector kernel from ``VECTOR_MIN_*`` blocks up
(:mod:`repro.crypto.vector`), the table kernel below, so coalescing is
what moves a burst onto the vector kernel.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import math
import multiprocessing
import pickle
import signal
import socket
from collections import deque
from typing import Any

from repro.serve.protocol import ErrorCode

__all__ = [
    "InlineShard",
    "ProcessShard",
    "ShardCore",
    "ShardError",
    "derive_tenant_key",
]


class ShardError(RuntimeError):
    """A shard worker failed outside the per-op error protocol."""


def derive_tenant_key(base_key: bytes, tenant: str, epoch: int) -> bytes:
    """Per-tenant, per-epoch base key for one tenant's systems.

    Mixing the epoch into the derivation is what makes ``rotate_epoch`` a
    real re-keying: systems built for epoch ``e+1`` share no key material
    with epoch ``e`` (or with any other tenant).
    """
    digest = hashlib.sha256()
    digest.update(b"repro-serve-tenant\x00")
    digest.update(base_key)
    digest.update(b"\x00")
    digest.update(tenant.encode("utf-8"))
    digest.update(epoch.to_bytes(8, "big"))
    return digest.digest()[:16]


class _TenantShardState:
    """One tenant's slice of one shard: the system plus tenant facts."""

    __slots__ = ("system", "epoch", "recovery", "halted")

    def __init__(self, system, epoch: int, recovery: str | None):
        self.system = system
        self.epoch = epoch
        self.recovery = recovery
        self.halted = False


class ShardCore:
    """Synchronous executor of coalesced op batches for one shard."""

    def __init__(self, index: int, num_shards: int, config,
                 protected_bytes: int, base_key: bytes,
                 l2_size: int = 64 * 1024):
        from repro.core.config import SecureMemoryConfig

        if not isinstance(config, SecureMemoryConfig):
            raise TypeError("ShardCore wants a SecureMemoryConfig")
        self.index = index
        self.num_shards = num_shards
        self.config = config
        self.protected_bytes = protected_bytes
        self.l2_size = l2_size
        self.block_size = config.block_size
        self._base_key = bytes(base_key)
        self._tenants: dict[str, _TenantShardState] = {}

    # -- tenant lifecycle ---------------------------------------------------

    def _build_system(self, tenant: str, epoch: int, recovery: str | None):
        from repro.core.config import RecoveryConfig, RecoveryPolicy
        from repro.core.secure_memory import SecureMemorySystem

        config = self.config
        if recovery is not None:
            config = config.with_updates(recovery=RecoveryConfig(
                enabled=True, policy=RecoveryPolicy(recovery)))
        return SecureMemorySystem(
            config, protected_bytes=self.protected_bytes,
            base_key=derive_tenant_key(self._base_key, tenant, epoch),
            l2_size=self.l2_size)

    def open_tenant(self, tenant: str, *, epoch: int = 0,
                    recovery: str | None = None) -> None:
        self._tenants[tenant] = _TenantShardState(
            self._build_system(tenant, epoch, recovery), epoch, recovery)

    def close_tenant(self, tenant: str) -> None:
        self._tenants.pop(tenant, None)

    def rotate_epoch(self, tenant: str) -> int:
        """Bump the tenant's key epoch: fresh systems under a fresh key.

        The old epoch's DRAM image (and any quarantine/halt verdicts)
        is discarded with the old key — an epoch is a hard reset of the
        tenant's address space, which is exactly what makes it useful
        after a halt or a suspected compromise.
        """
        state = self._require(tenant)
        epoch = state.epoch + 1
        self._tenants[tenant] = _TenantShardState(
            self._build_system(tenant, epoch, state.recovery),
            epoch, state.recovery)
        return epoch

    def _require(self, tenant: str) -> _TenantShardState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise ShardError(f"tenant {tenant!r} not opened on shard "
                             f"{self.index}") from None

    # -- batch execution ----------------------------------------------------

    @staticmethod
    def _error_for(exc: Exception) -> tuple[str, str, str]:
        from repro.resilience.recovery import (
            IntegrityViolation,
            QuarantinedPageError,
            RecoveryHalted,
        )

        if isinstance(exc, RecoveryHalted):
            return ("error", ErrorCode.HALTED, str(exc))
        if isinstance(exc, QuarantinedPageError):
            return ("error", ErrorCode.QUARANTINED, str(exc))
        if isinstance(exc, IntegrityViolation):
            return ("error", ErrorCode.INTEGRITY, str(exc))
        if isinstance(exc, ValueError):
            return ("error", ErrorCode.BAD_REQUEST, str(exc))
        return ("error", ErrorCode.INTERNAL,
                f"{type(exc).__name__}: {exc}")

    def execute(self, ops: list[tuple]) -> list[tuple]:
        """Run one coalesced batch; one result tuple per op, in order.

        ``ops`` entries are ``("read", tenant, [addr, ...])`` or
        ``("write", tenant, [(addr, data), ...])`` with shard-local
        block-aligned addresses.  Consecutive same-kind ops of the same
        tenant merge into one ``read_blocks``/``write_blocks`` call (the
        coalescing contract); kind changes are barriers so read-after-
        write ordering within a tenant is preserved.

        Results are ``("ok", payload)`` or ``("error", code, detail)``.
        A failure poisons only its own merged run — other tenants, and
        the same tenant's later runs (unless halted), proceed.
        """
        from repro.resilience.recovery import RecoveryHalted

        results: list[tuple | None] = [None] * len(ops)
        # per-tenant runs of consecutive same-kind ops, preserving each
        # tenant's own op order
        runs: list[tuple[str, str, list[int]]] = []  # (kind, tenant, idxs)
        last_run_for: dict[str, int] = {}
        for position, (kind, tenant, _payload) in enumerate(ops):
            run_index = last_run_for.get(tenant)
            if run_index is not None and runs[run_index][0] == kind:
                runs[run_index][2].append(position)
            else:
                runs.append((kind, tenant, [position]))
                last_run_for[tenant] = len(runs) - 1
        for kind, tenant, positions in runs:
            try:
                state = self._require(tenant)
            except ShardError as exc:
                for position in positions:
                    results[position] = ("error", ErrorCode.NO_TENANT,
                                         str(exc))
                continue
            if state.halted:
                for position in positions:
                    results[position] = (
                        "error", ErrorCode.HALTED,
                        f"tenant {tenant!r} is halted on shard "
                        f"{self.index} (persistent integrity fault); "
                        "rotate_epoch to recover")
                continue
            try:
                if kind == "read":
                    addrs = [addr for position in positions
                             for addr in ops[position][2]]
                    data = state.system.read_blocks(addrs)
                    cursor = 0
                    for position in positions:
                        take = len(ops[position][2])
                        results[position] = (
                            "ok", data[cursor:cursor + take])
                        cursor += take
                elif kind == "write":
                    pairs = [pair for position in positions
                             for pair in ops[position][2]]
                    state.system.write_blocks(pairs)
                    for position in positions:
                        results[position] = ("ok", len(ops[position][2]))
                else:
                    for position in positions:
                        results[position] = (
                            "error", ErrorCode.BAD_REQUEST,
                            f"unknown op kind {kind!r}")
            except Exception as exc:  # noqa: BLE001 — per-op verdicts
                if isinstance(exc, RecoveryHalted):
                    state.halted = True
                verdict = self._error_for(exc)
                for position in positions:
                    results[position] = verdict
        return results  # type: ignore[return-value]

    # -- fault injection (tests / CI smoke) ---------------------------------

    def corrupt(self, tenant: str, address: int) -> None:
        """Flip ciphertext bits of one block in the tenant's DRAM image.

        The system is flushed first (so DRAM holds the authoritative
        image) and the L2 line is invalidated, so the next read must
        re-fetch and re-verify — and the verification fails.  A DRAM
        corruption is *persistent*: recovery re-reads see the same bad
        bytes, so the tenant's configured policy (halt / quarantine /
        degrade) decides the outcome.
        """
        state = self._require(tenant)
        system = state.system
        system.flush()
        raw = bytearray(system.dram.read_block(address))
        raw[0] ^= 0xFF
        system.dram.write_block(address, bytes(raw))
        system.l2.invalidate(address)

    # -- metrics ------------------------------------------------------------

    def metrics(self, tenant: str) -> dict[str, Any]:
        """Scalar metrics snapshot of one tenant's slice of this shard.

        Built on :meth:`MetricsRegistry.snapshot`, which returns frozen
        copies — a scrape can never alias in-flight mutation.  NaN (e.g. a
        hit rate with zero accesses) becomes ``None`` so the payload stays
        strict-JSON clean.
        """
        state = self._require(tenant)
        snapshot = state.system.metrics.snapshot()
        scalars = {
            name: (None if isinstance(value, float) and math.isnan(value)
                   else value)
            for name, value in snapshot.items()
            if isinstance(value, (int, float))
        }
        return {
            "epoch": state.epoch,
            "recovery_policy": state.recovery,
            "halted": state.halted,
            "metrics": scalars,
        }

    def tenants(self) -> list[str]:
        return sorted(self._tenants)

    # -- uniform dispatch (the socket protocol and InlineShard share it) ----

    def dispatch(self, kind: str, payload: Any) -> Any:
        if kind == "execute":
            return self.execute(payload)
        if kind == "open_tenant":
            return self.open_tenant(payload["tenant"],
                                    epoch=payload.get("epoch", 0),
                                    recovery=payload.get("recovery"))
        if kind == "close_tenant":
            return self.close_tenant(payload)
        if kind == "rotate":
            return self.rotate_epoch(payload)
        if kind == "corrupt":
            return self.corrupt(payload["tenant"], payload["address"])
        if kind == "metrics":
            return self.metrics(payload)
        if kind == "tenants":
            return self.tenants()
        if kind == "ping":
            return "pong"
        raise ShardError(f"unknown shard command {kind!r}")


#: bytes of the big-endian length that prefixes every pickled frame
_LENGTH_BYTES = 4
_RECV_BYTES = 1 << 16


def _frame(message: Any) -> bytes:
    """One length-prefixed pickle frame (both ends of a shard socket)."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return len(body).to_bytes(_LENGTH_BYTES, "big") + body


class _Frames:
    """Reassembles frames from a byte stream (both ends of a shard socket)."""

    def __init__(self):
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> list:
        """Append ``chunk``; return every message it completed, in order."""
        buffer = self._buffer
        buffer += chunk
        messages = []
        start = 0
        while len(buffer) - start >= _LENGTH_BYTES:
            body = start + _LENGTH_BYTES
            end = body + int.from_bytes(buffer[start:body], "big")
            if end > len(buffer):
                break
            messages.append(pickle.loads(buffer[body:end]))
            start = end
        del buffer[:start]
        return messages


def _worker_main(sock: socket.socket, spec: dict) -> None:
    """Entry point of a spawned shard worker process.

    Frames are answered one at a time in arrival order, which is what lets
    the front end match replies to calls first in, first out.  SIGINT is
    ignored: the server owns interrupt handling, and a terminal Ctrl-C
    reaches the whole process group — the worker must keep serving until
    it is told to shut down (or its socket closes).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.resilience.checkpoint import config_from_state

    core = ShardCore(
        index=spec["index"],
        num_shards=spec["num_shards"],
        config=config_from_state(spec["config_state"]),
        protected_bytes=spec["protected_bytes"],
        base_key=spec["base_key"],
        l2_size=spec["l2_size"],
    )
    frames = _Frames()
    # an OSError on the socket means the front end is gone: exit quietly
    with sock, contextlib.suppress(OSError):
        while chunk := sock.recv(_RECV_BYTES):
            for kind, payload in frames.feed(chunk):
                if kind == "shutdown":
                    sock.sendall(_frame(("ok", None)))
                    return
                try:
                    reply = ("ok", core.dispatch(kind, payload))
                except Exception as exc:  # noqa: BLE001 — sent as a verdict
                    reply = ("error", f"{type(exc).__name__}: {exc}")
                sock.sendall(_frame(reply))


class InlineShard:
    """A shard living in the server process (deterministic, no spawn).

    ``call`` runs the batch on the event loop itself, so nothing else on
    the loop runs while a batch executes.
    """

    def __init__(self, core: ShardCore):
        self.core = core
        self.index = core.index

    async def call(self, kind: str, payload: Any) -> Any:
        """Run one shard command; see :meth:`ShardCore.dispatch`."""
        return self.core.dispatch(kind, payload)

    async def close(self) -> None:
        pass


class ProcessShard(asyncio.Protocol):
    """A shard hosted in its own spawned process, driven over a socket.

    The event loop owns the front end's end of the socket: :meth:`call`
    writes one frame without blocking and awaits a future that
    :meth:`data_received` resolves when the reply frame arrives.  The
    worker answers frames in order, so replies match pending calls first
    in, first out.  EOF — the worker exited or was killed — fails every
    pending call, and every later one, with :class:`ShardError`.
    """

    def __init__(self, index: int, process):
        self.index = index
        self._process = process
        self._frames = _Frames()
        self._pending: deque[asyncio.Future] = deque()
        self._transport: asyncio.Transport | None = None
        #: why calls fail from now on (``None`` while the socket is up)
        self._failure: str | None = None

    @classmethod
    async def spawn(cls, index: int, num_shards: int, config,
                    protected_bytes: int, base_key: bytes,
                    l2_size: int = 64 * 1024) -> ProcessShard:
        """Start a worker process and connect the loop to its socket.

        Returns once the worker is started, not once it has booted: calls
        queue in the socket until the worker reads them.
        """
        from repro.resilience.checkpoint import config_state

        spec = {
            "index": index,
            "num_shards": num_shards,
            "config_state": config_state(config),
            "protected_bytes": protected_bytes,
            "base_key": bytes(base_key),
            "l2_size": l2_size,
        }
        ours, theirs = socket.socketpair()
        context = multiprocessing.get_context("spawn")
        process = context.Process(
            target=_worker_main, args=(theirs, spec), daemon=True)
        process.start()
        theirs.close()
        shard = cls(index, process)
        await asyncio.get_running_loop().create_unix_connection(
            lambda: shard, sock=ours)
        return shard

    # -- asyncio.Protocol -----------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        for status, result in self._frames.feed(data):
            future = self._pending.popleft()
            if future.done():           # its caller was cancelled
                continue
            if status == "ok":
                future.set_result(result)
            else:
                future.set_exception(
                    ShardError(f"shard {self.index}: {result}"))

    def connection_lost(self, exc: Exception | None) -> None:
        if self._failure is None:
            self._failure = (f"shard {self.index} worker died (exit code "
                             f"{self._process.exitcode})")
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(ShardError(self._failure))

    # -- calls ----------------------------------------------------------------

    async def call(self, kind: str, payload: Any) -> Any:
        """Run one shard command in the worker; its result, or
        :class:`ShardError` for a worker-side failure or a dead worker."""
        if self._failure is not None:
            raise ShardError(self._failure)
        future = asyncio.get_running_loop().create_future()
        self._pending.append(future)
        self._transport.write(_frame((kind, payload)))
        return await future

    async def close(self, timeout: float = 5.0) -> None:
        """Shut the worker down and reap it without blocking the loop."""
        if self._failure is None:
            with contextlib.suppress(ShardError, asyncio.TimeoutError):
                await asyncio.wait_for(self.call("shutdown", None), timeout)
            self._failure = f"shard {self.index} is closed"
        self._transport.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._process.is_alive() and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
