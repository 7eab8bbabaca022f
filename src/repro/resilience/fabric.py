"""The sweep executor: a crash-tolerant, filesystem work-stealing queue.

:func:`run_many` runs every sweep, ``repro sweep`` included: it shards
the cells of :mod:`repro.resilience.runner`'s data model across a pool
of spawn-isolated worker processes — and, because every coordination
primitive is a file under one ``queue_dir``, across multiple
cooperating invocations (two terminals, two hosts on a shared
filesystem) with zero extra machinery.  A run without a ``queue_dir``
uses a private temporary one.  The layout::

    queue_dir/
      manifest.json        # the sweep: cell list + settings (atomic write)
      leases/<cell>.json   # at most one per in-flight cell (O_EXCL claim)
      results/<cell>.json  # append-only terminal verdicts (atomic publish)
      checkpoints/<cell>.ckpt  # rolling mid-cell simulation checkpoints
      meta/<cell>.json     # cumulative attempt counter (metadata only)
      workers/<id>.json    # worker registry: pid + start time
      events.log           # append-only JSON-lines event journal

Protocol invariants (the resume-correctness argument, also DESIGN.md
section 17):

* **Claims are exclusive-create.**  A worker owns a cell iff it created
  ``leases/<cell>.json`` with ``O_CREAT | O_EXCL`` (or evicted a stale
  one and then won the exclusive re-create).  The lease carries a random
  nonce; renewal and release verify the nonce so a worker that lost its
  lease can never clobber the new owner's.  The worker whose unlink
  evicts a stale lease journals ``lease_reclaimed``, whoever then wins
  the re-create, so each eviction is counted once.
* **Heartbeats bound staleness in both directions.**  The owner rewrites
  its lease (atomically) every ``heartbeat_interval``.  Any worker may
  reclaim a lease whose heartbeat is older than ``lease_ttl`` — a worker
  killed with SIGKILL simply forfeits its cell — *or* more than
  ``lease_ttl`` in the future, so a clock-skewed (or maliciously
  future-dated) heartbeat cannot park a cell forever.
* **Leases are an efficiency device, not a correctness device.**  In the
  rare race where two workers end up simulating the same cell, both
  compute the identical deterministic result and the atomic
  ``os.replace`` publish makes the duplicate write invisible.
  Correctness rests on (a) deterministic cells, (b) atomic result
  publication, (c) a check for a published result before and after
  every claim.
* **Checkpoints make reclaims cheap.**  A cell longer than
  ``checkpoint_refs`` references checkpoints through the versioned
  container every ``checkpoint_refs``; a reclaimed or retried cell
  resumes mid-simulation (bit-identically) instead of rerunning.  A
  shorter cell with no checkpoint on disk runs unchecked, which costs
  less than snapshotting it (:data:`repro.resilience.CHECKPOINT_REFS`).
  A checkpoint on disk is always resumed.  A corrupt checkpoint or
  result file is quarantined to ``*.corrupt`` and the cell re-runs; it
  is never silently trusted and never crashes the sweep.

The coordinator (:func:`run_many`) spawns the local worker pool,
streams completed cells into the report as they land, restarts crashed
workers up to a budget (a replacement keeps its predecessor's index),
and aggregates the event journal into ``fabric.*`` metrics through
:class:`repro.obs.MetricsRegistry`.  It waits on its workers' process
sentinels and on a notice pipe: a worker that finds no unfinished cell
says so once, before it stops its runner.  When its loop ends, with
every manifest cell published or on an interrupt, the coordinator
closes a second pipe, which wakes any worker idling on a peer's last
cell.  ``_POLL_INTERVAL`` bounds the waits on both sides only for what
no local process announces: a peer invocation's results and a stale
lease.

Each worker scans the manifest in :func:`_claim_order`, grouped by the
runner's trace memo key, from a first cell of its own, so its runner
works through one workload's cells before it moves on to the next.  It
simulates its cells in one long-lived spawned runner process that
imports ``repro.api`` once; the worker supervises it over a pipe and
replaces it only when it dies, passes its deadline, or is terminated.
The worker itself imports only this queue protocol (this module,
:mod:`~repro.resilience.runner` and the atomic writers of
:mod:`~repro.resilience.checkpoint`), never the simulator, so it is up
while its runner still boots.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field, fields

from repro.resilience import CHECKPOINT_REFS
from repro.resilience.checkpoint import CheckpointError, atomic_write_json
from repro.resilience.runner import (
    CellResult,
    SweepCell,
    SweepReport,
    parse_inject,
)

__all__ = [
    "FabricSettings",
    "FabricStats",
    "MANIFEST_SCHEMA",
    "QueuePaths",
    "cell_id",
    "init_queue",
    "load_manifest",
    "read_events",
    "run_many",
]

MANIFEST_SCHEMA = "repro-sweep-manifest/1"

#: terminal statuses a result file may carry; anything else is corrupt
_TERMINAL = ("ok", "failed", "timeout")

#: longest wait, in seconds, of the coordinator and of a worker that found
#: every unfinished cell leased elsewhere between scans of the queue.
#: Local workers announce their exit and the sweep's end, so only a peer
#: invocation's results and a stale lease wait for it.
_POLL_INTERVAL = 0.2

#: bounds (seconds) for the heartbeat-age histogram — heartbeats are
#: sub-second in health, minutes only when something died
_HEARTBEAT_BOUNDS = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0)


@dataclass(frozen=True)
class FabricSettings:
    """Knobs shared by the coordinator and every worker (via the spawn
    args), recorded informationally in the manifest."""

    parallelism: int = 1
    timeout: float | None = None       # per-attempt wall clock (seconds)
    retries: int = 1                   # extra attempts per claim
    retry_backoff: float = 0.25
    heartbeat_interval: float = 0.5
    lease_ttl: float = 10.0
    checkpoint_refs: int = CHECKPOINT_REFS   # mid-cell cadence (refs)

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError(
                f"parallelism must be >= 1, got {self.parallelism}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.checkpoint_refs < 1:
            raise ValueError(
                f"checkpoint_refs must be >= 1, got {self.checkpoint_refs}")
        if self.lease_ttl <= 0 or self.heartbeat_interval <= 0:
            raise ValueError("lease_ttl and heartbeat_interval must be > 0")
        if self.lease_ttl <= 2 * self.heartbeat_interval:
            raise ValueError(
                f"lease_ttl ({self.lease_ttl}s) must exceed two heartbeat "
                f"intervals ({self.heartbeat_interval}s each) or healthy "
                "workers get their leases stolen")

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "FabricSettings":
        """Ignores unknown keys, such as an older manifest's
        ``poll_interval``."""
        names = {spec.name for spec in fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in names})


@dataclass
class FabricStats:
    """Counters aggregated from the event journal; registered under
    ``fabric.`` in the coordinator's :class:`MetricsRegistry`."""

    cells_total: int = 0
    cells_completed: int = 0
    cells_leased: int = 0          # successful claims
    cells_reclaimed: int = 0       # stale leases evicted
    cells_resumed: int = 0         # attempts resumed from a checkpoint
    cells_retried: int = 0         # in-claim retry after crash/timeout
    cells_lost: int = 0            # lease lost mid-cell (abandoned, no publish)
    worker_restarts: int = 0
    results_quarantined: int = 0
    checkpoints_quarantined: int = 0


class QueuePaths:
    """Path arithmetic for one queue directory."""

    __slots__ = ("root",)

    _DIRS = ("leases", "results", "checkpoints", "meta", "workers")

    def __init__(self, root: str):
        self.root = os.fspath(root)

    @property
    def manifest(self) -> str:
        return os.path.join(self.root, "manifest.json")

    @property
    def events(self) -> str:
        return os.path.join(self.root, "events.log")

    def lease(self, cid: str) -> str:
        return os.path.join(self.root, "leases", cid + ".json")

    def result(self, cid: str) -> str:
        return os.path.join(self.root, "results", cid + ".json")

    def checkpoint(self, cid: str) -> str:
        return os.path.join(self.root, "checkpoints", cid + ".ckpt")

    def meta(self, cid: str) -> str:
        return os.path.join(self.root, "meta", cid + ".json")

    def worker(self, wid: str) -> str:
        return os.path.join(self.root, "workers", wid + ".json")

    def ensure(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        for name in self._DIRS:
            os.makedirs(os.path.join(self.root, name), exist_ok=True)


def _checkpoints_due(refs: int, checkpoint_refs: int) -> int:
    """How many checkpoints a from-scratch run of ``refs`` references
    writes: one at every positive multiple of the cadence before the
    last reference."""
    return (refs - 1) // checkpoint_refs


def cell_id(index: int, cell: SweepCell) -> str:
    """Stable, filesystem-safe identity of one manifest cell.

    Uses :meth:`SweepCell.workload_id` rather than the raw ``app`` spec:
    a recorded-trace cell is named by its content fingerprint, so a
    resumed sweep dedupes against the same cell even when the trace file
    is reached through a different path (and a *different* recording at
    the same path can never steal a finished cell's result).
    """
    slug = "-".join(
        "".join(ch if ch.isalnum() else "-" for ch in part)
        for part in (cell.scheme, cell.workload_id()))
    return f"{index:04d}-{slug}"


# -- event journal ------------------------------------------------------------


def _log_event(paths: QueuePaths, **payload) -> None:
    """Append one JSON line to the journal.

    A single small ``O_APPEND`` write is atomic on POSIX local
    filesystems; readers skip unparseable lines defensively anyway.  The
    journal is observability plus test evidence (attempt counts prove no
    completed cell ran twice) — never a correctness input.
    """
    payload.setdefault("t", time.time())
    line = json.dumps(payload, separators=(",", ":")) + "\n"
    flags = os.O_CREAT | os.O_WRONLY | os.O_APPEND
    fd = os.open(paths.events, flags, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def read_events(queue_dir: str) -> list[dict]:
    """Every parseable journal line, in append order."""
    paths = QueuePaths(queue_dir)
    events: list[dict] = []
    try:
        with open(paths.events, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict):
                    events.append(event)
    except OSError:
        pass
    return events


# -- manifest -----------------------------------------------------------------


def init_queue(queue_dir: str, cells: list[SweepCell],
               settings: FabricSettings, *,
               resume: bool = False) -> list[tuple[str, SweepCell]]:
    """Create or adopt the queue's manifest; return ``(id, cell)`` pairs.

    A fresh directory gets a manifest built from ``cells``.  An existing
    manifest is adopted when ``resume=True`` (the caller's cells are
    ignored — the manifest is the sweep) or when the caller's cells match
    it exactly (the two-terminal join case); a mismatch without
    ``resume`` raises :class:`CheckpointError` instead of silently mixing
    two different sweeps in one directory.
    """
    paths = QueuePaths(queue_dir)
    paths.ensure()
    if os.path.exists(paths.manifest):
        entries = load_manifest(queue_dir)
        if not resume:
            mine = [cell.to_dict() for cell in cells]
            theirs = [cell.to_dict() for _, cell in entries]
            if mine != theirs:
                raise CheckpointError(
                    f"queue dir {queue_dir!r} already holds a different "
                    "sweep manifest; pass resume=True to continue it or "
                    "point at a fresh queue dir")
        return entries
    if resume:
        raise CheckpointError(
            f"nothing to resume: no manifest in {queue_dir!r}")
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "settings": settings.to_dict(),
        "cells": [{"id": cell_id(index, cell), "cell": cell.to_dict()}
                  for index, cell in enumerate(cells)],
    }
    atomic_write_json(paths.manifest, manifest)
    return [(entry["id"], SweepCell.from_dict(entry["cell"]))
            for entry in manifest["cells"]]


def load_manifest(queue_dir: str) -> list[tuple[str, SweepCell]]:
    """Read and validate the manifest; raises :class:`CheckpointError`."""
    paths = QueuePaths(queue_dir)
    try:
        with open(paths.manifest, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read sweep manifest {paths.manifest!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"sweep manifest {paths.manifest!r} is corrupt: {exc}") from exc
    if (not isinstance(manifest, dict)
            or manifest.get("schema") != MANIFEST_SCHEMA):
        raise CheckpointError(
            f"{paths.manifest!r} is not a {MANIFEST_SCHEMA} manifest")
    return [(entry["id"], SweepCell.from_dict(entry["cell"]))
            for entry in manifest["cells"]]


# -- results ------------------------------------------------------------------


def _load_result(paths: QueuePaths, cid: str, *,
                 quarantine_by: str | None = None) -> dict | None:
    """The cell's published terminal verdict, or ``None``.

    A present-but-invalid file (torn by a non-atomic writer, bit-rotted,
    truncated) is never trusted: with ``quarantine_by`` it is atomically
    renamed to ``<result>.corrupt`` (journaled) so the cell re-enqueues;
    without, it is just treated as absent.
    """
    path = paths.result(cid)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if (not isinstance(payload, dict) or "cell" not in payload
                or payload.get("status") not in _TERMINAL):
            raise ValueError(f"not a terminal cell result: {path!r}")
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        if quarantine_by is not None:
            try:
                os.replace(path, path + ".corrupt")
                _log_event(paths, event="result_quarantined", cell=cid,
                           worker=quarantine_by, error=str(exc))
            except FileNotFoundError:
                pass             # another scanner quarantined it first
        return None
    return payload


# -- lease protocol -----------------------------------------------------------


def _lease_payload(worker_id: str, nonce: str) -> dict:
    return {"worker": worker_id, "nonce": nonce, "pid": os.getpid(),
            "heartbeat": time.time()}


def _read_lease(path: str) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return payload if isinstance(payload, dict) else None
    except (OSError, json.JSONDecodeError):
        return None


def lease_is_stale(lease: dict | None, mtime: float, now: float,
                   ttl: float) -> bool:
    """Whether a lease has expired (or is implausibly future-dated).

    ``heartbeat`` older than ``ttl`` means the owner stopped renewing —
    crashed, SIGKILLed, or partitioned — and the cell is up for grabs.
    A heartbeat more than ``ttl`` *ahead* of our clock is treated as
    stale too: an owner with that much forward skew can never be
    distinguished from one that will never expire, so the fabric prefers
    a (correctness-safe) duplicate claim over a wedged cell.  An
    unreadable lease falls back to the file mtime.
    """
    heartbeat = mtime
    if lease is not None and isinstance(lease.get("heartbeat"), (int, float)):
        heartbeat = float(lease["heartbeat"])
    age = now - heartbeat
    return age > ttl or age < -ttl


def _try_claim(paths: QueuePaths, cid: str, worker_id: str, nonce: str,
               ttl: float) -> tuple[bool, bool]:
    """Attempt to acquire the cell's lease.

    Returns ``(claimed, evicted)``.  The claim itself is the
    ``O_CREAT | O_EXCL`` create.  A lease that :func:`lease_is_stale` is
    first evicted, then the create is retried once, racing everyone
    else.  The worker whose unlink removed the stale lease journals
    ``lease_reclaimed``, whoever wins the re-create, so each eviction is
    counted once.
    """
    path = paths.lease(cid)
    payload = json.dumps(_lease_payload(worker_id, nonce)).encode("utf-8")
    evicted = False
    for retry in (False, True):
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            if retry:
                return False, evicted
            lease = _read_lease(path)
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                continue         # vanished: released or evicted; retry
            if not lease_is_stale(lease, mtime, time.time(), ttl):
                return False, False
            try:
                os.unlink(path)
            except FileNotFoundError:
                continue         # evicted, and journaled, by another worker
            _log_event(paths, event="lease_reclaimed", cell=cid,
                       worker=worker_id)
            evicted = True
            continue
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        return True, evicted
    return False, evicted


def _renew_lease(paths: QueuePaths, cid: str, worker_id: str,
                 nonce: str) -> bool:
    """Refresh the heartbeat iff we still own the lease.

    Reads the current lease first: a different nonce means the lease was
    reclaimed out from under us (we stalled past the TTL) — the caller
    must abandon the cell without publishing.
    """
    path = paths.lease(cid)
    lease = _read_lease(path)
    if lease is None or lease.get("nonce") != nonce:
        return False
    atomic_write_json(path, _lease_payload(worker_id, nonce), indent=0)
    return True


def _release_lease(paths: QueuePaths, cid: str, nonce: str) -> None:
    path = paths.lease(cid)
    lease = _read_lease(path)
    if lease is not None and lease.get("nonce") == nonce:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass


def _claim(paths: QueuePaths, cid: str, worker_id: str,
           ttl: float) -> str | None:
    """Lease an unpublished cell and return the lease's nonce, or ``None``.

    The caller has found no result for the cell.  Its owner may publish
    and release its lease between that check and the create, which then
    succeeds on a finished cell, so the result is read again once the
    lease is won, and a cell found published is released, not run.
    """
    import secrets

    nonce = secrets.token_hex(8)
    claimed, evicted = _try_claim(paths, cid, worker_id, nonce, ttl)
    if not claimed:
        return None
    if _load_result(paths, cid) is not None:
        _release_lease(paths, cid, nonce)
        return None
    _log_event(paths, event="cell_claimed", cell=cid, worker=worker_id,
               reclaimed=evicted)
    return nonce


# -- attempt metadata ---------------------------------------------------------


def _read_attempts(paths: QueuePaths, cid: str) -> int:
    try:
        with open(paths.meta(cid), "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return int(payload.get("attempts", 0))
    except (OSError, ValueError, json.JSONDecodeError):
        return 0


def _quarantine(path: str) -> bool:
    try:
        os.replace(path, path + ".corrupt")
        return True
    except FileNotFoundError:
        return False


# -- cell execution (warm runner process) -------------------------------------


def _execute_cell(paths: QueuePaths, cid: str, cell: SweepCell,
                  attempt: int, checkpoint_refs: int) -> dict:
    """Simulate one cell attempt, checkpointing as it goes; the reply.

    A checkpoint left by a previous attempt (this worker's or a dead
    one's) is resumed bit-identically, whatever the cadence.  One that
    does not load — corrupt, another container version, or another
    experiment's — is quarantined to ``*.corrupt`` and the cell restarts
    from scratch: loudly journaled, never fatal.  A cell started from
    scratch with no checkpoint due before its last reference runs plain
    ``Experiment.run()``, which keeps the batched engine's cached
    classification.  A runner whose worker died mid-cell exits at its
    next checkpoint, or, on an unchecked cell, when its reply finds the
    pipe closed.

    Chaos inject hooks (see :class:`SweepCell`) act on the runner, the
    process that simulates:

    * ``crash`` / ``hang`` — ``os._exit`` or sleep until terminated,
      before simulating (first attempt only unless ``-always``).
    * ``kill9:N`` — SIGKILL the runner right after writing its N-th
      checkpoint (first overall attempt only): exercises in-worker crash
      retry with mid-cell resume on a fresh runner.
    * ``killworker:N`` — SIGKILL the parent worker first, then the
      runner: exercises stale-lease reclaim + coordinator restart.
    """
    base, arg, always = parse_inject(cell.inject)
    if base in ("crash", "hang") and (always or attempt == 1):
        if base == "crash":
            os._exit(17)
        while True:                        # "hang": wait for terminate()
            time.sleep(3600)
    kill_after = (arg if base in ("kill9", "killworker") and attempt == 1
                  else None)
    worker_pid = os.getppid()
    try:
        from repro.api import Experiment

        ckpt_path = paths.checkpoint(cid)
        checkpoints_written = 0

        def checkpoint_hook() -> None:
            nonlocal checkpoints_written
            checkpoints_written += 1
            if os.getppid() != worker_pid:
                # the worker died mid-cell and nobody will read the
                # reply; whoever reclaims the cell resumes this checkpoint
                os._exit(0)
            if kill_after is not None and checkpoints_written == kill_after:
                if base == "killworker":
                    os.kill(os.getppid(), signal.SIGKILL)
                os.kill(os.getpid(), signal.SIGKILL)

        def simulate(resume: str | None):
            experiment = Experiment(cell.scheme, cell.app, refs=cell.refs,
                                    warmup_refs=cell.warmup_refs)
            if resume is None and not _checkpoints_due(cell.refs,
                                                       checkpoint_refs):
                return experiment.run()
            return experiment.run(
                checkpoint_every=checkpoint_refs,
                checkpoint_path=ckpt_path, resume_from=resume,
                checkpoint_hook=checkpoint_hook)

        resume_from = ckpt_path if os.path.isfile(ckpt_path) else None
        try:
            result = simulate(resume_from)
        except CheckpointError as exc:
            # the checkpoint is validated before any simulation runs
            if resume_from is None:
                raise
            if _quarantine(ckpt_path):
                _log_event(paths, event="checkpoint_quarantined",
                           cell=cid, error=str(exc))
            resume_from = None
            result = simulate(None)
        return {"ok": True, "result": result.to_dict(),
                "resumed": resume_from is not None}
    except Exception as exc:        # noqa: BLE001 — verdict, not handling
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _runner_main(conn, queue_dir: str) -> None:
    """A worker's warm cell runner: import once, then run cells until EOF.

    Spawned by its worker and reused for every cell that worker claims,
    so each cell pays for its simulation, not for an interpreter.  It
    announces ``{"ready": pid}`` once ``repro.api`` is imported, then
    answers each ``{"cid", "cell", "attempt", "checkpoint_refs"}``
    request with :func:`_execute_cell`'s reply.  EOF on the pipe — the
    worker closed it, or died — ends the runner, so a SIGKILLed worker
    never leaves one behind.  SIGINT is ignored (the coordinator owns
    interrupts); the worker ends a runner mid-cell with SIGTERM.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    import repro.api  # noqa: F401 — the one import every cell reuses

    paths = QueuePaths(queue_dir)
    try:
        conn.send({"ready": os.getpid()})
        while True:
            job = conn.recv()
            conn.send(_execute_cell(paths, job["cid"],
                                    SweepCell.from_dict(job["cell"]),
                                    job["attempt"], job["checkpoint_refs"]))
    except (EOFError, OSError):
        pass                     # the worker is done with us, or gone
    finally:
        conn.close()


# -- worker loop (child process) ----------------------------------------------


def _claim_order(entries: list[tuple[str, SweepCell]], index: int,
                 parallelism: int) -> list[tuple[str, SweepCell]]:
    """The order in which worker ``index`` of ``parallelism`` scans the
    manifest for a cell to claim.

    Cells are grouped by the runner's trace memo key (app, refs,
    warmup_refs; DESIGN.md section 19), groups in order of first
    appearance and cells in manifest order within a group.  Worker
    ``index`` starts at cell ``index * len(entries) // parallelism`` of
    that order and wraps around.  So fresh workers start on different
    cells when there are at least as many cells as workers, and a runner
    works through one workload's cells before it moves on to the next.
    """
    groups: dict[tuple, list[tuple[str, SweepCell]]] = {}
    for cid, cell in entries:
        key = (cell.app, cell.refs, cell.warmup_refs)
        groups.setdefault(key, []).append((cid, cell))
    order = [entry for group in groups.values() for entry in group]
    start = index * len(order) // parallelism
    return order[start:] + order[:start]


class _Runner:
    """A worker's handle on its warm runner (see :func:`_runner_main`).

    At most one runner process per worker.  The worker starts one when
    it has none, and replaces it only after it died, passed its
    deadline, or was terminated for a drain or a lost lease.
    """

    def __init__(self, context, paths: QueuePaths, worker_id: str):
        self._context = context
        self._paths = paths
        self._worker_id = worker_id
        self.process = None
        self.conn = None
        self.ready = False

    def start(self) -> None:
        self.conn, child_end = self._context.Pipe()
        self.process = self._context.Process(
            target=_runner_main, args=(child_end, self._paths.root),
            daemon=True)
        self.process.start()
        child_end.close()    # EOF must reach the runner when we are gone
        self.ready = False
        _log_event(self._paths, event="runner_started",
                   worker=self._worker_id, pid=self.process.pid)

    def stop(self, *, terminate: bool = False) -> int | None:
        """Reap the runner and return its exit code.

        Closing the pipe ends an idle runner (EOF); ``terminate`` first
        sends SIGTERM to one that is mid-cell.
        """
        if self.process is None:
            return None
        if terminate:
            self.process.terminate()
        self.conn.close()
        self.process.join(5)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(5)
        exitcode = self.process.exitcode
        self.process = self.conn = None
        self.ready = False
        return exitcode


def _await_runner(runner: _Runner, paths: QueuePaths, cid: str,
                  worker_id: str, nonce: str, settings: FabricSettings,
                  drain: dict) -> tuple[str, dict | None]:
    """Wait for the runner's next message while keeping the claim alive.

    Polls the pipe every heartbeat interval and renews the lease on each
    tick, for at most ``settings.timeout``.  Returns ``("message", msg)``
    or one of ``("died" | "timeout" | "drained" | "lost", None)``.
    """
    deadline = (time.monotonic() + settings.timeout
                if settings.timeout is not None else None)
    while True:
        # poll() is also true at EOF, so a dead runner surfaces here
        if runner.conn.poll(settings.heartbeat_interval):
            try:
                return "message", runner.conn.recv()
            except (EOFError, OSError):
                return "died", None
        if drain["hit"]:
            return "drained", None
        if deadline is not None and time.monotonic() > deadline:
            return "timeout", None
        if not _renew_lease(paths, cid, worker_id, nonce):
            # the lease was reclaimed: someone else owns the cell now
            return "lost", None


def _run_cell(runner: _Runner, paths: QueuePaths, cid: str,
              cell: SweepCell, worker_id: str, nonce: str,
              settings: FabricSettings, drain: dict) -> None:
    """Execute one claimed cell to a terminal verdict (or abandon it).

    Supervises each attempt on the worker's warm runner — wall-clock
    budget, crash/timeout retries with backoff — renewing the lease every
    heartbeat.  A runner that dies or passes the deadline is replaced
    for the next attempt.  Waiting for a new runner's start-up is
    supervised the same way (with its own ``timeout``) but kept off the
    cell's ``elapsed``.  Publishes the verdict atomically and releases
    the lease; returns without publishing when draining or when the
    lease was lost (so the new owner's eventual publish is the only
    one).
    """
    attempts_before = _read_attempts(paths, cid)
    attempts = attempts_before
    started = time.monotonic()
    startup = 0.0
    status = "failed"
    error: str | None = None
    payload: dict | None = None
    resumed = False
    while True:
        attempts += 1
        atomic_write_json(paths.meta(cid), {"attempts": attempts}, indent=0)
        _log_event(paths, event="cell_started", cell=cid, worker=worker_id,
                   attempt=attempts)
        if runner.process is None:
            runner.start()
        if not runner.ready:
            waited = time.monotonic()
            outcome, message = _await_runner(runner, paths, cid, worker_id,
                                             nonce, settings, drain)
            startup += time.monotonic() - waited
            runner.ready = outcome == "message"
        if runner.ready:
            job = {"cid": cid, "cell": cell.to_dict(), "attempt": attempts,
                   "checkpoint_refs": settings.checkpoint_refs}
            try:
                runner.conn.send(job)
            except OSError:
                outcome = "died"
            else:
                outcome, message = _await_runner(
                    runner, paths, cid, worker_id, nonce, settings, drain)
        if outcome in ("drained", "lost"):
            # end the runner, which may be mid-cell (its last checkpoint
            # survives), and never publish
            runner.stop(terminate=True)
            if outcome == "drained":
                _log_event(paths, event="cell_drained", cell=cid,
                           worker=worker_id, attempt=attempts)
                _release_lease(paths, cid, nonce)
            else:
                _log_event(paths, event="lease_lost", cell=cid,
                           worker=worker_id, attempt=attempts)
            return
        if outcome == "timeout":
            runner.stop(terminate=True)
            status = "timeout"
            error = (f"runner exceeded the {settings.timeout}s wall-clock "
                     f"budget and was terminated")
        elif outcome == "died":
            status = "failed"
            error = (f"runner died without reporting "
                     f"(exit code {runner.stop()})")
        elif message.get("ok"):
            status, payload, error = "ok", message["result"], None
            resumed = bool(message.get("resumed"))
        else:
            status, error = "failed", message.get("error")
        if status == "ok":
            break
        if attempts - attempts_before <= settings.retries and not drain["hit"]:
            _log_event(paths, event="cell_retried", cell=cid,
                       worker=worker_id, attempt=attempts, status=status)
            time.sleep(settings.retry_backoff
                       * (2 ** (attempts - attempts_before - 1)))
            continue
        break
    verdict = CellResult(cell=cell, status=status, attempts=attempts,
                         elapsed=time.monotonic() - started - startup,
                         error=error, result=payload, worker_id=worker_id,
                         resumed_from_checkpoint=resumed)
    atomic_write_json(paths.result(cid), verdict.to_dict())
    if status == "ok":
        try:
            os.unlink(paths.checkpoint(cid))
        except FileNotFoundError:
            pass
    _release_lease(paths, cid, nonce)
    _log_event(paths, event="cell_finished", cell=cid, worker=worker_id,
               status=status, attempts=attempts, resumed=resumed)


def _worker_main(queue_dir: str, worker_id: str, index: int,
                 settings_dict: dict, notify, wake) -> None:
    """One pool worker: scan, claim, execute, repeat until drained/done.

    SIGINT is ignored (the coordinator owns interrupts); SIGTERM requests
    a graceful drain — the in-flight attempt is terminated (its last
    checkpoint survives), the lease released, and the worker exits 0.
    The worker scans the manifest in :func:`_claim_order` for its
    ``index`` (a restarted worker gets its predecessor's), so a fresh
    pool starts on different cells and each runner works through one
    workload at a time.  A scan that finds no unfinished cell sends one
    notice on ``notify`` and ends the loop.  A scan that finds every
    unfinished cell leased elsewhere waits up to ``_POLL_INTERVAL`` for
    a peer's result or a stale lease, and ends the loop once the
    coordinator closes the other end of ``wake``, which it does when
    every cell is published (or the run is interrupted).  The worker's
    warm runner is closed on the way out, however the loop ends.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    drain = {"hit": False}

    def _on_sigterm(_signum, _frame) -> None:
        drain["hit"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)
    paths = QueuePaths(queue_dir)
    settings = FabricSettings.from_dict(settings_dict)
    atomic_write_json(paths.worker(worker_id),
                      {"worker": worker_id, "pid": os.getpid(),
                       "started": time.time()})
    _log_event(paths, event="worker_started", worker=worker_id,
               pid=os.getpid())
    entries = _claim_order(load_manifest(queue_dir), index,
                           settings.parallelism)
    runner = _Runner(multiprocessing.get_context("spawn"), paths, worker_id)
    drained = False
    try:
        while not drain["hit"]:
            claimed_any = False
            pending = 0
            for cid, cell in entries:
                if drain["hit"]:
                    break
                if _load_result(paths, cid,
                                quarantine_by=worker_id) is not None:
                    continue
                pending += 1
                nonce = _claim(paths, cid, worker_id, settings.lease_ttl)
                if nonce is None:
                    continue
                claimed_any = True
                _run_cell(runner, paths, cid, cell, worker_id, nonce,
                          settings, drain)
            if drain["hit"]:
                break
            if pending == 0:
                # before the runner's shutdown, so the coordinator's last
                # scan overlaps it
                try:
                    notify.send_bytes(b"")
                except OSError:
                    pass                   # the coordinator is gone
                break
            if not claimed_any and wake.poll(_POLL_INTERVAL):
                break        # the coordinator has every result, or is gone
        drained = drain["hit"]
    finally:
        runner.stop()
        _log_event(paths, event="worker_stopped", worker=worker_id,
                   drained=drained)


# -- coordinator --------------------------------------------------------------


def _check_kill_injects(paths: QueuePaths, entries,
                        checkpoint_refs: int) -> None:
    """Reject a ``kill9:N`` / ``killworker:N`` cell that can never fire.

    A kill fires after checkpoint N of the cell's first attempt, so an N
    past the cell's last checkpoint would let a chaos run pass without
    killing anything.  A cell whose first attempt already ran (in a
    resumed queue) is exempt: its inject is spent either way.
    """
    for cid, cell in entries:
        _base, after, _always = parse_inject(cell.inject)
        if after is None:                  # only the kill kinds take an N
            continue
        due = _checkpoints_due(cell.refs, checkpoint_refs)
        if after > due and _read_attempts(paths, cid) == 0:
            raise ValueError(
                f"cell {cid}: inject {cell.inject!r} fires after checkpoint "
                f"{after}, but {cell.refs} refs at a cadence of "
                f"{checkpoint_refs} refs write {due} checkpoint(s); lower "
                f"N or the checkpoint cadence")


def _assemble_report(paths: QueuePaths, entries, *, interrupted: bool,
                     fabric_section: dict) -> SweepReport:
    """Build the report in manifest order from the results directory."""
    report = SweepReport(interrupted=interrupted, fabric=fabric_section)
    for cid, cell in entries:
        payload = _load_result(paths, cid)
        if payload is not None:
            report.cells.append(CellResult.from_dict(payload))
        else:
            report.cells.append(CellResult(
                cell=cell, status="skipped",
                error=("interrupted before completion" if interrupted
                       else "no workers completed this cell")))
    return report


def _aggregate_stats(queue_dir: str, stats: FabricStats) -> list[dict]:
    """Fold the event journal into the counters; returns the events."""
    events = read_events(queue_dir)
    counts: dict[str, int] = {}
    for event in events:
        counts[event.get("event", "?")] = \
            counts.get(event.get("event", "?"), 0) + 1
    stats.cells_leased = counts.get("cell_claimed", 0)
    stats.cells_reclaimed = counts.get("lease_reclaimed", 0)
    stats.cells_retried = counts.get("cell_retried", 0)
    stats.cells_lost = counts.get("lease_lost", 0)
    stats.results_quarantined = counts.get("result_quarantined", 0)
    stats.checkpoints_quarantined = counts.get("checkpoint_quarantined", 0)
    stats.cells_resumed = sum(
        1 for event in events
        if event.get("event") == "cell_finished" and event.get("resumed"))
    return events


def run_many(cells, *, queue_dir: str | None = None, parallelism: int = 1,
             timeout: float | None = None, retries: int = 1,
             retry_backoff: float = 0.25, heartbeat_interval: float = 0.5,
             lease_ttl: float = 10.0, checkpoint_refs: int = CHECKPOINT_REFS,
             resume: bool = False, max_worker_restarts: int | None = None,
             progress=None, out_path: str | None = None) -> SweepReport:
    """Run a sweep on the fabric; always returns a report.

    ``cells`` is an iterable of :class:`SweepCell` or equivalent dicts.
    ``parallelism`` local workers run them against ``queue_dir``; other
    invocations may point workers at the same directory concurrently,
    and without one the run uses a private temporary queue.  Each
    attempt gets the wall-clock ``timeout`` in seconds (``None`` waits
    forever), and a crashed or timed-out cell gets ``retries`` extra
    attempts, ``retry_backoff`` seconds apart, doubling per retry.  A
    cell longer than ``checkpoint_refs`` refs checkpoints every
    ``checkpoint_refs``, so a reclaimed or retried cell resumes
    mid-simulation; a shorter one runs unchecked.  Workers renew their
    leases every ``heartbeat_interval`` seconds and reclaim one older
    than ``lease_ttl``.  Crashed workers are restarted up to
    ``max_worker_restarts`` times (default ``2 * parallelism``).

    Each published cell is streamed, in manifest order, to ``out_path``
    — rewritten atomically, and holding only the published cells — and
    then passed to ``progress``.  ``KeyboardInterrupt`` drains
    gracefully: workers get SIGTERM, in-flight cells keep their
    checkpoints, and the partial report comes back with
    ``interrupted=True``, its unfinished cells ``skipped``.  A later
    ``resume=True`` run on the same ``queue_dir`` adopts its manifest
    and skips every published result wholesale.

    Raises :class:`ValueError` before any worker starts on bad settings,
    ``resume`` without a ``queue_dir``, a ``queue_dir`` holding another
    sweep, or a ``kill9:N`` / ``killworker:N`` cell whose N-th
    checkpoint never comes at ``checkpoint_refs`` (for a new sweep,
    before the manifest is written).
    """
    cells = [cell if isinstance(cell, SweepCell)
             else SweepCell.from_dict(dict(cell)) for cell in cells]
    settings = FabricSettings(
        parallelism=parallelism, timeout=timeout, retries=retries,
        retry_backoff=retry_backoff, heartbeat_interval=heartbeat_interval,
        lease_ttl=lease_ttl, checkpoint_refs=checkpoint_refs)
    if resume and queue_dir is None:
        raise ValueError("resume=True needs a queue_dir to resume from")
    if max_worker_restarts is None:
        max_worker_restarts = 2 * parallelism
    import contextlib
    import tempfile

    # a runner orphaned by a SIGKILLed worker may still write into a
    # private queue while it is removed; that must not cost the report
    queue = (contextlib.nullcontext(queue_dir) if queue_dir is not None
             else tempfile.TemporaryDirectory(prefix="repro-fabric-",
                                              ignore_cleanup_errors=True))
    with queue as root:
        return _coordinate(QueuePaths(root), cells, settings, resume=resume,
                           max_worker_restarts=max_worker_restarts,
                           progress=progress, out_path=out_path)


def _coordinate(paths: QueuePaths, cells: list[SweepCell],
                settings: FabricSettings, *, resume: bool,
                max_worker_restarts: int, progress,
                out_path: str | None) -> SweepReport:
    """The coordinator behind :func:`run_many`, on one queue directory."""
    from multiprocessing.connection import wait

    from repro.obs import MetricsRegistry

    checkpoint_refs = settings.checkpoint_refs
    parallelism = settings.parallelism
    if not resume:
        _check_kill_injects(paths, ((cell_id(index, cell), cell)
                                    for index, cell in enumerate(cells)
                                    if cell.inject), checkpoint_refs)
    entries = init_queue(paths.root, cells, settings, resume=resume)
    if resume:
        _check_kill_injects(paths, entries, checkpoint_refs)

    registry = MetricsRegistry()
    stats = FabricStats(cells_total=len(entries))
    registry.register("fabric", stats)
    heartbeat_age = registry.histogram("fabric.heartbeat_age_s",
                                       bounds=_HEARTBEAT_BOUNDS)

    context = multiprocessing.get_context("spawn")
    workers: dict[str, multiprocessing.Process] = {}
    worker_index: dict[str, int] = {}
    worker_serial = 0
    # workers -> coordinator: "no unfinished cell left", once per worker;
    # coordinator -> workers: EOF once its loop ends
    notices, notify = context.Pipe(duplex=False)
    wake, sweep_over = context.Pipe(duplex=False)

    def spawn_worker(index: int) -> None:
        nonlocal worker_serial
        worker_serial += 1
        wid = f"w{index}.{os.getpid()}" \
            + (f".r{worker_serial - parallelism}"
               if worker_serial > parallelism else "")
        process = context.Process(
            target=_worker_main,
            args=(paths.root, wid, index, settings.to_dict(), notify, wake))
        process.start()
        workers[wid] = process
        worker_index[wid] = index

    surfaced: dict[str, CellResult] = {}
    interrupted = False

    def sweep_results() -> int:
        """Surface newly published results; returns the completed count.

        Each new result, in manifest order, is first streamed to
        ``out_path`` in a report of the published cells only, then
        passed to ``progress``.
        """
        done: list[str] = []
        fresh: list[tuple[str, dict]] = []
        for cid, _cell in entries:
            payload = _load_result(paths, cid, quarantine_by="coordinator")
            if payload is None:
                continue
            done.append(cid)
            if cid not in surfaced:
                fresh.append((cid, payload))
        if fresh and out_path is not None:
            _aggregate_stats(paths.root, stats)
        for cid, payload in fresh:
            surfaced[cid] = result = CellResult.from_dict(payload)
            if out_path is not None:
                streamed = [surfaced[key] for key in done if key in surfaced]
                stats.cells_completed = len(streamed)
                atomic_write_json(out_path, SweepReport(
                    cells=streamed, fabric=_fabric_section()).to_dict())
            if progress is not None:
                progress(result)
        return len(done)

    def sample_heartbeats() -> None:
        now = time.time()
        for cid, _cell in entries:
            lease = _read_lease(paths.lease(cid))
            if lease is not None and isinstance(lease.get("heartbeat"),
                                                (int, float)):
                heartbeat_age.observe(max(0.0, now - lease["heartbeat"]))

    def _fabric_section() -> dict:
        snapshot = registry.snapshot()
        return {
            "queue_dir": paths.root,
            "parallelism": parallelism,
            "settings": settings.to_dict(),
            "workers": sorted(workers),
            "metrics": snapshot,
        }

    restarts_left = max_worker_restarts
    try:
        for index in range(parallelism):
            spawn_worker(index)
        while True:
            done = sweep_results()
            sample_heartbeats()
            if done >= len(entries):
                break
            for wid, process in list(workers.items()):
                if process.is_alive():
                    continue
                del workers[wid]
                index = worker_index.pop(wid)
                if process.exitcode != 0 and restarts_left > 0:
                    restarts_left -= 1
                    stats.worker_restarts += 1
                    _log_event(paths, event="worker_restarted", worker=wid,
                               exitcode=process.exitcode)
                    spawn_worker(index)
            if not workers:
                if restarts_left > 0:
                    # every local worker exited (e.g. all cells were
                    # leased by a peer invocation that then died): spin
                    # one back up rather than wedge
                    restarts_left -= 1
                    stats.worker_restarts += 1
                    spawn_worker(0)
                else:
                    break
            # a worker's notice or exit ends the wait early; the timeout
            # is for a peer invocation's results and a stale lease
            ready = wait([notices, *(process.sentinel
                                     for process in workers.values())],
                         _POLL_INTERVAL)
            if notices in ready:
                while notices.poll():
                    notices.recv_bytes()
    except KeyboardInterrupt:
        interrupted = True
        for process in workers.values():
            if process.is_alive():
                process.terminate()        # SIGTERM: graceful drain
    finally:
        sweep_over.close()     # wakes every worker idling on a peer's cell
        deadline = time.monotonic() + 30
        for process in workers.values():
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(5)
        for end in (notices, notify, wake):
            end.close()
    stats.cells_completed = sweep_results()
    sample_heartbeats()
    _aggregate_stats(paths.root, stats)
    report = _assemble_report(paths, entries, interrupted=interrupted,
                              fabric_section=_fabric_section())
    if out_path is not None:
        atomic_write_json(out_path, report.to_dict())
    return report
