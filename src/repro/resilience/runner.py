"""Supervised experiment runner: subprocess isolation, timeout, retry.

``run_many`` executes a sweep of experiment *cells* one at a time, each in
its own spawned worker process, so a crash (segfault, ``os._exit``, OOM
kill) or a hang in one cell can never take down the sweep: the supervisor
notices the dead pipe or the expired wall-clock budget, retries the cell
with exponential backoff up to its retry budget, and records the final
verdict.  A SIGINT (Ctrl-C) drains gracefully — the in-flight worker is
terminated, every remaining cell is marked ``skipped``, and the partial
:class:`SweepReport` is still returned so the caller can persist what
finished.

Cells carry an ``inject`` test hook (``"crash"``/``"hang"``, optionally
suffixed ``-always``) that makes the *worker* misbehave before touching the
simulator; the CI ``resilience`` job uses it to prove the supervisor's
retry and timeout paths against real subprocesses.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from dataclasses import dataclass, field

__all__ = [
    "CellResult",
    "SWEEP_SCHEMA",
    "SweepCell",
    "SweepReport",
    "load_sweep_report",
    "parse_inject",
    "run_many",
]

#: report schema emitted by ``SweepReport.to_dict``.  v2 added per-cell
#: ``worker_id`` / ``resumed_from_checkpoint`` (and kept ``attempts``)
#: plus the optional ``fabric`` section; v1 reports (no ``schema`` key)
#: stay readable through :func:`load_sweep_report`.
SWEEP_SCHEMA = "repro-sweep/2"

_INJECT_KINDS = ("crash", "hang")
#: fabric-only inject kinds, parameterized ``kind:N`` (see
#: :mod:`repro.resilience.fabric`); the serial runner ignores them
_FABRIC_INJECT_KINDS = ("kill9", "killworker")


def parse_inject(spec: str | None) -> tuple[str | None, int | None, bool]:
    """Split an inject spec into ``(base, arg, always)``.

    Grammar: ``crash`` / ``hang``, optionally suffixed ``-always``; or
    ``kill9:N`` / ``killworker:N`` (fabric-only — SIGKILL the cell runner
    / its worker right after checkpoint ``N`` on the first attempt).
    Raises :class:`ValueError` on anything else.
    """
    if spec is None:
        return None, None, False
    base, colon, arg = spec.partition(":")
    if colon:
        if base in _FABRIC_INJECT_KINDS and arg.isdigit() and int(arg) >= 1:
            return base, int(arg), False
        raise ValueError(
            f"unknown inject {spec!r}; parameterized kinds are "
            f"{' or '.join(f'{kind}:N' for kind in _FABRIC_INJECT_KINDS)} "
            "with N >= 1")
    always = spec.endswith("-always")
    base = spec[:-len("-always")] if always else spec
    if base not in _INJECT_KINDS:
        raise ValueError(
            f"unknown inject {spec!r}; choose from {_INJECT_KINDS} "
            f"(optionally suffixed '-always') or "
            f"{'/'.join(_FABRIC_INJECT_KINDS)}:N")
    return base, None, always


@dataclass(frozen=True)
class SweepCell:
    """One experiment in a sweep: a scheme preset bound to a workload."""

    scheme: str
    app: str = "swim"
    refs: int = 20_000
    warmup_refs: int | None = None
    #: test hook: make the worker misbehave ("crash" / "hang" fail the
    #: first attempt only; "crash-always" / "hang-always" every attempt;
    #: "kill9:N" / "killworker:N" SIGKILL the cell runner / its fabric
    #: worker after checkpoint N — fabric runs only, ignored serially)
    inject: str | None = None

    def __post_init__(self) -> None:
        parse_inject(self.inject)     # raises ValueError on bad specs

    @property
    def label(self) -> str:
        return f"{self.scheme}/{self.app}"

    def workload_id(self) -> str:
        """Path-independent identity of this cell's workload.

        Generator-named cells (SPEC apps, scenario-library names) are
        their own identity.  Recorded-trace cells resolve to
        ``trace-<fingerprint>`` so the same recording reached through two
        different paths (or a moved file) still names the *same* cell —
        the property fabric resume/dedupe and chaos normalization key on.
        An unreadable trace file falls back to the raw spec rather than
        failing identity computation.
        """
        from repro.workloads import canonical_workload_id, is_trace_workload

        if not is_trace_workload(self.app):
            return self.app
        try:
            return canonical_workload_id(self.app)
        except (OSError, ValueError):
            return self.app

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "app": self.app,
            "refs": self.refs,
            "warmup_refs": self.warmup_refs,
            "inject": self.inject,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepCell":
        return cls(
            scheme=data["scheme"],
            app=data.get("app", "swim"),
            refs=data.get("refs", 20_000),
            warmup_refs=data.get("warmup_refs"),
            inject=data.get("inject"),
        )


@dataclass
class CellResult:
    """Final verdict for one cell after all attempts."""

    cell: SweepCell
    status: str                      # "ok" | "failed" | "timeout" | "skipped"
    attempts: int = 0
    elapsed: float = 0.0
    error: str | None = None
    #: the worker's ``ExperimentResult.to_dict()`` when status is "ok"
    result: dict | None = None
    #: which fabric worker published the verdict (None for serial runs)
    worker_id: str | None = None
    #: whether the winning attempt resumed from a per-cell checkpoint
    resumed_from_checkpoint: bool = False

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def to_dict(self) -> dict:
        return {
            "cell": self.cell.to_dict(),
            "status": self.status,
            "attempts": self.attempts,
            "retried": self.retried,
            "elapsed": self.elapsed,
            "error": self.error,
            "result": self.result,
            "worker_id": self.worker_id,
            "resumed_from_checkpoint": self.resumed_from_checkpoint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        """Rebuild from :meth:`to_dict` output — v1 (no worker/resume
        fields) and v2 cell records both load."""
        return cls(
            cell=SweepCell.from_dict(data["cell"]),
            status=data["status"],
            attempts=data.get("attempts", 0),
            elapsed=data.get("elapsed", 0.0),
            error=data.get("error"),
            result=data.get("result"),
            worker_id=data.get("worker_id"),
            resumed_from_checkpoint=bool(
                data.get("resumed_from_checkpoint", False)),
        )


@dataclass
class SweepReport:
    """Everything a sweep produced, including partial results."""

    cells: list[CellResult] = field(default_factory=list)
    interrupted: bool = False
    #: fabric runs attach their queue/metrics section here (None serially)
    fabric: dict | None = None

    @property
    def ok(self) -> bool:
        return (not self.interrupted
                and all(cell.status == "ok" for cell in self.cells))

    def counts(self) -> dict:
        out: dict = {}
        for cell in self.cells:
            out[cell.status] = out.get(cell.status, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "schema": SWEEP_SCHEMA,
            "cells": [cell.to_dict() for cell in self.cells],
            "counts": self.counts(),
            "interrupted": self.interrupted,
            "ok": self.ok,
            "fabric": self.fabric,
        }


def _worker(conn, cell_dict: dict, attempt: int) -> None:
    """Run one cell inside a spawned process; report over the pipe.

    Runs with SIGINT ignored: the supervisor owns interrupt handling, and a
    terminal Ctrl-C is delivered to the whole process group — the worker
    must not die mid-send and turn a graceful drain into a spurious crash.
    """
    import os

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    cell = SweepCell.from_dict(cell_dict)
    base, _arg, always = parse_inject(cell.inject)
    # kill9/killworker are fabric hooks (they need a checkpoint stream to
    # anchor to); the serial runner runs such cells normally
    if base in _INJECT_KINDS and (always or attempt == 1):
        if base == "crash":
            os._exit(17)
        while True:                        # "hang": wait for terminate()
            time.sleep(3600)
    try:
        from repro import api

        result = api.run(cell.scheme, cell.app, refs=cell.refs,
                         warmup_refs=cell.warmup_refs)
        conn.send({"ok": True, "result": result.to_dict()})
    except Exception as exc:            # noqa: BLE001 — verdict, not handling
        conn.send({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def load_sweep_report(path: str) -> dict:
    """Read a sweep-report JSON written via ``run_many(out_path=...)``.

    Raises :class:`repro.resilience.checkpoint.CheckpointError` (a
    :class:`ValueError`) with a clear message on an unreadable, truncated,
    or corrupt file — never a raw :class:`json.JSONDecodeError` — so a
    harness resuming from a partial sweep fails loudly and legibly.

    Reads both schema generations: a v1 report (written before the
    ``schema`` key existed) is normalized in place — ``schema`` is set to
    ``"repro-sweep/1"`` and every cell gains the v2 defaults
    (``worker_id: None``, ``resumed_from_checkpoint: False``) — so
    consumers can index v2 fields unconditionally.
    """
    import json

    from repro.resilience.checkpoint import CheckpointError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read sweep report {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"sweep report {path!r} is truncated or corrupt "
            f"(invalid JSON at line {exc.lineno}, column {exc.colno}); "
            "re-run the sweep or restore the file") from exc
    if not isinstance(payload, dict) or "cells" not in payload:
        raise CheckpointError(
            f"sweep report {path!r} is not a sweep report "
            "(missing the 'cells' section)")
    schema = payload.get("schema", "repro-sweep/1")
    if schema not in ("repro-sweep/1", SWEEP_SCHEMA):
        raise CheckpointError(
            f"sweep report {path!r} has unsupported schema {schema!r} "
            f"(this reader knows repro-sweep/1 and {SWEEP_SCHEMA})")
    payload["schema"] = schema
    for cell in payload["cells"]:
        cell.setdefault("worker_id", None)
        cell.setdefault("resumed_from_checkpoint", False)
    payload.setdefault("fabric", None)
    return payload


def run_many(cells, *, timeout: float | None = None, retries: int = 1,
             retry_backoff: float = 0.25, progress=None,
             out_path: str | None = None,
             parallelism: int = 1, queue_dir: str | None = None,
             resume: bool = False, heartbeat_interval: float = 0.5,
             lease_ttl: float = 10.0, checkpoint_refs: int = 2000,
             max_worker_restarts: int | None = None) -> SweepReport:
    """Run every cell under supervision; always returns a report.

    ``timeout`` is the per-attempt wall-clock budget in seconds (``None``
    waits forever); ``retries`` is how many *extra* attempts a crashed or
    timed-out cell gets; ``retry_backoff`` seconds doubles per retry.
    ``progress`` (if given) is called with each :class:`CellResult` as it
    finalizes.  A ``KeyboardInterrupt`` terminates the in-flight worker,
    marks unfinished cells ``skipped``, and returns the partial report
    (``interrupted=True``) instead of propagating.

    ``out_path`` streams partial results to disk: the report JSON is
    rewritten *atomically* after every finalized cell (temp file in the
    same directory + ``os.replace``), so even a SIGKILL leaves the last
    complete report on disk, never a truncated one.  Read it back with
    :func:`load_sweep_report`.

    With ``parallelism > 1`` or an explicit ``queue_dir`` the sweep is
    dispatched to the distributed fabric
    (:func:`repro.resilience.fabric.run_fabric`): cells are sharded
    across spawn-isolated workers via a filesystem work-stealing queue,
    in-flight cells checkpoint every ``checkpoint_refs`` refs so
    reclaimed or retried cells resume mid-simulation, and ``resume=True``
    skips cells whose results already sit in ``queue_dir``.  A
    ``queue_dir`` shared between invocations (or hosts on a shared
    filesystem) makes them cooperate on one queue; without one, a
    parallel run uses a private temporary queue.  The remaining fabric
    knobs (``heartbeat_interval``, ``lease_ttl``,
    ``max_worker_restarts``) are documented on :func:`run_fabric`.
    """
    from repro.resilience.checkpoint import atomic_write_json

    cells = [cell if isinstance(cell, SweepCell)
             else SweepCell.from_dict(dict(cell)) for cell in cells]
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    if resume and queue_dir is None:
        raise ValueError("resume=True needs a queue_dir to resume from")
    if parallelism > 1 or queue_dir is not None:
        import tempfile

        from repro.resilience.fabric import run_fabric

        def _dispatch(qdir: str) -> SweepReport:
            return run_fabric(
                cells, queue_dir=qdir, parallelism=parallelism,
                timeout=timeout, retries=retries,
                retry_backoff=retry_backoff,
                heartbeat_interval=heartbeat_interval, lease_ttl=lease_ttl,
                checkpoint_refs=checkpoint_refs, resume=resume,
                max_worker_restarts=max_worker_restarts,
                progress=progress, out_path=out_path)

        if queue_dir is not None:
            return _dispatch(queue_dir)
        with tempfile.TemporaryDirectory(prefix="repro-fabric-") as tmp:
            return _dispatch(tmp)
    context = multiprocessing.get_context("spawn")
    report = SweepReport()
    process = None
    current: SweepCell | None = None
    try:
        for cell in cells:
            current = cell
            attempts = 0
            status = "failed"
            error: str | None = None
            payload: dict | None = None
            started = time.monotonic()
            while attempts <= retries:
                attempts += 1
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_worker, args=(sender, cell.to_dict(), attempts),
                    daemon=True)
                process.start()
                sender.close()
                process.join(timeout)
                if process.is_alive():
                    process.terminate()
                    process.join(5)
                    status = "timeout"
                    error = (f"worker exceeded the {timeout}s wall-clock "
                             f"budget and was terminated")
                else:
                    # poll() is also true at EOF (worker died pipe-first),
                    # so the recv itself decides between verdict and crash.
                    message = None
                    if receiver.poll():
                        try:
                            message = receiver.recv()
                        except EOFError:
                            message = None
                    if message is not None and message.get("ok"):
                        status, payload, error = "ok", message["result"], None
                    elif message is not None:
                        status, error = "failed", message.get("error")
                    else:
                        status = "failed"
                        error = (f"worker died without reporting "
                                 f"(exit code {process.exitcode})")
                receiver.close()
                process = None
                if status == "ok":
                    break
                if attempts <= retries:
                    time.sleep(retry_backoff * (2 ** (attempts - 1)))
            result = CellResult(cell=cell, status=status, attempts=attempts,
                                elapsed=time.monotonic() - started,
                                error=error, result=payload)
            report.cells.append(result)
            current = None
            if out_path is not None:
                atomic_write_json(out_path, report.to_dict())
            if progress is not None:
                progress(result)
    except KeyboardInterrupt:
        report.interrupted = True
        if process is not None and process.is_alive():
            process.terminate()
            process.join(5)
        done = len(report.cells)
        if current is not None and (not report.cells
                                    or report.cells[-1].cell is not current):
            report.cells.append(CellResult(
                cell=current, status="skipped",
                error="interrupted while running"))
            done += 1
        # `cells` is materialized above, so slicing past the finished
        # prefix marks exactly the never-started tail.
        for untouched in cells[done:]:
            report.cells.append(CellResult(
                cell=untouched, status="skipped",
                error="interrupted before start"))
    if out_path is not None:
        atomic_write_json(out_path, report.to_dict())
    return report
