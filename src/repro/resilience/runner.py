"""Sweep data model: cells, per-cell verdicts and the sweep report.

A sweep is a list of :class:`SweepCell` (scheme × workload × refs).
:func:`repro.resilience.fabric.run_many` runs it and returns a
:class:`SweepReport` holding one :class:`CellResult` per cell;
:func:`load_sweep_report` reads a report back from the JSON that
``run_many(out_path=...)`` streams.

Cells carry an ``inject`` test hook (see :func:`parse_inject`) that makes
the process simulating the cell misbehave; the chaos tests and the CI
``resilience`` and ``sweep-chaos`` jobs use it to prove the fabric's
retry, timeout and resume paths against real subprocesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CellResult",
    "SWEEP_SCHEMA",
    "SweepCell",
    "SweepReport",
    "load_sweep_report",
    "parse_inject",
]

#: report schema emitted by ``SweepReport.to_dict``: per-cell
#: ``attempts``, ``worker_id`` and ``resumed_from_checkpoint`` plus the
#: ``fabric`` section.  :func:`load_sweep_report` reads only this one.
SWEEP_SCHEMA = "repro-sweep/2"

_INJECT_KINDS = ("crash", "hang")
#: inject kinds parameterized ``kind:N``, anchored to checkpoint N (see
#: :mod:`repro.resilience.fabric`)
_KILL_INJECT_KINDS = ("kill9", "killworker")


def parse_inject(spec: str | None) -> tuple[str | None, int | None, bool]:
    """Split an inject spec into ``(base, arg, always)``.

    Grammar: ``crash`` / ``hang``, optionally suffixed ``-always``; or
    ``kill9:N`` / ``killworker:N`` (SIGKILL the cell runner / its worker
    right after checkpoint ``N`` on the first attempt).
    Raises :class:`ValueError` on anything else.
    """
    if spec is None:
        return None, None, False
    base, colon, arg = spec.partition(":")
    if colon:
        if base in _KILL_INJECT_KINDS and arg.isdigit() and int(arg) >= 1:
            return base, int(arg), False
        raise ValueError(
            f"unknown inject {spec!r}; parameterized kinds are "
            f"{' or '.join(f'{kind}:N' for kind in _KILL_INJECT_KINDS)} "
            "with N >= 1")
    always = spec.endswith("-always")
    base = spec[:-len("-always")] if always else spec
    if base not in _INJECT_KINDS:
        raise ValueError(
            f"unknown inject {spec!r}; choose from {_INJECT_KINDS} "
            f"(optionally suffixed '-always') or "
            f"{'/'.join(_KILL_INJECT_KINDS)}:N")
    return base, None, always


@dataclass(frozen=True)
class SweepCell:
    """One experiment in a sweep: a scheme preset bound to a workload."""

    scheme: str
    app: str = "swim"
    refs: int = 20_000
    warmup_refs: int | None = None
    #: test hook: make the cell runner misbehave ("crash" / "hang" fail
    #: the first attempt only; "crash-always" / "hang-always" every
    #: attempt; "kill9:N" / "killworker:N" SIGKILL the cell runner / its
    #: worker after checkpoint N)
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
    #: which fabric worker published the verdict (None if none did)
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
        """Rebuild from :meth:`to_dict` output."""
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
    #: the fabric's queue/metrics section (None on a hand-built report)
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


def load_sweep_report(path: str) -> dict:
    """Read a sweep-report JSON written via ``run_many(out_path=...)``.

    Raises :class:`repro.resilience.checkpoint.CheckpointError` (a
    :class:`ValueError`) with a clear message on an unreadable, truncated,
    or corrupt file — never a raw :class:`json.JSONDecodeError` — so a
    harness resuming from a partial sweep fails loudly and legibly.  A
    report of any schema but :data:`SWEEP_SCHEMA`, or of none, is
    rejected the same way.
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
    schema = payload.get("schema")
    if schema != SWEEP_SCHEMA:
        raise CheckpointError(
            f"sweep report {path!r} has unsupported schema {schema!r} "
            f"(this reader knows {SWEEP_SCHEMA})")
    return payload
