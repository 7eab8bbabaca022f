"""Deterministic chaos harness for the distributed sweep fabric.

Fault injection for :mod:`repro.resilience.fabric` itself — where
:mod:`repro.testing.faults` attacks the *memory system*, this module
attacks the *sweep infrastructure*: workers SIGKILLed mid-cell, leases
left behind by dead owners, torn result files, clock-skewed heartbeats.
Every scenario is deterministic (kill points are keyed to checkpoint
ordinals and persisted attempt counters, damage is applied to named
queue files between runs — never by racing a timer), so a failure
replays exactly.

The harness's verdict is :func:`assert_chaos_equivalent`: after any
amount of injected chaos plus a resume, the fabric's final report must
be byte-identical to an uninterrupted serial :func:`run_many` of the
same manifest once the metadata that legitimately differs (wall-clock,
attempt counts, worker identity) is stripped — see
:func:`normalize_report`.  The event journal supplies the no-duplicate
evidence: :func:`assert_no_duplicate_completions` proves no cell
*finished* twice, :func:`attempt_counts` exposes how often each cell
*started* so tests can pin exactly which cells paid a retry, and
:func:`assert_runners_exited` proves no warm cell runner outlived the run.
"""

from __future__ import annotations

import json
import os
import time

__all__ = [
    "ChaosPlan",
    "assert_chaos_equivalent",
    "assert_no_duplicate_completions",
    "assert_runners_exited",
    "attempt_counts",
    "normalize_report",
    "plant_orphan_lease",
    "runner_pids",
    "skew_lease_heartbeat",
    "tear_result_file",
]

#: per-cell metadata that legitimately differs between a chaotic fabric
#: run and a serene serial one: how long it took, how many attempts it
#: burned, who ran it, and whether it resumed — never *what it computed*
_VOLATILE_CELL_KEYS = ("elapsed", "attempts", "retried", "worker_id",
                       "resumed_from_checkpoint")


def _canonical_app(app):
    """Path-independent workload identity for a cell spec's ``app``.

    Recorded-trace specs normalize to ``trace-<fingerprint>`` so two
    sweeps over the same recording reached through different paths (a
    moved queue dir, a relative vs. absolute invocation) still compare
    equal.  Generator names pass through; an unreadable trace file keeps
    its raw spec (comparison then falls back to path identity).
    """
    from repro.workloads import canonical_workload_id, is_trace_workload

    if not isinstance(app, str) or not is_trace_workload(app):
        return app
    try:
        return canonical_workload_id(app)
    except (OSError, ValueError):
        return app


def normalize_report(report) -> str:
    """Canonical JSON of a sweep report, timing/attempt metadata removed.

    Accepts a :class:`~repro.resilience.runner.SweepReport` or an
    already-``to_dict()``-ed mapping (e.g. one loaded back through
    :func:`~repro.resilience.runner.load_sweep_report`).  Two reports
    normalize identically iff every cell reached the same terminal status
    with bit-identical simulation results — the chaos harness's
    definition of "the fabric changed nothing".  Cell workload specs are
    canonicalized through :func:`_canonical_app` first, so trace-driven
    cells compare by content fingerprint, not by file path.
    """
    payload = report if isinstance(report, dict) else report.to_dict()
    payload = json.loads(json.dumps(payload))       # deep copy, JSON-shaped
    payload.pop("fabric", None)
    payload.setdefault("schema", "repro-sweep/1")
    payload["schema"] = "repro-sweep/*"             # v1 vs v2 is metadata too
    for cell in payload.get("cells", ()):
        for key in _VOLATILE_CELL_KEYS:
            cell.pop(key, None)
        spec = cell.get("cell")
        if isinstance(spec, dict) and "app" in spec:
            spec["app"] = _canonical_app(spec["app"])
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def assert_chaos_equivalent(serial_report, fabric_report) -> None:
    """Fail loudly unless the two reports are byte-identical (normalized)."""
    serene = normalize_report(serial_report)
    chaotic = normalize_report(fabric_report)
    if serene == chaotic:
        return
    import difflib

    diff = "\n".join(difflib.unified_diff(
        json.dumps(json.loads(serene), indent=1).splitlines(),
        json.dumps(json.loads(chaotic), indent=1).splitlines(),
        "serial", "fabric", lineterm=""))
    raise AssertionError(
        "chaos run diverged from the uninterrupted serial run:\n" + diff)


def attempt_counts(queue_dir: str) -> dict[str, int]:
    """``cell_started`` journal events per cell id (execution attempts)."""
    from repro.resilience.fabric import read_events

    counts: dict[str, int] = {}
    for event in read_events(queue_dir):
        if event.get("event") == "cell_started":
            cid = event.get("cell", "?")
            counts[cid] = counts.get(cid, 0) + 1
    return counts


def assert_no_duplicate_completions(queue_dir: str) -> None:
    """No cell may log ``cell_finished`` twice — a completed cell whose
    result was published must never execute (and re-publish) again."""
    from repro.resilience.fabric import read_events

    finished: dict[str, int] = {}
    for event in read_events(queue_dir):
        if event.get("event") == "cell_finished":
            cid = event.get("cell", "?")
            finished[cid] = finished.get(cid, 0) + 1
    duplicates = {cid: count for cid, count in finished.items() if count > 1}
    if duplicates:
        raise AssertionError(
            f"cells completed more than once: {duplicates} — the "
            "completed-result check before claiming is broken")


def runner_pids(queue_dir: str) -> list[int]:
    """Pids of every warm cell runner the journal says was started."""
    from repro.resilience.fabric import read_events

    return [event["pid"] for event in read_events(queue_dir)
            if event.get("event") == "runner_started"
            and isinstance(event.get("pid"), int)]


def _pid_running(pid: int) -> bool:
    """Whether ``pid`` is a live process.  A zombie — exited, waiting for
    a parent (or, once orphaned, init) to reap it — counts as exited."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
        return state not in ("Z", "X")
    except FileNotFoundError:
        return False
    except OSError:             # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass
        return True


def assert_runners_exited(queue_dir: str) -> None:
    """Every runner in the journal must have exited once a run is over —
    after a clean finish, a drain, or its worker being SIGKILLed (an
    idle runner then sees EOF on its pipe, a busy one its parent pid
    change at the next checkpoint or, in an unchecked cell, the closed
    pipe when it replies; ``killworker`` kills both)."""
    alive = [pid for pid in runner_pids(queue_dir) if _pid_running(pid)]
    if alive:
        raise AssertionError(
            f"cell runners still running after the sweep: pids {alive}")


# -- queue-file vandalism (applied between runs, so deterministic) ------------


def tear_result_file(queue_dir: str, cid: str,
                     content: bytes = b'{"status": "ok", "cell"') -> str:
    """Overwrite a cell's published result with a torn (truncated) write.

    Simulates the one writer the fabric itself never is: a non-atomic
    one.  A resume must detect the damage, quarantine the file to
    ``*.corrupt``, and re-run the cell rather than trust or crash on it.
    Returns the damaged path.
    """
    from repro.resilience.fabric import QueuePaths

    path = QueuePaths(queue_dir).result(cid)
    with open(path, "wb") as handle:
        handle.write(content)
    return path


def plant_orphan_lease(queue_dir: str, cid: str, *,
                       age: float = 3600.0) -> str:
    """Plant a lease owned by a long-dead worker, heartbeat ``age`` s old.

    The next scan must treat it as stale, reclaim it (journaled), and run
    the cell — a SIGKILLed owner forfeits its cell by silence alone.
    """
    from repro.resilience.checkpoint import atomic_write_json
    from repro.resilience.fabric import QueuePaths

    path = QueuePaths(queue_dir).lease(cid)
    atomic_write_json(path, {
        "worker": "chaos-ghost", "nonce": "deadbeefdeadbeef",
        "pid": 2 ** 22 - 1, "heartbeat": time.time() - age,
    }, indent=0)
    return path


def skew_lease_heartbeat(queue_dir: str, cid: str, *,
                         skew: float = 3600.0) -> str:
    """Date a cell's lease heartbeat ``skew`` seconds into the future.

    A lease from a clock-skewed (or heartbeat-forging) worker must not
    park the cell forever: staleness is bidirectional, so a heartbeat
    more than ``lease_ttl`` ahead of local time is reclaimed exactly like
    an expired one.
    """
    from repro.resilience.checkpoint import atomic_write_json
    from repro.resilience.fabric import QueuePaths

    path = QueuePaths(queue_dir).lease(cid)
    atomic_write_json(path, {
        "worker": "chaos-skewed", "nonce": "feedfacefeedface",
        "pid": 2 ** 22 - 2, "heartbeat": time.time() + skew,
    }, indent=0)
    return path


class ChaosPlan:
    """A named, ordered batch of queue-dir damage for one chaos scenario.

    Collects vandalism steps (torn results, orphan/skewed leases) plus
    the cells whose ``inject`` fields carry in-band kills, then applies
    the file damage in one deterministic shot — typically between an
    interrupted first fabric run and the resuming second one::

        plan = (ChaosPlan()
                .tear_result("0001-split-gzip")
                .orphan_lease("0002-baseline-swim")
                .skew_lease("0003-split-swim"))
        plan.apply(queue_dir)

    ``applied`` records the damaged paths for assertions.
    """

    def __init__(self) -> None:
        self._steps: list[tuple] = []
        self.applied: list[str] = []

    def tear_result(self, cid: str, content: bytes | None = None
                    ) -> "ChaosPlan":
        self._steps.append(("tear", cid, content))
        return self

    def orphan_lease(self, cid: str, *, age: float = 3600.0) -> "ChaosPlan":
        self._steps.append(("orphan", cid, age))
        return self

    def skew_lease(self, cid: str, *, skew: float = 3600.0) -> "ChaosPlan":
        self._steps.append(("skew", cid, skew))
        return self

    def apply(self, queue_dir: str) -> list[str]:
        for kind, cid, arg in self._steps:
            if kind == "tear":
                path = (tear_result_file(queue_dir, cid)
                        if arg is None
                        else tear_result_file(queue_dir, cid, arg))
            elif kind == "orphan":
                path = plant_orphan_lease(queue_dir, cid, age=arg)
            else:
                path = skew_lease_heartbeat(queue_dir, cid, skew=arg)
            self.applied.append(path)
        return self.applied

    def quarantined(self, queue_dir: str) -> list[str]:
        """Damaged result files the fabric has since quarantined."""
        return [path for path in self.applied
                if os.path.exists(path + ".corrupt")]
