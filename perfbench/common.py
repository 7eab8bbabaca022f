"""Shared helpers: locating the program, statistics, the result line."""

from __future__ import annotations

import ctypes
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

#: checkout root (the directory holding BENCHMARK.json and src/)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for queues and traces, inside the checkout
WORK = os.path.join(ROOT, ".perfbench")


class MissingProgram(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_program() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- process hygiene ----------------------------------------------------------

#: prctl option that makes orphaned descendants re-parent to this process
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of every orphaned descendant (Linux only).

    Spawned multiprocessing children start a resource-tracker process
    that outlives its parent by a moment; re-parented to an init that
    never reaps, it would stay behind as a zombie.  As a subreaper this
    process inherits such orphans and ``reap_descendants`` ends them.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Pids whose parent is this process (read from ``/proc``)."""
    me, pids = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_resource_tracker() -> None:
    """Close this process's end of the multiprocessing resource tracker's
    pipe so the tracker exits; ``reap_descendants`` then waits for it."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None


def reap_descendants(grace_s: float = 10.0) -> int:
    """Wait for every child (and, as a subreaper, every orphaned
    descendant) to end and reap it.  Children still alive after
    ``grace_s`` get SIGTERM, and SIGKILL after twice that.  Returns how
    many processes were reaped."""
    stop_resource_tracker()
    started, reaped, signalled = time.monotonic(), 0, set()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
            continue
        waited = time.monotonic() - started
        kill = (signal.SIGKILL if waited > 2 * grace_s
                else signal.SIGTERM if waited > grace_s else None)
        for child in child_pids() if kill is not None else ():
            if (child, kill) in signalled:
                continue
            signalled.add((child, kill))
            print(f"perfbench: sending {kill.name} to leftover process "
                  f"{child}", file=sys.stderr)
            try:
                os.kill(child, kill)
            except ProcessLookupError:
                pass
        time.sleep(0.01)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set in MiB (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


#: wall time of a fresh ``python3 -c "import numpy"`` on the reference
#: host (2 vCPUs, Python 3.11, NumPy 2.4) while it ran undisturbed
REFERENCE_START_S = 0.16


def _start_s(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def import_probe_s(trials: int = 7) -> float:
    """Median wall time of a fresh interpreter importing ``repro.api``,
    normalized to the reference host.

    Start-up is mostly loading modules and shared libraries, and the
    host's speed at that steps by ~40% within seconds, which the
    pure-Python unit does not track.  So each trial is paired with an
    adjacent fresh interpreter importing NumPy, a fixed load outside the
    program, and is divided by that pair's slowdown against
    ``REFERENCE_START_S``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return median(_start_s("import repro.api", env) * REFERENCE_START_S
                  / _start_s("import numpy", env) for _ in range(trials))


#: wall time of one calibration unit on the reference host (2 vCPUs,
#: Python 3.11) while it ran undisturbed
REFERENCE_UNIT_S = 0.0053


def calibration_unit_s(clock=time.perf_counter) -> float:
    """Time of one fixed pure-Python work unit (~5 ms) on ``clock``."""
    start = clock()
    acc, table = 0, {}
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return clock() - start


class HostSpeed:
    """How much slower than the reference host this thread ran.

    Shared hosts drift in speed by tens of percent over minutes, and
    within seconds.  The workloads time a fixed calibration unit between
    units of work (a cell, a serve window, a service set-up) and divide
    each unit's time by the slowdown sampled just before and just after
    it, so a figure reads as it would on the reference host.  The
    ``sweep`` batches use ``BusyHostSpeed`` instead.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(calibration_unit_s())
        self.samples.append(calibration_unit_s())

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_UNIT_S

    def recent_slowdown(self) -> float:
        """Slowdown over the last two ``sample`` calls, which bracket
        the work between them."""
        return statistics.fmean(self.samples[-4:]) / REFERENCE_UNIT_S

    def bracket(self, elapsed_s: float) -> float:
        """``elapsed_s`` of work done since the last ``sample``, divided
        by the slowdown sampled before and (now) after it."""
        self.sample()
        return elapsed_s / self.recent_slowdown()


class BusyHostSpeed(HostSpeed):
    """Host slowdown sampled while other processes do the work.

    The ``sweep`` keeps both cores busy with spawned workers, and the
    host's speed moves within one batch; a unit timed between batches
    missed that.  Inside a ``with`` block a daemon thread of this
    process runs the unit every ``interval`` seconds and keeps its
    thread CPU time.  That excludes the time the thread waited for a
    core, so it measures how fast a core ran, not how busy the workers
    kept them.  The sampling costs a few percent of one core.
    """

    def __init__(self, interval: float = 0.1):
        super().__init__()
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while True:
            self.samples.append(calibration_unit_s(time.thread_time))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "BusyHostSpeed":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()


def timing_metrics(setup_s: float, p50_s: float, p90_s: float,
                   ops_per_s: float, *, host: HostSpeed,
                   rss_children: bool = False) -> dict:
    """The end-to-end metrics every workload reports, from times already
    normalized to the reference host; ``host`` holds the samples of the
    timed phase, whose mean slowdown is printed."""
    print(f"  mean host slowdown vs reference {host.slowdown:.4f}")
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(rss_children), "MiB"),
        "op_ms_p50": (p50_s * 1e3, "ms"),
        "op_ms_p90": (p90_s * 1e3, "ms"),
        "ops_per_s": (ops_per_s, "1/s"),
    }


def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the human summary, then the result object as the last line."""
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):14.6g} ratio"
          f"  ({failed} of {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
