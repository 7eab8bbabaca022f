"""In-memory span recorder for the benchmark's traced run.

Spans come only from wrappers this module installs around public
functions of the program (``SpanRecorder.wrap``) or from the benchmark's
own loops (``SpanRecorder.span`` / ``SpanRecorder.record``).  Nothing
inside ``src/`` is touched: a wrapper replaces a module or class
attribute for the duration of the traced run and ``restore`` puts the
original back.

Each span has a name, a start, an end and a parent.  A layer's self time
is its span minus the part of that interval its children cover; the
self times of one lane (a root span and its descendants) add up to the
root's duration, and the root's own self time is the part no layer
claims, reported as ``residual_frac``.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

__all__ = ["SpanRecorder", "residual_frac", "self_times",
           "write_chrome_trace"]


class SpanRecorder:
    """Spans kept in flat lists; parents are indices into them."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: per-name (calls, units) so a wrapper can report work done
        self.counts: dict[str, list[int]] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span whose parent is the innermost open one."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(-1)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of "
                               f"order (open: {self.names[popped]!r})")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def record(self, name: str, start_ns: int, end_ns: int,
               parent: int) -> int:
        """Add a finished span with an explicit parent (for coroutines,
        whose interleaving makes a call stack meaningless)."""
        self.names.append(name)
        self.starts.append(start_ns)
        self.ends.append(end_ns)
        self.parents.append(parent)
        return len(self.names) - 1

    def count(self, name: str, units: int = 1) -> None:
        entry = self.counts.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += units

    # -- wrapping public functions -----------------------------------------

    def wrap(self, owner, attr: str, name, units=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or a function of the call's arguments
        returning one; ``units`` (optional) maps the arguments to a work
        count accumulated under the span name in :attr:`counts`.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if units is not None:
                self.count(label, units(*args, **kwargs))
            index = self.begin(label)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(index)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def time_calls(self, owner, attr: str, name: str) -> None:
        """Accumulate call count and total time of ``owner.attr`` without
        opening spans — for calls interleaved across coroutines."""
        original = getattr(owner, attr)
        totals = self.counts.setdefault(name, [0, 0])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                totals[0] += 1
                totals[1] += time.perf_counter_ns() - start

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- views ---------------------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for n, start, end
                in zip(self.names, self.starts, self.ends) if n == name]


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``intervals``."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(rec: SpanRecorder) -> list[int]:
    """Per-span self time in ns: duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict[int, list[tuple[int, int]]] = {}
    for index, parent in enumerate(rec.parents):
        if parent >= 0:
            lo = max(rec.starts[index], rec.starts[parent])
            hi = min(rec.ends[index], rec.ends[parent])
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return [end - start - _covered(children.get(index, []))
            for index, (start, end) in enumerate(zip(rec.starts, rec.ends))]


def residual_frac(rec: SpanRecorder) -> float:
    """Share of the root spans' wall time that no layer span covers.

    Each root (a span without a parent) is one sequential lane.  Its
    layer parts are the self times of its descendants; wall time minus
    their sum is the root's own self time, so the residual is the roots'
    self time over the roots' duration.
    """
    own = self_times(rec)
    roots = [i for i, parent in enumerate(rec.parents) if parent < 0]
    wall = sum(rec.ends[i] - rec.starts[i] for i in roots)
    return sum(own[i] for i in roots) / wall if wall else 0.0


def write_chrome_trace(rec: SpanRecorder, path: str) -> None:
    """Write every span as a Chrome-trace complete event (Perfetto opens
    it); each root lane gets its own thread row."""
    lane: list[int] = []
    for parent in rec.parents:
        lane.append(len(lane) if parent < 0 else lane[parent])
    origin = min(rec.starts) if rec.starts else 0
    events = [{
        "name": name, "ph": "X", "pid": 1, "tid": lane[i],
        "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
        "args": {"parent": rec.parents[i]},
    } for i, (name, start, end)
        in enumerate(zip(rec.names, rec.starts, rec.ends))]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
