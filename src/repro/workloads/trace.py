"""Memory-access trace format used by the timing simulator.

A trace is one structured NumPy array with a record per reference
(``TRACE_DTYPE``, :meth:`Trace.arrays`):

* ``gap``   — non-memory instructions executed since the previous
  memory reference (the i-th reference is one more instruction);
* ``write`` — True for stores;
* ``addr``  — byte address referenced.

The generators fill the records :data:`CHUNK` references at a time, and
the batched sim engine reads them with NumPy and gathers only the
references it drains, a chunk at a time.  Code that walks a trace one reference at a time
(the scalar oracle, the functional-layer drivers) reads the plain Python
lists ``gaps``, ``writes`` and ``addrs``, which are built from the
records on first use and kept.

Traces are produced by :mod:`repro.workloads.generators` from per-benchmark
profiles; they stand in for the SPEC CPU 2000 reference runs of the paper
(see DESIGN.md for the substitution argument).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

#: structured dtype of :meth:`Trace.arrays` — one record per reference
TRACE_DTYPE = [("addr", "<i8"), ("gap", "<i4"), ("write", "?")]

#: The most entries any per-reference or per-event Python list holds
#: while a trace is generated or a batched run classifies and drains it.
#: Every O(refs) stream lives in an array and is filled or read this many
#: entries at a time, so a run's Python objects do not grow with its
#: length.
CHUNK = 2048


class Trace:
    """One benchmark's synthetic memory-reference stream."""

    def __init__(self, name: str, gaps, writes, addrs) -> None:
        if not (len(gaps) == len(writes) == len(addrs)):
            raise ValueError("trace arrays must have equal length")
        records = np.zeros(len(addrs), dtype=TRACE_DTYPE)
        records["addr"] = addrs
        records["gap"] = gaps
        records["write"] = writes
        self._adopt(name, records)

    def _adopt(self, name: str, records) -> None:
        self.name = name
        self._records = records
        self._block_ids: dict = {}
        self._cum_insns: np.ndarray | None = None
        self._cum_cycles: dict = {}
        #: the batched sim engine's packed whole-trace cache
        #: classifications, keyed by cache geometry (filled and read only
        #: by :mod:`repro.sim.batched`)
        self.classifications: dict = {}

    @classmethod
    def from_arrays(cls, name: str, records) -> "Trace":
        """Rebuild a trace from its :meth:`arrays` records.

        ``records`` becomes the new trace's :meth:`arrays` view as is (no
        copy, no per-reference list), so a read-only array stays
        read-only.
        """
        trace = cls.__new__(cls)
        trace._adopt(name, records)
        return trace

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.name == other.name and all(
            np.array_equal(self._records[field], other._records[field])
            for field, _ in TRACE_DTYPE)

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, refs={len(self)})"

    # -- per-reference lists, built on first use -----------------------------

    @cached_property
    def gaps(self) -> list[int]:
        """Per-reference gap instruction counts."""
        return self._records["gap"].tolist()

    @cached_property
    def writes(self) -> list[bool]:
        """Per-reference store flags."""
        return self._records["write"].tolist()

    @cached_property
    def addrs(self) -> list[int]:
        """Per-reference byte addresses."""
        return self._records["addr"].tolist()

    @property
    def instructions(self) -> int:
        """Total instruction count (memory references + gap instructions)."""
        return len(self) + int(self._records["gap"].sum(dtype=np.int64))

    @property
    def write_fraction(self) -> float:
        if not len(self):
            return 0.0
        return int(self._records["write"].sum()) / len(self)

    def footprint_blocks(self, block_size: int = 64) -> int:
        """Distinct cache blocks touched."""
        return len(np.unique(self._records["addr"] // block_size))

    # -- array views (batched engine + shared cycle arithmetic) --------------

    def arrays(self):
        """The trace as one structured ndarray (``TRACE_DTYPE``)."""
        return self._records

    def block_ids(self, block_size: int):
        """Per-reference block-aligned addresses as an int64 ndarray, cached
        per block size."""
        cached = self._block_ids.get(block_size)
        if cached is None:
            cached = self._records["addr"] & ~np.int64(block_size - 1)
            self._block_ids[block_size] = cached
        return cached

    @property
    def cum_insns(self) -> np.ndarray:
        """Exclusive prefix sums of per-reference instruction counts.

        ``cum_insns[i]`` is the number of instructions retired by the
        first ``i`` references (each reference is ``gap + 1``
        instructions); an int64 array of length ``len(trace) + 1``,
        cached and read-only.
        """
        if self._cum_insns is None:
            insns = np.zeros(len(self) + 1, dtype=np.int64)
            np.cumsum(self._records["gap"] + 1, out=insns[1:])
            insns.setflags(write=False)
            self._cum_insns = insns
        return self._cum_insns

    def cum_cycles(self, cpi: float) -> np.ndarray:
        """Exclusive prefix sums of per-reference issue cycles at ``cpi``.

        Computed once per ``cpi`` by strict sequential float addition and
        shared by both sim engines, so ``cycle = cycle_base +
        cum_cycles[i]`` is the *same* IEEE double no matter which engine
        evaluates it — the foundation of the bit-exact scalar/batched
        equivalence suite.  ``np.add.accumulate`` adds left to right
        (unlike the pairwise ``np.sum``), so this equals the running
        Python float sum bit for bit.  A float64 array, cached and
        read-only; its elements convert to the identical Python floats.
        """
        cached = self._cum_cycles.get(cpi)
        if cached is None:
            cached = np.zeros(len(self) + 1, dtype=np.float64)
            np.add.accumulate((self._records["gap"] + 1) * cpi,
                              out=cached[1:])
            cached.setflags(write=False)
            self._cum_cycles[cpi] = cached
        return cached

    def slice(self, start: int, stop: int) -> "Trace":
        """Sub-trace covering references [start, stop) (a view of this
        trace's records)."""
        return Trace.from_arrays(f"{self.name}[{start}:{stop}]",
                                 self._records[start:stop])
