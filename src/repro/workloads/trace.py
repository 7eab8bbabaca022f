"""Memory-access trace format used by the timing simulator.

A trace is three parallel lists (plain Python lists — the hot simulation
loop indexes them far faster than boxed numpy scalars):

* ``gaps[i]``   — non-memory instructions executed since the previous
  memory reference (the i-th reference is one more instruction);
* ``writes[i]`` — True for stores;
* ``addrs[i]``  — byte address referenced.

Traces are produced by :mod:`repro.workloads.generators` from per-benchmark
profiles; they stand in for the SPEC CPU 2000 reference runs of the paper
(see DESIGN.md for the substitution argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: structured dtype of :meth:`Trace.arrays` — one record per reference
TRACE_DTYPE = [("addr", "<i8"), ("gap", "<i4"), ("write", "?")]


@dataclass
class Trace:
    """One benchmark's synthetic memory-reference stream."""

    name: str
    gaps: list[int]
    writes: list[bool]
    addrs: list[int]

    def __post_init__(self) -> None:
        if not (len(self.gaps) == len(self.writes) == len(self.addrs)):
            raise ValueError("trace arrays must have equal length")
        # lazily materialized views (see arrays()/cum_cycles); not part of
        # the dataclass value identity
        self._arrays = None
        self._block_ids: dict = {}
        self._cum_insns: list[int] | None = None
        self._cum_cycles: dict = {}
        #: the batched sim engine's packed whole-trace cache
        #: classifications, keyed by cache geometry (filled and read only
        #: by :mod:`repro.sim.batched`)
        self.classifications: dict = {}
        #: the batched engine's per-event tuples unpacked from
        #: ``classifications``, per drained view; kept on this trace only
        self.event_views: dict = {}

    @classmethod
    def from_arrays(cls, name: str, records) -> "Trace":
        """Rebuild a trace from its :meth:`arrays` records.

        ``records`` becomes the new trace's :meth:`arrays` view as is (no
        copy), so a read-only array stays read-only.
        """
        trace = cls(name=name, gaps=records["gap"].tolist(),
                    writes=records["write"].tolist(),
                    addrs=records["addr"].tolist())
        trace._arrays = records
        return trace

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def instructions(self) -> int:
        """Total instruction count (memory references + gap instructions)."""
        return len(self.gaps) + sum(self.gaps)

    @property
    def write_fraction(self) -> float:
        if not self.writes:
            return 0.0
        return sum(self.writes) / len(self.writes)

    def footprint_blocks(self, block_size: int = 64) -> int:
        """Distinct cache blocks touched."""
        return len({a // block_size for a in self.addrs})

    # -- materialized views (batched engine + shared cycle arithmetic) -------

    def arrays(self):
        """The trace as one structured ndarray (``TRACE_DTYPE``), cached."""
        if self._arrays is None:
            recs = np.zeros(len(self.addrs), dtype=TRACE_DTYPE)
            recs["addr"] = self.addrs
            recs["gap"] = self.gaps
            recs["write"] = self.writes
            self._arrays = recs
        return self._arrays

    def block_ids(self, block_size: int):
        """Per-reference block-aligned addresses as an int64 ndarray, cached
        per block size."""
        cached = self._block_ids.get(block_size)
        if cached is None:
            cached = self.arrays()["addr"] & ~np.int64(block_size - 1)
            self._block_ids[block_size] = cached
        return cached

    @property
    def cum_insns(self) -> list[int]:
        """Exclusive prefix sums of per-reference instruction counts.

        ``cum_insns[i]`` is the number of instructions retired by the
        first ``i`` references (each reference is ``gap + 1``
        instructions); length is ``len(trace) + 1``.
        """
        if self._cum_insns is None:
            insns = np.zeros(len(self.gaps) + 1, dtype=np.int64)
            np.cumsum(self.arrays()["gap"] + 1, out=insns[1:])
            self._cum_insns = insns.tolist()
        return self._cum_insns

    def cum_cycles(self, cpi: float) -> list[float]:
        """Exclusive prefix sums of per-reference issue cycles at ``cpi``.

        Computed once by strict sequential float addition and shared by
        both sim engines, so ``cycle = cycle_base + cum_cycles[i]`` is the
        *same* IEEE double no matter which engine evaluates it — the
        foundation of the bit-exact scalar/batched equivalence suite.
        ``np.add.accumulate`` adds left to right (unlike the pairwise
        ``np.sum``), so this equals the running Python float sum bit for
        bit.
        """
        cached = self._cum_cycles.get(cpi)
        if cached is None:
            cycles = np.zeros(len(self.gaps) + 1, dtype=np.float64)
            np.add.accumulate((self.arrays()["gap"] + 1) * cpi,
                              out=cycles[1:])
            cached = cycles.tolist()
            self._cum_cycles[cpi] = cached
        return cached

    def slice(self, start: int, stop: int) -> "Trace":
        """Sub-trace covering references [start, stop)."""
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            gaps=self.gaps[start:stop],
            writes=self.writes[start:stop],
            addrs=self.addrs[start:stop],
        )
