"""Trace-driven processor model with a bounded out-of-order window.

Stands in for the paper's SESC-simulated 3-issue out-of-order core
(section 5).  The model executes a memory-reference trace:

* non-memory instructions retire at the issue width (3 per cycle);
* L1 hits are free (their 2-cycle latency is fully pipelined);
* L2 hits are likewise hidden by the out-of-order window;
* L2 *load* misses enter an outstanding-miss window bounded by the number
  of MSHRs and by a reorder-buffer instruction budget — the core keeps
  running until either fills, which is what lets independent misses overlap
  (memory-level parallelism) while still exposing latency that exceeds the
  window;
* store misses allocate and consume memory-system resources (bus, engines,
  counter traffic) but drain through the store buffer without stalling
  retirement;
* dirty L2 evictions go to ``TimingSecureMemory.write_back``, whose only
  direct stalls are the RSR conditions of section 4.2.

The authentication policy (Lazy / Commit / Safe, Figure 8) decides how much
of each load's ``auth_done - data_ready`` gap is exposed on top of the data
arrival before the load is considered complete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.auth.policies import AuthPolicy, exposed_auth_latency
from repro.core.config import (
    DEFAULT_ISSUE_WIDTH,
    DEFAULT_L1_ASSOC,
    DEFAULT_L1_SIZE,
    DEFAULT_L2_ASSOC,
    DEFAULT_L2_SIZE,
    SecureMemoryConfig,
)
from repro.memory.cache import Cache
from repro.obs.tracer import Tracer
from repro.sim.timing_memory import TimingSecureMemory
from repro.workloads.trace import Trace

DEFAULT_ROB_INSNS = 128
DEFAULT_MSHRS = 8


@dataclass
class LoopState:
    """The trace loop's scalar state at a reference boundary.

    Everything :meth:`Processor.run` keeps outside the memory hierarchy:
    captured by the checkpoint callback, handed back via ``resume=`` so a
    resumed run continues exactly where the checkpointed one stopped.
    ``outstanding`` mirrors the bounded out-of-order window as
    ``[completion_cycle, insn_index]`` pairs.

    Both engines express the clock as ``cycle = cycle_base +
    trace.cum_cycles(cpi)[i]`` (stalls re-anchor the base), so the base —
    not the derived ``cycle`` — is what a resume needs: re-deriving it as
    ``cycle - cum[i]`` would lose ulps to float cancellation and break the
    bit-identical-resume guarantee.  ``cycle`` stays in the snapshot for
    readability and legacy checkpoints (``cycle_base=None`` falls back to
    the approximate re-derivation).
    """

    cycle: float = 0.0
    insns: int = 0
    writebacks: int = 0
    cycle0: float = 0.0
    insns0: int = 0
    next_ref: int = 0
    outstanding: list = field(default_factory=list)
    cycle_base: float | None = None

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "insns": self.insns,
            "writebacks": self.writebacks,
            "cycle0": self.cycle0,
            "insns0": self.insns0,
            "next_ref": self.next_ref,
            "outstanding": [list(entry) for entry in self.outstanding],
            "cycle_base": self.cycle_base,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LoopState":
        return cls(
            cycle=data["cycle"],
            insns=data["insns"],
            writebacks=data["writebacks"],
            cycle0=data["cycle0"],
            insns0=data["insns0"],
            next_ref=data["next_ref"],
            outstanding=[list(entry) for entry in data["outstanding"]],
            cycle_base=data.get("cycle_base"),
        )


@dataclass
class SimResult:
    """Outcome of one timing-simulation run."""

    name: str
    instructions: int
    cycles: float
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    writebacks: int
    #: None on a stats-only result (an api trace-memo baseline)
    memory: TimingSecureMemory | None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l2_miss_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_misses / total if total else 0.0

    @property
    def seconds(self) -> float:
        """Simulated wall time at the 5GHz clock of section 5."""
        return self.cycles / 5e9


class Processor:
    """Bounded-window trace-driven core over a two-level cache hierarchy."""

    def __init__(self, config: SecureMemoryConfig,
                 issue_width: int = DEFAULT_ISSUE_WIDTH,
                 rob_insns: int = DEFAULT_ROB_INSNS,
                 mshrs: int = DEFAULT_MSHRS,
                 l1_size: int = DEFAULT_L1_SIZE,
                 l1_assoc: int = DEFAULT_L1_ASSOC,
                 l2_size: int = DEFAULT_L2_SIZE,
                 l2_assoc: int = DEFAULT_L2_ASSOC,
                 tracer: Tracer | None = None):
        self.config = config
        self.issue_width = issue_width
        self.rob_insns = rob_insns
        self.mshrs = mshrs
        block = config.block_size
        self.l1 = Cache(l1_size, l1_assoc, block, name="l1d")
        self.l2 = Cache(l2_size, l2_assoc, block, name="l2")
        self.memory = TimingSecureMemory(config, l2=self.l2, tracer=tracer)
        # Single registry spanning the whole hierarchy: the memory system
        # already registered everything it owns; add the core-side caches.
        self.metrics = self.memory.metrics
        self.metrics.register("l1", self.l1.stats)
        self.metrics.register("l2", self.l2.stats)

    def resolved_sim_engine(self) -> str:
        """The timing-loop implementation this processor will run.

        ``config.sim_engine="scalar"`` pins the per-reference oracle.
        ``"auto"`` picks the NumPy event-batch engine (``"batched"``) for
        every configuration it supports, and the oracle for the rest: an
        enabled tracer, counter prediction, secret shares, or more than
        one AES/SHA copy (:func:`repro.sim.batched.supports`).
        """
        if self.config.sim_engine == "scalar":
            return "scalar"
        from repro.sim.batched import supports

        return "batched" if supports(self.memory) else "scalar"

    def run(self, trace: Trace, warmup_refs: int = 0, *,
            resume: LoopState | None = None,
            checkpoint_every: int | None = None,
            on_checkpoint=None) -> SimResult:
        """Execute a trace to completion and return timing statistics.

        ``warmup_refs`` references are simulated first to warm the caches
        (the paper fast-forwards 5 billion instructions before measuring);
        statistics and the cycle/instruction baselines reset at the
        boundary, so the result reflects warm-cache behaviour only.

        ``resume`` continues a run from a :class:`LoopState` captured by a
        previous checkpoint (the caches and memory system must have been
        restored first); ``checkpoint_every``/``on_checkpoint`` invoke the
        callback with the current :class:`LoopState` every N references.
        Checkpoints fire at the top of an iteration, before the reference
        executes, so a resumed run replays the exact remaining stream and
        finishes with bit-identical statistics.

        The loop itself runs on the engine :meth:`resolved_sim_engine`
        names — the per-reference scalar oracle below, or the NumPy
        event-batch engine of :mod:`repro.sim.batched`.  Both produce
        bit-identical cycles, statistics, and checkpoints (the
        golden-trace and differential suites enforce this), so
        ``config.sim_engine`` is purely a host-speed choice.
        """
        if self.resolved_sim_engine() == "batched":
            from repro.sim.batched import run_batched

            return run_batched(self, trace, warmup_refs=warmup_refs,
                               resume=resume,
                               checkpoint_every=checkpoint_every,
                               on_checkpoint=on_checkpoint)
        return self._run_scalar(trace, warmup_refs, resume=resume,
                                checkpoint_every=checkpoint_every,
                                on_checkpoint=on_checkpoint)

    def _run_scalar(self, trace: Trace, warmup_refs: int = 0, *,
                    resume: LoopState | None = None,
                    checkpoint_every: int | None = None,
                    on_checkpoint=None) -> SimResult:
        """The per-reference oracle loop (see :meth:`run` for semantics).

        Clock arithmetic is expressed against the trace's shared prefix
        sums (``cycle = cycle_base + cum[i]``, re-anchored whenever a
        stall advances the clock) so the batched engine can reproduce the
        exact same IEEE doubles by evaluating the exact same expressions.
        """
        l1 = self.l1
        l2 = self.l2
        memory = self.memory
        policy = self.config.auth_policy
        cpi = 1.0 / self.issue_width
        block_mask = ~(self.config.block_size - 1)
        cum_cycles = trace.cum_cycles(cpi).tolist()
        cum_insns = trace.cum_insns.tolist()

        state = resume if resume is not None else LoopState()
        start = state.next_ref
        if state.cycle_base is not None:
            cycle_base = state.cycle_base
        else:
            # legacy checkpoint (or fresh state, where this is exactly 0.0)
            cycle_base = state.cycle - cum_cycles[start]
        insns_base = state.insns - cum_insns[start]
        writebacks = state.writebacks
        cycle0 = state.cycle0
        insns0 = state.insns0
        # outstanding load misses: (completion_cycle, insn_index_at_issue)
        outstanding: deque[tuple[float, int]] = deque(
            (entry[0], entry[1]) for entry in state.outstanding)

        writes = trace.writes
        addrs = trace.addrs
        mshrs = self.mshrs
        rob_insns = self.rob_insns

        for i in range(start, len(addrs)):
            if (checkpoint_every and on_checkpoint is not None
                    and i and i != start and i % checkpoint_every == 0):
                on_checkpoint(LoopState(
                    cycle=cycle_base + cum_cycles[i],
                    insns=insns_base + cum_insns[i],
                    writebacks=writebacks,
                    cycle0=cycle0, insns0=insns0, next_ref=i,
                    outstanding=[list(entry) for entry in outstanding],
                    cycle_base=cycle_base))
            if i == warmup_refs and warmup_refs:
                cycle0 = cycle_base + cum_cycles[i]
                insns0 = insns_base + cum_insns[i]
                writebacks = 0
                # The registry knows every stats object in the hierarchy, so
                # new stat sources cannot silently escape the warmup reset.
                self.metrics.reset()
                memory.tracer.clear()
            address = addrs[i] & block_mask
            is_write = writes[i]

            if l1.access(address, write=is_write):
                continue
            evicted_l1 = l1.fill(address, dirty=is_write)
            if evicted_l1 is not None and evicted_l1.dirty:
                # L1 write-back lands in the L2 (on-chip, no bus traffic).
                l2.access(evicted_l1.address, write=True)
            if l2.access(address):
                continue

            # L2 miss: the clock through this reference, then retire
            # completed window entries and make room.
            cycle = cycle_base + cum_cycles[i + 1]
            insns = insns_base + cum_insns[i + 1]
            while outstanding and outstanding[0][0] <= cycle:
                outstanding.popleft()
            while outstanding and (
                len(outstanding) >= mshrs
                or insns - outstanding[0][1] >= rob_insns
            ):
                cycle = max(cycle, outstanding[0][0])
                outstanding.popleft()

            timing = memory.read_miss(cycle, address)
            eviction = l2.fill(address, dirty=is_write)
            if eviction is not None and eviction.dirty:
                writebacks += 1
                stall = memory.write_back(cycle, eviction.address)
                cycle = max(cycle, stall)
            # Re-anchor unconditionally: (base + cum) - cum loses ulps, so
            # doing it only on stalls would make timing depend on *whether*
            # a stall happened — this way both engines re-anchor at every
            # miss and stay bit-identical.
            cycle_base = cycle - cum_cycles[i + 1]

            if is_write:
                # Stores drain via the store buffer; the fetch has consumed
                # bus/engine resources already, nothing enters the window.
                continue
            completion = timing.data_ready + exposed_auth_latency(
                policy, timing.data_ready, timing.auth_done
            )
            outstanding.append((completion, insns))

        # Drain: the last loads must complete.
        n = len(addrs)
        cycle = cycle_base + cum_cycles[n]
        insns = insns_base + cum_insns[n]
        if outstanding:
            cycle = max(cycle, outstanding[-1][0])
        return SimResult(
            name=trace.name,
            instructions=insns - insns0,
            cycles=cycle - cycle0,
            l1_hits=l1.stats.hits,
            l1_misses=l1.stats.misses,
            l2_hits=l2.stats.hits,
            l2_misses=l2.stats.misses,
            writebacks=writebacks,
            memory=memory,
        )

    # -- checkpoint support --------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "l1": self.l1.state_dict(),
            "l2": self.l2.state_dict(),
            "memory": self.memory.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.l1.load_state(state["l1"])
        self.l2.load_state(state["l2"])
        self.memory.load_state(state["memory"])


def simulate(config: SecureMemoryConfig, trace: Trace,
             warmup_refs: int = 0, tracer: Tracer | None = None,
             **kwargs) -> SimResult:
    """One-shot convenience: build a processor and run a trace."""
    return Processor(config, tracer=tracer, **kwargs).run(
        trace, warmup_refs=warmup_refs)
