"""Trace-driven timing simulation: processor, secure-memory timing, metrics."""

from repro.sim.metrics import geometric_mean
from repro.sim.processor import LoopState, Processor, SimResult, simulate
from repro.sim.timing_memory import MissTiming, TimingSecureMemory

__all__ = [
    "LoopState",
    "MissTiming",
    "Processor",
    "SimResult",
    "TimingSecureMemory",
    "geometric_mean",
    "simulate",
]
