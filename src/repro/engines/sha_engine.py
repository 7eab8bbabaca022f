"""Timing model of the SHA-1 authentication engine (baseline schemes).

Section 5: "The SHA-1 authentication engine is pipelined into 32 stages and
has a latency of 320 processor cycles" — already 4x faster than reported
hardware, deliberately favouring the baseline.  Figure 7 sweeps this
latency over 80/160/320/640 cycles, which ``latency`` parameterizes.

Unlike GCM's authentication pad, a SHA-1 MAC computation cannot begin until
the ciphertext has arrived from memory, so its full latency lands on the
critical path of Commit/Safe authentication.
"""

from __future__ import annotations

from repro.engines.pipeline import PipelinedEngine

SHA1_LATENCY_CYCLES = 320
SHA1_PIPELINE_STAGES = 32


class SHA1Engine(PipelinedEngine):
    """Pipelined SHA-1 unit; one cache-block MAC per operation."""

    def __init__(self, latency: float = SHA1_LATENCY_CYCLES,
                 stages: int = SHA1_PIPELINE_STAGES, copies: int = 1):
        super().__init__(latency=latency, stages=stages, copies=copies,
                         name="sha1")
