"""Timing model of the on-chip AES engine.

Section 5: "The 128-bit AES encryption engine we simulate has a 16-stage
pipeline and a total latency of 80 processor cycles" (about twice as fast
as the ChipLock implementation, anticipating technology scaling).  The same
engine serves counter-mode pad generation, direct AES
encryption/decryption, and GCM authentication-pad generation — sharing that
the paper lists as a GCM advantage over separate SHA hardware.
"""

from __future__ import annotations

from repro.engines.pipeline import PipelinedEngine

AES_LATENCY_CYCLES = 80
AES_PIPELINE_STAGES = 16


class AESEngine(PipelinedEngine):
    """Pipelined AES unit; one 16-byte block per operation."""

    def __init__(self, latency: float = AES_LATENCY_CYCLES,
                 stages: int = AES_PIPELINE_STAGES, copies: int = 1):
        super().__init__(latency=latency, stages=stages, copies=copies,
                         name="aes")
