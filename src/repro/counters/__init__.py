"""Counter organizations for counter-mode memory encryption.

:func:`make_counter_scheme` builds the one a configuration names; the
functional memory system and its timing twin both call it.
"""

from __future__ import annotations

from repro.core.config import CounterOrg, SecureMemoryConfig
from repro.counters.base import (
    CounterScheme,
    IncrementResult,
    OverflowAction,
)
from repro.counters.counter_cache import CounterAccessOutcome, CounterCache
from repro.counters.global_ctr import GlobalCounterScheme
from repro.counters.monolithic import MonolithicCounterScheme
from repro.counters.prediction import (
    DEFAULT_PREDICTION_DEPTH,
    CounterPredictionScheme,
)
from repro.counters.split import SplitCounterScheme

__all__ = [
    "CounterAccessOutcome",
    "CounterCache",
    "CounterPredictionScheme",
    "CounterScheme",
    "DEFAULT_PREDICTION_DEPTH",
    "GlobalCounterScheme",
    "IncrementResult",
    "MonolithicCounterScheme",
    "OverflowAction",
    "SplitCounterScheme",
    "make_counter_scheme",
]


def make_counter_scheme(config: SecureMemoryConfig) -> CounterScheme:
    """Instantiate the counter organization named by a config."""
    org = config.counter_org
    block = config.block_size
    if org is CounterOrg.SPLIT:
        return SplitCounterScheme(block_size=block,
                                  minor_bits=config.minor_bits)
    if org in (CounterOrg.MONO8, CounterOrg.MONO16, CounterOrg.MONO32,
               CounterOrg.MONO64):
        bits = {CounterOrg.MONO8: 8, CounterOrg.MONO16: 16,
                CounterOrg.MONO32: 32, CounterOrg.MONO64: 64}[org]
        return MonolithicCounterScheme(bits, block_size=block)
    if org is CounterOrg.GLOBAL32:
        return GlobalCounterScheme(32, block_size=block)
    if org is CounterOrg.GLOBAL64:
        return GlobalCounterScheme(64, block_size=block)
    if org is CounterOrg.PREDICTION:
        return CounterPredictionScheme(block_size=block,
                                       depth=config.prediction_depth)
    raise ValueError(f"unknown counter organization: {org}")
