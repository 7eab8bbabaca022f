"""Experiment-level aggregation of normalized IPC.

All performance results in the paper are *normalized IPC* — a scheme's IPC
divided by the IPC of the same application on a machine with no memory
encryption or authentication (:class:`repro.api.Experiment` computes it,
``nan`` when the baseline IPC is zero).  The figures average it over all
21 benchmarks even when only a subset is plotted individually.

``geometric_mean`` works in the log domain so a 21-benchmark product of
small ratios cannot underflow to 0.0 (the naive product of 21 values
around 1e-20 underflows ``float``).
"""

from __future__ import annotations

import math


def geometric_mean(values: list[float], skip_invalid: bool = False) -> float:
    """Geometric mean (well-suited to IPC ratios), computed in log domain.

    * ``[]`` (or all-skipped input) -> 0.0
    * any value == 0 -> 0.0 (a zero ratio annihilates the product)
    * any negative value -> ``ValueError`` (undefined for real outputs)
    * any nan -> ``ValueError`` unless ``skip_invalid=True``, which drops
      nan cells (e.g. a normalized IPC over a broken baseline)
    """
    cleaned = []
    for v in values:
        if math.isnan(v):
            if skip_invalid:
                continue
            raise ValueError("nan in mean input (invalid cell); "
                             "pass skip_invalid=True to drop such cells")
        if v < 0:
            raise ValueError(f"negative value {v!r} has no geometric mean")
        cleaned.append(v)
    if not cleaned:
        return 0.0
    if any(v == 0 for v in cleaned):
        return 0.0
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))
