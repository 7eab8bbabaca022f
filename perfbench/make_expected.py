"""Regenerate ``expected.json``: every (scheme, app, refs) cell the
``cells`` and ``sweep`` workloads can pick, simulated once with the
scalar oracle engine (scheme and baseline both).

The batched engine is bit-exact against the scalar one, so the benchmark
checks its cells for exact equality with this table.  Run from the
checkout root (takes a few minutes)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys

from common import use_program
from sim_workloads import (
    CELLS_PLAN,
    EXPECTED_PATH,
    SWEEP_PLAN,
    SimPlan,
    cell_key,
    expected_row,
)


def build_table(plans: list[SimPlan]) -> dict:
    """Oracle rows keyed by :func:`cell_key`."""
    from repro import api
    from repro.sim import simulate
    from repro.workloads import resolve_trace

    cells = {}
    for plan in plans:
        for app in plan.apps:
            trace = resolve_trace(app, plan.refs)
            baseline = simulate(api.get_config("baseline",
                                               sim_engine="scalar"),
                                trace, warmup_refs=plan.refs // 3)
            for scheme in plan.schemes:
                config = api.get_config(scheme, sim_engine="scalar")
                result = api.Experiment(config, trace, refs=plan.refs,
                                        baseline=baseline).run()
                cells[cell_key(scheme, app, plan.refs)] = \
                    expected_row(result)
    return cells


def main() -> int:
    use_program()
    table = build_table([CELLS_PLAN, SWEEP_PLAN])
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"engine": "scalar", "cells": table}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} cells to {EXPECTED_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
