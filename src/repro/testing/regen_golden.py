"""Regenerate the cycle-exact golden fixtures under ``tests/sim/golden/``.

Usage::

    PYTHONPATH=src python -m repro.testing.regen_golden

One JSON file per preset pins the *scalar* engine's observable
behaviour on a fixed seeded trace: final cycles, normalized IPC against
the no-protection baseline, the full metrics snapshot, the ``SimResult``
stat counters, and the summed :class:`~repro.obs.attribution.MissRecord`
PathTime fields over the first :data:`PATHTIME_MISSES` post-warmup L2
misses.  ``tests/sim/test_golden_traces.py`` replays the same runs and
asserts bit-for-bit equality (floats compare with ``==``, no tolerance),
so any timing-model change — deliberate or accidental — shows up as a
fixture diff.  After a *deliberate* change, rerun this module and commit
the JSON diffs alongside the code.

The fixtures are engine-agnostic by construction: the batched engine is
held to the same numbers by the differential suite in
``tests/sim/test_engine_equivalence.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import get_config
from repro.core.config import PRESETS, baseline_config
from repro.obs.tracer import RecordingTracer
from repro.sim.processor import Processor
from repro.workloads import PROFILES, generate_trace

#: Fixture trace: app profile, length, warmup, and generator seed.  Changing
#: any of these invalidates every fixture — rerun the regeneration.
GOLDEN_APP = "swim"
GOLDEN_REFS = 6000
GOLDEN_WARMUP = 1000
GOLDEN_SEED = 20060613

#: How many post-warmup misses contribute to the PathTime sums.
PATHTIME_MISSES = 64

GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "sim" / "golden"


def golden_trace():
    """The one fixed trace every fixture is computed on."""
    return generate_trace(PROFILES[GOLDEN_APP], GOLDEN_REFS, seed=GOLDEN_SEED)


def compute_fixture(preset: str, trace, baseline_ipc: float) -> dict:
    """Run ``preset`` under the scalar engine and collect the pinned values.

    Two runs: one bare (cycles, counters, metrics — the tracer is kept out
    of the timed run the fixtures pin), one with a strict
    :class:`RecordingTracer` for the PathTime sums.  The second run must
    reproduce the first's cycle count — tracing is observability only —
    and we assert that here so a fixture can never be internally split.
    """
    p = Processor(get_config(preset, sim_engine="scalar"))
    r = p.run(trace, warmup_refs=GOLDEN_WARMUP)
    snapshot = p.metrics.snapshot()

    tracer = RecordingTracer()
    pt = Processor(get_config(preset, sim_engine="scalar"), tracer=tracer)
    rt = pt.run(trace, warmup_refs=GOLDEN_WARMUP)
    assert rt.cycles == r.cycles, (
        f"{preset}: tracer perturbed timing ({rt.cycles} != {r.cycles})"
    )
    head = tracer.misses[:PATHTIME_MISSES]
    pathtime = {
        "misses_recorded": len(tracer.misses),
        "n": len(head),
        "sum_issue": sum(m.issue for m in head),
        "sum_data_ready": sum(m.data_ready for m in head),
        "sum_auth_done": sum(m.auth_done for m in head),
        "sum_parts": sum(sum(m.parts.values()) for m in head),
    }

    ipc = r.instructions / r.cycles if r.cycles else 0.0
    return {
        "preset": preset,
        "trace": {
            "app": GOLDEN_APP,
            "refs": GOLDEN_REFS,
            "warmup": GOLDEN_WARMUP,
            "seed": GOLDEN_SEED,
        },
        "cycles": r.cycles,
        "instructions": r.instructions,
        "normalized_ipc": (ipc / baseline_ipc) if baseline_ipc else
        float("nan"),
        "result": {
            "l1_hits": r.l1_hits,
            "l1_misses": r.l1_misses,
            "l2_hits": r.l2_hits,
            "l2_misses": r.l2_misses,
            "writebacks": r.writebacks,
        },
        "metrics": snapshot,
        "pathtime": pathtime,
    }


def baseline_ipc_for(trace) -> float:
    base = Processor(baseline_config())
    rb = base.run(trace, warmup_refs=GOLDEN_WARMUP)
    return rb.instructions / rb.cycles if rb.cycles else 0.0


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    trace = golden_trace()
    base_ipc = baseline_ipc_for(trace)
    for preset in sorted(PRESETS):
        fixture = compute_fixture(preset, trace, base_ipc)
        path = GOLDEN_DIR / f"{preset}.json"
        path.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(GOLDEN_DIR.parents[2])}"
              f"  cycles={fixture['cycles']}")
    print(f"{len(PRESETS)} fixtures in {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
