"""Cross-engine checkpoint/resume: engines are interchangeable mid-run.

``sim_engine`` is a host-side execution choice, not simulation semantics,
so a checkpoint written under one engine must resume under the other and
land byte-identical to the uninterrupted run — final cycles, metrics
snapshot, and full semantic memory state.  Both directions are covered
(scalar -> batched and batched -> scalar), and the checkpoint payloads
themselves must agree on everything except the host-only fields.
"""

import pytest

from repro.api import get_config
from repro.core.config import PRESETS
from repro.resilience import (
    checkpoint_simulation,
    load_simulation,
    semantic_config_state,
)
from repro.sim.processor import LoopState, Processor
from repro.workloads import PROFILES, generate_trace

#: A cross-section of the scheme space: no protection, both counter
#: modes, direct encryption, authenticated variants, prediction, and the
#: registry-backed schemes.
SUBSET = [s for s in ("baseline", "split", "mono64b", "direct", "split+gcm",
                      "mono+sha", "xom+sha", "pred", "secddr", "scattered")
          if s in PRESETS]

#: presets the closure engine does not model: every ``sim_engine`` runs
#: them on the scalar oracle (``test_engine_equivalence`` pins the list)
ORACLE_PRESETS = ("pred", "scattered")

WARMUP = 2000
CHECKPOINT_EVERY = 4000


@pytest.fixture(scope="module")
def trace():
    return generate_trace(PROFILES["gzip"], 12000, seed=3)


@pytest.fixture(scope="module")
def reference(trace):
    """Uninterrupted runs, keyed by preset; engine-agreement asserted."""
    out = {}
    for name in SUBSET:
        runs = []
        for engine in (("scalar",) if name in ORACLE_PRESETS
                       else ("scalar", "auto")):
            p = Processor(get_config(name, sim_engine=engine))
            r = p.run(trace, warmup_refs=WARMUP)
            runs.append((r.cycles, p.metrics.snapshot(), p.state_dict()))
        assert all(run == runs[0] for run in runs), name
        out[name] = runs[0]
    return out


@pytest.mark.parametrize("name", SUBSET)
@pytest.mark.parametrize("engines", [("scalar", "auto"),
                                     ("auto", "scalar")],
                         ids=["scalar-to-batched", "batched-to-scalar"])
def test_resume_across_engines(name, engines, trace, reference):
    save_engine, resume_engine = engines
    if name in ORACLE_PRESETS and save_engine == "auto":
        # the oracle saves and resumes it under either engine, so the
        # scalar-to-batched id already runs this resume
        processor = Processor(get_config(name, sim_engine=save_engine))
        assert processor.resolved_sim_engine() == "scalar"
        return

    saved = []
    p1 = Processor(get_config(name, sim_engine=save_engine))
    p1.run(trace, warmup_refs=WARMUP, checkpoint_every=CHECKPOINT_EVERY,
           on_checkpoint=lambda loop: saved.append(
               checkpoint_simulation(p1, loop)))
    assert saved, f"{name}: no checkpoint written"

    payload = load_simulation(saved[0])
    p2 = Processor(get_config(name, sim_engine=resume_engine))
    p2.load_state(payload["processor"])
    loop = LoopState.from_dict(payload["loop"])
    r2 = p2.run(trace, warmup_refs=WARMUP, resume=loop)

    assert (r2.cycles, p2.metrics.snapshot(), p2.state_dict()) == \
        reference[name]

    # The persisted config differs from the resuming engine's only in
    # the host-only field, sim_engine.
    assert semantic_config_state(payload["config"]) == \
        semantic_config_state(get_config(name, sim_engine=resume_engine))
