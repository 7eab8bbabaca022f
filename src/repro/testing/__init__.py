"""Adversarial-memory fault-injection harness and differential oracle.

The correctness backstop of the reproduction: seeded, schedulable bus-level
faults (:mod:`repro.testing.faults`), deterministic operation schedules
(:mod:`repro.testing.schedule`), a differential oracle that classifies
every injected fault as detected / neutralized / missed
(:mod:`repro.testing.oracle`), ddmin-style schedule shrinking
(:mod:`repro.testing.shrink`), the campaign runner behind
``python -m repro fuzz`` (:mod:`repro.testing.fuzz`), and the
sweep-fabric chaos harness — worker kills, stale/skewed leases, torn
result files, byte-identical resume assertions
(:mod:`repro.testing.chaos`).
"""

from repro.testing.chaos import (
    ChaosPlan,
    assert_chaos_equivalent,
    assert_no_duplicate_completions,
    assert_runners_exited,
    attempt_counts,
    normalize_report,
    plant_orphan_lease,
    reference_report,
    runner_pids,
    skew_lease_heartbeat,
    tear_result_file,
)
from repro.testing.faults import (
    AdversarialBus,
    AdversarialDRAM,
    FaultEvent,
    FaultKind,
    FaultSpec,
    Trigger,
)
from repro.testing.fuzz import (
    FuzzReport,
    format_report,
    replay_reproducer,
    run_fuzz,
)
from repro.testing.oracle import (
    DifferentialResult,
    FaultOutcome,
    ScenarioResult,
    run_differential_checks,
    run_scenario,
)
from repro.testing.schedule import Op, Scenario, generate_scenario
from repro.testing.shrink import shrink_scenario

__all__ = [
    "AdversarialBus",
    "AdversarialDRAM",
    "ChaosPlan",
    "DifferentialResult",
    "FaultEvent",
    "FaultKind",
    "FaultOutcome",
    "FaultSpec",
    "FuzzReport",
    "Op",
    "Scenario",
    "ScenarioResult",
    "Trigger",
    "assert_chaos_equivalent",
    "assert_no_duplicate_completions",
    "assert_runners_exited",
    "attempt_counts",
    "format_report",
    "generate_scenario",
    "normalize_report",
    "plant_orphan_lease",
    "reference_report",
    "replay_reproducer",
    "run_differential_checks",
    "run_fuzz",
    "run_scenario",
    "runner_pids",
    "shrink_scenario",
    "skew_lease_heartbeat",
    "tear_result_file",
]
