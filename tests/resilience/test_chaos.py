"""Chaos harness acceptance: kills, stale/skewed leases, torn results.

The headline criterion lives here: SIGKILL a worker mid-cell, resume,
and the final report is byte-identical (modulo timing/attempt metadata)
to the in-process reference report of the same cells — with
checkpointed cells resuming mid-simulation rather than rerunning from
scratch, and no completed cell executed twice.
"""

import os

from repro.resilience.fabric import QueuePaths, read_events, run_many
from repro.resilience.runner import SweepCell
from repro.testing import (
    ChaosPlan,
    assert_chaos_equivalent,
    assert_no_duplicate_completions,
    assert_runners_exited,
    attempt_counts,
    normalize_report,
    reference_report,
)

REFS = 3_000          # > checkpoint cadence, so kills land mid-simulation
CKPT = 500


def chaos_cells():
    # inject metadata rides in the cell dicts of BOTH reports, so the
    # in-process reference (which injects nothing) stays byte-comparable
    return [SweepCell("split", "swim", refs=REFS, inject="kill9:1"),
            SweepCell("split", "gzip", refs=REFS, inject="killworker:1"),
            SweepCell("baseline", "swim", refs=REFS)]


class TestKillChaos:
    def test_sigkilled_workers_resume_and_match_serial(self, tmp_path):
        queue = str(tmp_path / "queue")
        reference = reference_report(chaos_cells())
        assert reference.ok

        chaotic = run_many(chaos_cells(), queue_dir=queue, parallelism=2,
                           heartbeat_interval=0.2, lease_ttl=1.0,
                           checkpoint_refs=CKPT, retries=2)
        assert chaotic.ok, chaotic.to_dict()

        # headline: byte-identical modulo timing/attempt metadata
        assert_chaos_equivalent(reference, chaotic)
        # no completed (published) cell ever executed twice
        assert_no_duplicate_completions(queue)
        # no runner outlived the run, including the one whose worker
        # was SIGKILLed under it
        assert_runners_exited(queue)

        by_inject = {cell.cell.inject: cell for cell in chaotic.cells}
        # kill9: the runner was SIGKILLed after its first checkpoint,
        # retried in-worker on a fresh runner, and resumed from that
        # checkpoint — it must NOT have rerun from scratch
        assert by_inject["kill9:1"].resumed_from_checkpoint
        assert by_inject["kill9:1"].attempts >= 2
        # killworker: the whole worker died, the lease went stale, was
        # reclaimed, and the next owner resumed the checkpoint
        assert by_inject["killworker:1"].resumed_from_checkpoint
        assert by_inject["killworker:1"].attempts >= 2
        # the untouched cell ran exactly once
        assert by_inject[None].attempts == 1
        assert not by_inject[None].resumed_from_checkpoint

        names = {event["event"] for event in read_events(queue)}
        assert "lease_reclaimed" in names        # killworker's lease
        metrics = chaotic.fabric["metrics"]
        assert metrics["fabric.cells_reclaimed"] >= 1
        assert metrics["fabric.cells_resumed"] >= 2
        assert metrics["fabric.worker_restarts"] >= 1

        # kill injects fire on the first overall attempt only (the
        # attempt counter is persistent), so the chaos is deterministic:
        # nothing is still crashing by the time the report lands
        counts = attempt_counts(queue)
        assert all(count <= 3 for count in counts.values()), counts


class TestFileVandalism:
    def test_torn_results_and_bad_leases_survive_resume(self, tmp_path):
        queue = str(tmp_path / "queue")
        cells = [SweepCell("split", "swim", refs=1_500),
                 SweepCell("split", "gzip", refs=1_500),
                 SweepCell("baseline", "swim", refs=1_500)]
        reference = reference_report(cells)
        first = run_many(cells, queue_dir=queue, parallelism=2,
                         heartbeat_interval=0.2, lease_ttl=1.0,
                         checkpoint_refs=CKPT)
        assert first.ok
        started_before = attempt_counts(queue)

        # vandalize the queue the one way the fabric never would: torn
        # (non-atomic) result writes, plus leases from a dead worker and
        # a clock-skewed one guarding the now-resultless cells
        plan = (ChaosPlan()
                .tear_result("0000-split-swim")
                .orphan_lease("0000-split-swim")
                .tear_result("0001-split-gzip")
                .skew_lease("0001-split-gzip"))
        plan.apply(queue)

        second = run_many([], queue_dir=queue, parallelism=1,
                          heartbeat_interval=0.2, lease_ttl=1.0,
                          checkpoint_refs=CKPT, resume=True)
        assert second.ok, second.to_dict()
        # the final report is still exactly the reference
        assert_chaos_equivalent(reference, second)
        # both torn results were quarantined, not trusted or crashed on
        assert len(plan.quarantined(queue)) == 2
        # both planted leases were reclaimed (stale + future-dated)
        events = read_events(queue)
        assert sum(1 for e in events
                   if e["event"] == "lease_reclaimed") >= 2
        assert sum(1 for e in events
                   if e["event"] == "result_quarantined") >= 2
        # the intact cell was skipped wholesale: zero new attempts
        after = attempt_counts(queue)
        assert after["0002-baseline-swim"] \
            == started_before["0002-baseline-swim"]
        # the vandalized cells re-ran exactly once each
        assert after["0000-split-swim"] \
            == started_before["0000-split-swim"] + 1
        assert after["0001-split-gzip"] \
            == started_before["0001-split-gzip"] + 1


class TestNormalizeReport:
    def test_strips_only_volatile_metadata(self, tmp_path):
        report = run_many([SweepCell("split", "swim", refs=1_500)])
        normalized = normalize_report(report)
        assert "elapsed" not in normalized
        assert "worker_id" not in normalized
        assert '"status":"ok"' in normalized.replace(" ", "")
        # accepts dict form (a report loaded back from disk) identically
        assert normalize_report(report.to_dict()) == normalized
