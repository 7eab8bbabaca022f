"""Fabric tests: lease protocol, manifest lifecycle, distributed runs.

The lease/manifest/result units are pure file manipulation (fast); the
end-to-end runs use tiny cells so real spawn-isolated workers stay cheap
on a one-core CI box.
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from repro.api import Experiment
from repro.resilience import CHECKPOINT_REFS
from repro.resilience.checkpoint import CheckpointError, atomic_write_json
from repro.resilience import fabric
from repro.resilience.fabric import (
    FabricSettings,
    QueuePaths,
    _claim,
    _claim_order,
    _execute_cell,
    _load_result,
    _Runner,
    _try_claim,
    cell_id,
    init_queue,
    lease_is_stale,
    read_events,
    run_many,
)
from repro.resilience.runner import (
    SWEEP_SCHEMA,
    CellResult,
    SweepCell,
    load_sweep_report,
)
from repro.testing import (
    assert_chaos_equivalent,
    assert_no_duplicate_completions,
    assert_runners_exited,
    normalize_report,
    reference_report,
    runner_pids,
)
from repro.testing.chaos import _pid_running

REFS = 1_500          # one cell finishes in well under a second
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def tiny_cells():
    return [SweepCell("split", "swim", refs=REFS),
            SweepCell("split", "gzip", refs=REFS)]


class TestFabricSettings:
    def test_roundtrip(self):
        settings = FabricSettings(parallelism=3, lease_ttl=5.0,
                                  heartbeat_interval=1.0)
        assert FabricSettings.from_dict(settings.to_dict()) == settings

    def test_rejects_bad_parallelism(self):
        with pytest.raises(ValueError, match="parallelism"):
            FabricSettings(parallelism=0)

    def test_rejects_ttl_inside_two_heartbeats(self):
        with pytest.raises(ValueError, match="lease_ttl"):
            FabricSettings(heartbeat_interval=1.0, lease_ttl=2.0)


class TestCellId:
    def test_stable_and_filesystem_safe(self):
        cell = SweepCell("split+gcm", "mcf", refs=10)
        assert cell_id(3, cell) == "0003-split-gcm-mcf"
        assert "/" not in cell_id(0, cell)


class TestLeaseStaleness:
    def test_fresh_lease_is_not_stale(self):
        now = time.time()
        assert not lease_is_stale({"heartbeat": now - 1}, now, now, ttl=10)

    def test_expired_heartbeat_is_stale(self):
        now = time.time()
        assert lease_is_stale({"heartbeat": now - 11}, now, now, ttl=10)

    def test_future_dated_heartbeat_is_stale_too(self):
        # clock-skew defense: a heartbeat from the future must not park
        # the cell forever
        now = time.time()
        assert lease_is_stale({"heartbeat": now + 11}, now, now, ttl=10)

    def test_unreadable_lease_falls_back_to_mtime(self):
        now = time.time()
        assert lease_is_stale(None, now - 60, now, ttl=10)
        assert not lease_is_stale(None, now - 1, now, ttl=10)


class TestClaimProtocol:
    def test_exclusive_claim(self, tmp_path):
        paths = QueuePaths(str(tmp_path))
        paths.ensure()
        claimed, reclaimed = _try_claim(paths, "c0", "w0", "n0", ttl=10)
        assert claimed and not reclaimed
        claimed, _ = _try_claim(paths, "c0", "w1", "n1", ttl=10)
        assert not claimed

    def test_stale_lease_is_reclaimed(self, tmp_path):
        paths = QueuePaths(str(tmp_path))
        paths.ensure()
        atomic_write_json(paths.lease("c0"),
                          {"worker": "dead", "nonce": "x",
                           "heartbeat": time.time() - 3600})
        claimed, reclaimed = _try_claim(paths, "c0", "w1", "n1", ttl=10)
        assert claimed and reclaimed

    @staticmethod
    def _plant_stale_lease(paths):
        paths.ensure()
        atomic_write_json(paths.lease("c0"),
                          {"worker": "dead", "nonce": "x",
                           "heartbeat": time.time() - 3600})

    @staticmethod
    def _reclaims(paths):
        return [event["worker"] for event in read_events(paths.root)
                if event["event"] == "lease_reclaimed"]

    def test_eviction_is_journaled_once(self, tmp_path):
        paths = QueuePaths(str(tmp_path))
        self._plant_stale_lease(paths)
        assert _try_claim(paths, "c0", "w1", "n1", ttl=10) == (True, True)
        assert self._reclaims(paths) == ["w1"]

    def test_eviction_raced_by_a_first_try_create_is_journaled(
            self, tmp_path, monkeypatch):
        """Worker A evicts a stale lease; worker B's first-try create
        lands before A's re-create.  B owns the cell, and the eviction
        is journaled once, by A."""
        paths = QueuePaths(str(tmp_path))
        self._plant_stale_lease(paths)
        unlink = os.unlink
        raced = []

        def unlink_then_b_claims(path, *args, **kwargs):
            unlink(path, *args, **kwargs)
            if path == paths.lease("c0") and not raced:
                raced.append(_try_claim(paths, "c0", "B", "nB", ttl=10))

        monkeypatch.setattr(os, "unlink", unlink_then_b_claims)
        claimed_a, _ = _try_claim(paths, "c0", "A", "nA", ttl=10)
        monkeypatch.undo()
        assert raced == [(True, False)]
        assert not claimed_a
        with open(paths.lease("c0"), encoding="utf-8") as handle:
            assert json.load(handle)["nonce"] == "nB"
        assert self._reclaims(paths) == ["A"]

    def test_claim_rechecks_the_result_after_winning_the_lease(
            self, tmp_path):
        """A cell published, and its lease released, after the scan
        found no result is released again, not run."""
        paths = QueuePaths(str(tmp_path))
        paths.ensure()
        atomic_write_json(paths.result("c0"), CellResult(
            cell=SweepCell("split", "swim", refs=REFS), status="ok",
            attempts=1).to_dict())
        assert _claim(paths, "c0", "w0", ttl=10) is None
        assert not os.path.exists(paths.lease("c0"))
        # an unpublished cell is claimed, and the claim journaled
        nonce = _claim(paths, "c1", "w0", ttl=10)
        assert nonce is not None
        with open(paths.lease("c1"), encoding="utf-8") as handle:
            assert json.load(handle)["nonce"] == nonce
        claims = [event["cell"] for event in read_events(paths.root)
                  if event["event"] == "cell_claimed"]
        assert claims == ["c1"]


def _manifest(apps, schemes=("split", "split+gcm", "mono+sha")):
    """A shuffled scheme x app manifest, as perfbench's sweep batches
    are."""
    cells = [SweepCell(scheme, app, refs=REFS)
             for scheme in schemes for app in apps]
    random.Random(7).shuffle(cells)
    return [(cell_id(index, cell), cell) for index, cell in enumerate(cells)]


def _memo_keys(order):
    return [(cell.app, cell.refs, cell.warmup_refs) for _, cell in order]


class TestClaimOrder:
    """Each worker's scan order is a pure function of (manifest, worker
    index, parallelism)."""

    @pytest.mark.parametrize("parallelism", [1, 2, 3, 5])
    def test_each_order_is_the_manifest_grouped_by_memo_key(
            self, parallelism):
        entries = _manifest(("swim", "gzip", "mcf", "gcc"))
        entries.append(("0012-split-swim",
                        SweepCell("split", "swim", refs=REFS + 1)))
        for index in range(parallelism):
            order = _claim_order(entries, index, parallelism)
            assert order == _claim_order(entries, index, parallelism)
            assert sorted(cid for cid, _ in order) \
                == sorted(cid for cid, _ in entries)
            # each key forms one run, counting the wrap-around: a worker
            # that starts inside a group finishes that group last
            keys = _memo_keys(order)
            runs = sum(keys[i] != keys[i - 1] for i in range(len(keys)))
            assert runs == len(set(keys)) == 5

    def test_workers_own_disjoint_workloads_until_theirs_run_out(self):
        entries = _manifest(("swim", "gzip", "mcf", "gcc"))
        owned = [_claim_order(entries, index, 2)[:6] for index in range(2)]
        apps = [{cell.app for _, cell in cells} for cells in owned]
        assert [len(held) for held in apps] == [2, 2]
        assert not apps[0] & apps[1]
        assert sorted(cid for cells in owned for cid, _ in cells) \
            == sorted(cid for cid, _ in entries)

    @pytest.mark.parametrize("entries, parallelism", [
        (_manifest(("swim", "gzip", "mcf", "gcc")), 2),
        (_manifest(("swim", "gzip", "mcf", "gcc")), 4),
        (_manifest(("swim",)), 3),                  # a single workload
        (_manifest(("swim", "gzip")), 3),           # fewer than workers
        ([(f"{index:04d}", SweepCell("split", "gcc" if index == 0
                                     else "swim", refs=REFS))
          for index in range(12)], 3),              # one tiny group
        ([(f"{index:04d}", SweepCell("split", app, refs=REFS))
          for index, app in enumerate(["gcc", "mcf"] + ["swim"] * 10)],
         3),                                        # unequal groups
    ], ids=["4-apps-2-workers", "4-apps-4-workers", "1-app-3-workers",
            "2-apps-3-workers", "1-and-11-cells-3-workers",
            "1-1-and-10-cells-3-workers"])
    def test_fresh_workers_start_on_different_cells(self, entries,
                                                    parallelism):
        firsts = [_claim_order(entries, index, parallelism)[0]
                  for index in range(parallelism)]
        assert len({cid for cid, _ in firsts}) == parallelism
        sizes = Counter(_memo_keys(entries))
        if len(set(sizes.values())) == 1 and len(sizes) >= parallelism:
            # equal workloads, enough to go round: on different ones
            assert len(set(_memo_keys(firsts))) == parallelism


class TestQueueLifecycle:
    def test_fresh_queue_writes_manifest(self, tmp_path):
        entries = init_queue(str(tmp_path), tiny_cells(), FabricSettings())
        assert [cid for cid, _ in entries] == ["0000-split-swim",
                                               "0001-split-gzip"]
        assert os.path.isfile(QueuePaths(str(tmp_path)).manifest)

    def test_identical_cells_join_existing_manifest(self, tmp_path):
        init_queue(str(tmp_path), tiny_cells(), FabricSettings())
        entries = init_queue(str(tmp_path), tiny_cells(), FabricSettings())
        assert len(entries) == 2

    def test_different_cells_refuse_to_mix(self, tmp_path):
        init_queue(str(tmp_path), tiny_cells(), FabricSettings())
        with pytest.raises(CheckpointError, match="different"):
            init_queue(str(tmp_path), [SweepCell("baseline")],
                       FabricSettings())

    def test_resume_adopts_manifest_ignoring_caller_cells(self, tmp_path):
        init_queue(str(tmp_path), tiny_cells(), FabricSettings())
        entries = init_queue(str(tmp_path), [SweepCell("baseline")],
                             FabricSettings(), resume=True)
        assert len(entries) == 2

    def test_resume_without_manifest_fails(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            init_queue(str(tmp_path), [], FabricSettings(), resume=True)


class TestResultQuarantine:
    def test_torn_result_is_quarantined_and_treated_absent(self, tmp_path):
        paths = QueuePaths(str(tmp_path))
        paths.ensure()
        with open(paths.result("c0"), "w", encoding="utf-8") as handle:
            handle.write('{"status": "ok", "cel')       # torn mid-write
        assert _load_result(paths, "c0", quarantine_by="t") is None
        assert os.path.exists(paths.result("c0") + ".corrupt")
        assert not os.path.exists(paths.result("c0"))
        events = read_events(str(tmp_path))
        assert any(e["event"] == "result_quarantined" for e in events)

    def test_wrong_status_vocabulary_is_invalid(self, tmp_path):
        paths = QueuePaths(str(tmp_path))
        paths.ensure()
        atomic_write_json(paths.result("c0"),
                          {"cell": {}, "status": "winning"})
        assert _load_result(paths, "c0", quarantine_by="t") is None


class TestReportSchema:
    def test_v2_reports_carry_schema_and_new_fields(self, tmp_path):
        report = run_many([SweepCell("split", "swim", refs=REFS)])
        payload = report.to_dict()
        assert payload["schema"] == SWEEP_SCHEMA
        cell = payload["cells"][0]
        assert cell["worker_id"] is not None      # the fabric worker
        assert cell["resumed_from_checkpoint"] is False
        assert report.fabric is not None
        assert payload["fabric"]["metrics"]["fabric.cells_completed"] == 1

    def test_v1_report_is_rejected(self, tmp_path):
        # written before the schema key existed: read like any unknown
        # schema, loudly, not normalized
        path = str(tmp_path / "v1.json")
        v1 = {"cells": [{"cell": {"scheme": "split"}, "status": "ok",
                         "attempts": 1}],
              "counts": {"ok": 1}, "interrupted": False, "ok": True}
        atomic_write_json(path, v1)
        with pytest.raises(CheckpointError,
                           match="unsupported schema None"):
            load_sweep_report(path)

    def test_unknown_schema_is_rejected(self, tmp_path):
        path = str(tmp_path / "future.json")
        atomic_write_json(path, {"schema": "repro-sweep/99", "cells": []})
        with pytest.raises(CheckpointError, match="unsupported schema"):
            load_sweep_report(path)


class TestRunManyDispatch:
    def test_rejects_bad_parallelism(self):
        with pytest.raises(ValueError, match="parallelism"):
            run_many([], parallelism=0)

    def test_resume_requires_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            run_many([], resume=True)


class TestFabricEndToEnd:
    def test_parallel_run_matches_serial_and_streams_report(self, tmp_path):
        cells = tiny_cells()
        queue = str(tmp_path / "queue")
        out = str(tmp_path / "report.json")
        report = run_many(cells, queue_dir=queue, parallelism=2,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=500, out_path=out)
        assert report.ok
        assert report.counts() == {"ok": 2}
        payload = report.to_dict()
        assert payload["schema"] == SWEEP_SCHEMA
        for cell in payload["cells"]:
            assert cell["worker_id"] is not None
            assert cell["attempts"] >= 1
        metrics = payload["fabric"]["metrics"]
        assert metrics["fabric.cells_total"] == 2
        assert metrics["fabric.cells_completed"] == 2
        assert metrics["fabric.cells_leased"] >= 2
        # the streamed report re-parses and matches the returned one
        streamed = load_sweep_report(out)
        assert streamed["counts"] == {"ok": 2}
        # every cell left a journal trail, results dir holds both verdicts
        names = {event["event"] for event in read_events(queue)}
        assert {"worker_started", "cell_claimed", "cell_started",
                "cell_finished", "worker_stopped"} <= names
        # simulation payloads are bit-identical to the in-process
        # reference's
        assert_chaos_equivalent(reference_report(cells), report)

    def test_resume_skips_published_results_wholesale(self, tmp_path):
        cells = tiny_cells()
        queue = str(tmp_path / "queue")
        first = run_many(cells, queue_dir=queue, parallelism=2,
                         heartbeat_interval=0.2, lease_ttl=2.0,
                         checkpoint_refs=500)
        assert first.ok
        started_before = sum(
            1 for event in read_events(queue)
            if event["event"] == "cell_started")
        second = run_many([], queue_dir=queue, parallelism=1,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=500, resume=True)
        assert second.ok
        assert json.dumps([cell.result for cell in first.cells]) \
            == json.dumps([cell.result for cell in second.cells])
        started_after = sum(
            1 for event in read_events(queue)
            if event["event"] == "cell_started")
        assert started_after == started_before   # nothing re-executed

    def test_run_many_facade_routes_through_fabric(self, tmp_path):
        queue = str(tmp_path / "queue")
        report = run_many([SweepCell("split", "swim", refs=REFS)],
                          parallelism=2, queue_dir=queue,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=500)
        assert report.ok
        assert report.fabric is not None
        assert report.cells[0].worker_id is not None


class TestSweepEnd:
    """A sweep ends on its workers' notices and exits, not on the
    coordinator's poll; a restarted worker keeps the dead one's index."""

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_return_does_not_wait_for_the_coordinators_poll(
            self, tmp_path, monkeypatch, parallelism):
        """With 4 workers on a small host, more workers than cores race
        to claim, go idle and send their notices."""
        # spawned workers import the module afresh and keep the default
        monkeypatch.setattr(fabric, "_POLL_INTERVAL", 30.0)
        queue = str(tmp_path / "queue")
        cells = [SweepCell(scheme, app, refs=REFS)
                 for scheme in ("split", "baseline")
                 for app in ("swim", "gzip", "mcf")]
        started = time.monotonic()
        report = run_many(cells, queue_dir=queue, parallelism=parallelism,
                          heartbeat_interval=0.2, lease_ttl=2.0)
        elapsed = time.monotonic() - started
        assert report.counts() == {"ok": 6}, report.to_dict()
        assert all(cell.attempts == 1 for cell in report.cells)
        # a coordinator that slept between scans saw nothing for 30 s
        assert elapsed < 20, elapsed
        assert_no_duplicate_completions(queue)
        assert_runners_exited(queue)

    def test_a_restarted_worker_keeps_the_dead_workers_index(self, tmp_path):
        queue = str(tmp_path / "queue")
        # worker 0 scans from the first cell, so it takes the kill
        cells = [SweepCell("split", "swim", refs=3_000,
                           inject="killworker:1"),
                 SweepCell("split", "gzip", refs=REFS),
                 SweepCell("baseline", "gzip", refs=REFS)]
        report = run_many(cells, queue_dir=queue, parallelism=2,
                          heartbeat_interval=0.2, lease_ttl=1.0,
                          checkpoint_refs=500, retries=1)
        assert report.ok, report.to_dict()
        events = read_events(queue)
        [dead] = [event["worker"] for event in events
                  if event["event"] == "worker_restarted"]
        [restarted] = [event["worker"] for event in events
                       if event["event"] == "worker_started"
                       and ".r" in event["worker"]]
        # worker ids are w<index>.<coordinator pid>[.r<restart>]
        assert restarted.split(".")[0] == dead.split(".")[0]
        assert_runners_exited(queue)


class TestDefaultPath:
    """``run_many`` with no queue dir runs the same fabric as a parallel
    run on a queue dir, kill injects included."""

    def test_parallelism_1_and_2_match_the_reference(self, tmp_path):
        cells = [SweepCell("split", "swim", refs=REFS),
                 SweepCell("split+gcm", "gzip", refs=REFS),
                 SweepCell("baseline", "mcf", refs=REFS)]
        default = run_many(cells)
        parallel = run_many(cells, parallelism=2,
                            queue_dir=str(tmp_path / "queue"),
                            heartbeat_interval=0.2, lease_ttl=2.0)
        assert default.ok, default.to_dict()
        assert parallel.ok, parallel.to_dict()
        reference = normalize_report(reference_report(cells))
        assert normalize_report(default) == reference
        assert normalize_report(parallel) == reference

    def test_kill_inject_fires_without_a_queue_dir(self):
        cell = SweepCell("split", "swim", refs=3_000, inject="kill9:1")
        report = run_many([cell], checkpoint_refs=500, retries=1,
                          retry_backoff=0.05)
        assert report.ok, report.to_dict()
        [killed] = report.cells
        assert killed.resumed_from_checkpoint
        assert killed.attempts == 2
        # no checkpoint falls due at the default cadence, so the kill
        # could never fire
        with pytest.raises(ValueError, match="fires after checkpoint 1"):
            run_many([cell])


class TestWarmRunners:
    """Each worker simulates its cells in one long-lived runner process;
    a runner is replaced only when it dies, times out, or is terminated."""

    def test_crash_is_retried_on_a_fresh_runner(self, tmp_path):
        queue = str(tmp_path / "queue")
        cells = [SweepCell("split", "swim", refs=REFS, inject="crash"),
                 SweepCell("split", "gzip", refs=REFS)]
        report = run_many(cells, queue_dir=queue, parallelism=1,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=500, retries=1,
                          retry_backoff=0.05)
        assert report.counts() == {"ok": 2}, report.to_dict()
        assert report.cells[0].attempts == 2
        assert report.cells[1].attempts == 1
        # the crashed runner was replaced once; the replacement stayed
        # warm for the second cell
        pids = runner_pids(queue)
        assert len(pids) == 2 and len(set(pids)) == 2
        assert_runners_exited(queue)

    def test_hung_runner_times_out_and_worker_continues(self, tmp_path):
        queue = str(tmp_path / "queue")
        cells = [SweepCell("split", "swim", refs=REFS, inject="hang-always"),
                 SweepCell("split", "gzip", refs=REFS)]
        report = run_many(cells, queue_dir=queue, parallelism=1,
                          timeout=5.0, heartbeat_interval=0.2,
                          lease_ttl=2.0, checkpoint_refs=500, retries=0)
        hung, after = report.cells
        assert hung.status == "timeout", hung.to_dict()
        assert "wall-clock" in hung.error
        assert after.status == "ok", after.to_dict()
        assert after.worker_id == hung.worker_id
        # the terminated runner was replaced for the worker's next cell
        pids = runner_pids(queue)
        assert len(pids) == 2 and len(set(pids)) == 2
        assert_runners_exited(queue)

    def test_clean_run_starts_at_most_one_runner_per_worker(self, tmp_path):
        queue = str(tmp_path / "queue")
        cells = [SweepCell(scheme, app, refs=REFS)
                 for scheme in ("split", "baseline", "direct")
                 for app in ("swim", "gzip")]
        report = run_many(cells, queue_dir=queue, parallelism=2,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=500)
        assert report.counts() == {"ok": 6}
        assert 1 <= len(runner_pids(queue)) <= 2
        assert all(cell.attempts == 1 for cell in report.cells)
        assert_runners_exited(queue)

    def test_runner_exits_on_eof(self, tmp_path):
        """Closing the worker's end of the pipe — as a SIGKILLed worker's
        exit does — ends an idle runner by itself."""
        paths = QueuePaths(str(tmp_path))
        paths.ensure()
        runner = _Runner(multiprocessing.get_context("spawn"), paths, "w0")
        runner.start()
        process = runner.process
        try:
            assert runner.conn.poll(60), "runner never became ready"
            assert runner.conn.recv() == {"ready": process.pid}
            runner.conn.close()
            process.join(30)
            assert not process.is_alive()
            assert process.exitcode == 0
        finally:
            if process.is_alive():
                process.kill()
                process.join(5)


def _checkpoint_files(queue: str) -> list[str]:
    names = os.listdir(os.path.join(queue, "checkpoints"))
    return sorted(name for name in names if name.endswith(".ckpt"))


def _same(*results) -> bool:
    """Bit-identical simulation payloads (JSON, so NaN equals NaN)."""
    return len({json.dumps(result, sort_keys=True)
                for result in results}) == 1


@pytest.fixture
def run_calls(monkeypatch):
    """The keyword arguments of every ``Experiment.run`` call in this
    process (what a runner's :func:`_execute_cell` asks of the engine)."""
    calls = []
    run = Experiment.run

    def spy(self, **kwargs):
        calls.append(kwargs)
        return run(self, **kwargs)

    monkeypatch.setattr(Experiment, "run", spy)
    return calls


class TestCheckpointCadence:
    """A cell with no checkpoint due before its last ref runs unchecked;
    a checkpoint on disk is resumed whatever the cadence."""

    def test_short_cell_at_default_cadence_writes_no_checkpoint(
            self, tmp_path, run_calls):
        cell = SweepCell("split", "gzip", refs=20_000)
        paths = QueuePaths(str(tmp_path / "queue"))
        paths.ensure()
        plain = _execute_cell(paths, "plain", cell, 1, CHECKPOINT_REFS)
        assert plain["ok"] and not plain["resumed"], plain
        assert _checkpoint_files(paths.root) == []
        # no checkpoint arguments: the batched engine keeps its cached
        # classification
        assert run_calls == [{}]
        # the same cell at cadence 2000 does checkpoint (its rolling file
        # stays: only the worker unlinks it, after publishing)
        checked = _execute_cell(paths, "checked", cell, 1, 2_000)
        assert checked["ok"], checked
        assert _checkpoint_files(paths.root) == ["checked.ckpt"]
        assert run_calls[1]["checkpoint_every"] == 2_000
        in_process = Experiment("split", "gzip", refs=20_000).run()
        assert _same(plain["result"], checked["result"],
                     in_process.to_dict())
        # end to end through a worker and its runner, default cadence
        report = run_many([cell], queue_dir=str(tmp_path / "fabric"),
                          heartbeat_interval=0.2, lease_ttl=2.0)
        assert report.ok, report.to_dict()
        assert _same(report.cells[0].result, in_process.to_dict())
        assert report.fabric["settings"]["checkpoint_refs"] \
            == CHECKPOINT_REFS

    def test_resume_at_default_cadence_resumes_older_checkpoint(
            self, tmp_path, run_calls):
        queue = str(tmp_path / "queue")
        cells = [SweepCell("split", "swim", refs=3_000,
                           inject="killworker:1")]
        # the worker and its runner die right after checkpoint 1 (ref
        # 500), and with no restarts left the run stops there
        interrupted = run_many(cells, queue_dir=queue, parallelism=1,
                               heartbeat_interval=0.2, lease_ttl=1.0,
                               checkpoint_refs=500, max_worker_restarts=0)
        assert interrupted.counts() == {"skipped": 1}
        cid = "0000-split-swim"
        assert _checkpoint_files(queue) == [cid + ".ckpt"]
        # no checkpoint falls due in a 3000-ref cell at the default
        # cadence, but the one on disk is what the attempt runs from
        paths = QueuePaths(queue)
        reply = _execute_cell(paths, cid, cells[0], 2, CHECKPOINT_REFS)
        assert reply["ok"] and reply["resumed"], reply
        assert run_calls[-1]["resume_from"] == paths.checkpoint(cid)
        # the same through a resumed queue at the default cadence, where
        # the spent kill inject does not get the queue rejected
        resumed = run_many([], queue_dir=queue, parallelism=1,
                           heartbeat_interval=0.2, lease_ttl=1.0,
                           resume=True)
        assert resumed.ok, resumed.to_dict()
        cell = resumed.cells[0]
        assert cell.resumed_from_checkpoint
        assert cell.attempts == 2
        assert _same(cell.result, reply["result"])
        assert normalize_report(resumed) \
            == normalize_report(reference_report(cells))
        assert_runners_exited(queue)

    def test_cell_one_ref_past_the_interval_checkpoints_once(
            self, tmp_path):
        refs = CHECKPOINT_REFS + 1
        with pytest.raises(ValueError, match="write 1 checkpoint"):
            run_many([SweepCell("split", "gzip", refs=refs,
                                inject="kill9:2")],
                     queue_dir=str(tmp_path / "rejected"))
        queue = str(tmp_path / "queue")
        report = run_many([SweepCell("split", "gzip", refs=refs,
                                     inject="kill9:1")],
                          queue_dir=queue, parallelism=1,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          retries=1, retry_backoff=0.05)
        assert report.ok, report.to_dict()
        cell = report.cells[0]
        # killed after its only checkpoint, resumed on a fresh runner
        assert cell.attempts == 2 and cell.resumed_from_checkpoint
        assert _same(cell.result,
                     Experiment("split", "gzip", refs=refs).run().to_dict())
        assert_runners_exited(queue)

    def test_runner_of_worker_killed_mid_unchecked_cell_exits(
            self, tmp_path):
        """No checkpoint hook runs in an unchecked cell, so the parent-pid
        check cannot see the worker die; the runner ends the cell, finds
        the pipe closed when it replies, and exits."""
        queue = str(tmp_path / "queue")
        # the first cell warms the runner, so the second one is sent to
        # it as soon as it is journaled as started; it takes over a
        # second, all of it unchecked
        long_cell = SweepCell("mono+sha", "db-page-cache", refs=100_000)
        cells = [SweepCell("split", "swim", refs=REFS), long_cell]
        long_id = cell_id(1, long_cell)
        reports = []
        sweep = threading.Thread(target=lambda: reports.append(run_many(
            cells, queue_dir=queue, parallelism=1, heartbeat_interval=0.2,
            lease_ttl=1.0)))
        sweep.start()
        try:
            deadline = time.monotonic() + 120
            while not any(event["event"] == "cell_started"
                          and event["cell"] == long_id
                          for event in read_events(queue)):
                assert time.monotonic() < deadline, "long cell never started"
                time.sleep(0.02)
            time.sleep(0.2)
            worker = next(event["pid"] for event in read_events(queue)
                          if event["event"] == "worker_started")
            orphan = runner_pids(queue)[0]
            os.kill(worker, signal.SIGKILL)
            # busy in the cell, the runner outlives its worker for now
            assert _pid_running(orphan)
        finally:
            sweep.join(180)
        assert not sweep.is_alive()
        report = reports[0]
        assert report.ok, report.to_dict()
        # the killed worker's claim was reclaimed and the cell rerun
        assert report.cells[1].attempts == 2
        assert not report.cells[1].resumed_from_checkpoint
        assert_runners_exited(queue)


class TestKillInjectBoundary:
    """kill9:N fires after checkpoint N, and a 20k-ref cell at cadence
    2000 writes (20000 - 1) // 2000 = 9 checkpoints."""

    def test_last_checkpoint_fires(self, tmp_path):
        queue = str(tmp_path / "queue")
        report = run_many([SweepCell("split", "gzip", refs=20_000,
                                     inject="kill9:9")],
                          queue_dir=queue, parallelism=1,
                          heartbeat_interval=0.2, lease_ttl=2.0,
                          checkpoint_refs=2_000, retries=1,
                          retry_backoff=0.05)
        assert report.ok, report.to_dict()
        assert report.cells[0].attempts == 2
        assert report.cells[0].resumed_from_checkpoint
        assert_runners_exited(queue)

    def test_one_past_the_last_checkpoint_is_rejected(self, tmp_path):
        queue = str(tmp_path / "queue")
        with pytest.raises(ValueError) as raised:
            run_many([SweepCell("split", "gzip", refs=20_000,
                                inject="kill9:10")],
                     queue_dir=queue, parallelism=1, checkpoint_refs=2_000)
        message = str(raised.value)
        for part in ("0000-split-gzip", "kill9:10", "checkpoint 10",
                     "20000 refs", "cadence of 2000", "9 checkpoint"):
            assert part in message, message
        # rejected before the manifest was written or a worker started,
        # so a corrected sweep can still use the same queue dir
        assert not os.path.exists(os.path.join(queue, "manifest.json"))
        assert read_events(queue) == []

    def test_sweep_cli_exits_2(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--scheme", "split",
             "--app", "gzip", "--refs", "20000", "--parallel", "2",
             "--queue-dir", str(tmp_path / "queue"),
             "--inject", "kill9:10@0", "--checkpoint-refs", "2000"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "fires after checkpoint 10" in proc.stderr


class TestLeanWorker:
    """A fabric worker imports the queue protocol only; the package
    re-exports still resolve, lazily."""

    PROBE = """
import json, sys
import repro.resilience.fabric
heavy = sorted(name for name in sys.modules
               if name.split(".")[0] == "numpy"
               or name.startswith(("repro.api", "repro.sim", "repro.crypto",
                                   "repro.core")))
import repro, repro.resilience
missing = [f"{module.__name__}.{name}"
           for module in (repro, repro.resilience)
           for name in module.__all__ if getattr(module, name, None) is None]
undir = [name for name in repro.__all__ if name not in dir(repro)]
undir += [name for name in repro.resilience.__all__
          if name not in dir(repro.resilience)]
star = {}
exec("from repro import *", star)
unstarred = [name for name in repro.__all__ if name not in star]
print(json.dumps({"heavy": heavy, "missing": missing, "undir": undir,
                  "unstarred": unstarred}))
"""

    def test_fabric_import_leaves_out_the_simulator(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", self.PROBE],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "heavy": [], "missing": [], "undir": [], "unstarred": []}
