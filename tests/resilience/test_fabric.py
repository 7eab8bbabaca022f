"""Fabric tests: lease protocol, manifest lifecycle, distributed runs.

The lease/manifest/result units are pure file manipulation (fast); the
end-to-end runs use tiny cells so real spawn-isolated workers stay cheap
on a one-core CI box.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.resilience.checkpoint import CheckpointError, atomic_write_json
from repro.resilience.fabric import (
    FabricSettings,
    QueuePaths,
    _load_result,
    _Runner,
    _try_claim,
    cell_id,
    init_queue,
    lease_is_stale,
    read_events,
    run_fabric,
)
from repro.resilience.runner import (
    SWEEP_SCHEMA,
    SweepCell,
    load_sweep_report,
    run_many,
)
from repro.testing import assert_runners_exited, runner_pids

REFS = 1_500          # one cell finishes in well under a second


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
        assert cell["worker_id"] is None          # serial runner
        assert cell["resumed_from_checkpoint"] is False

    def test_v1_report_still_loads(self, tmp_path):
        path = str(tmp_path / "v1.json")
        v1 = {"cells": [{"cell": {"scheme": "split"}, "status": "ok",
                         "attempts": 1}],
              "counts": {"ok": 1}, "interrupted": False, "ok": True}
        atomic_write_json(path, v1)
        loaded = load_sweep_report(path)
        assert loaded["schema"] == "repro-sweep/1"
        assert loaded["cells"][0]["worker_id"] is None
        assert loaded["cells"][0]["resumed_from_checkpoint"] is False

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
        report = run_fabric(cells, queue_dir=queue, parallelism=2,
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
        # simulation payloads are bit-identical to the serial runner's
        serial = run_many(cells)
        assert ([cell.result for cell in serial.cells]
                == [cell.result for cell in report.cells])

    def test_resume_skips_published_results_wholesale(self, tmp_path):
        cells = tiny_cells()
        queue = str(tmp_path / "queue")
        first = run_fabric(cells, queue_dir=queue, parallelism=2,
                           heartbeat_interval=0.2, lease_ttl=2.0,
                           checkpoint_refs=500)
        assert first.ok
        started_before = sum(
            1 for event in read_events(queue)
            if event["event"] == "cell_started")
        second = run_fabric([], queue_dir=queue, parallelism=1,
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


class TestWarmRunners:
    """Each worker simulates its cells in one long-lived runner process;
    a runner is replaced only when it dies, times out, or is terminated."""

    def test_crash_is_retried_on_a_fresh_runner(self, tmp_path):
        queue = str(tmp_path / "queue")
        cells = [SweepCell("split", "swim", refs=REFS, inject="crash"),
                 SweepCell("split", "gzip", refs=REFS)]
        report = run_fabric(cells, queue_dir=queue, parallelism=1,
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
        report = run_fabric(cells, queue_dir=queue, parallelism=1,
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
        report = run_fabric(cells, queue_dir=queue, parallelism=2,
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
