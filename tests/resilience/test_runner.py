"""Sweep tests: ``run_many`` at its defaults (parallelism 1, a private
temporary queue) on real subprocess workers — crash, hang, SIGINT."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.resilience import CellResult, SweepCell, SweepReport, run_many

REFS = 2_000          # small enough that a healthy worker finishes fast


class TestSweepCell:
    def test_label_and_dict_roundtrip(self):
        cell = SweepCell(scheme="split+gcm", app="mcf", refs=123,
                         inject="crash")
        assert cell.label == "split+gcm/mcf"
        assert SweepCell.from_dict(cell.to_dict()) == cell

    def test_rejects_unknown_inject(self):
        with pytest.raises(ValueError, match="unknown inject"):
            SweepCell(scheme="split", inject="explode")

    def test_accepts_always_suffix(self):
        assert SweepCell(scheme="split", inject="hang-always").inject \
            == "hang-always"


class TestSweepReport:
    def test_ok_counts_and_interrupt(self):
        cell = SweepCell(scheme="split")
        report = SweepReport(cells=[
            CellResult(cell=cell, status="ok", attempts=1),
            CellResult(cell=cell, status="failed", attempts=2),
        ])
        assert not report.ok
        assert report.counts() == {"ok": 1, "failed": 1}
        report.cells[1].status = "ok"
        assert report.ok
        report.interrupted = True
        assert not report.ok
        data = report.to_dict()
        assert data["interrupted"] is True
        assert data["cells"][1]["retried"] is True


class TestRunMany:
    def test_healthy_cell_reports_ok(self):
        seen = []
        report = run_many([SweepCell(scheme="split", refs=REFS)],
                          progress=seen.append)
        assert report.ok
        [cell] = report.cells
        assert cell.status == "ok"
        assert cell.attempts == 1 and not cell.retried
        assert cell.result is not None
        assert cell.result["scheme"] == "split"
        assert cell.result["refs"] == REFS
        assert seen == report.cells

    def test_dict_cells_are_accepted(self):
        report = run_many([{"scheme": "split", "refs": REFS}])
        assert report.ok
        assert report.cells[0].cell == SweepCell(scheme="split", refs=REFS)

    def test_crash_is_retried_to_success(self):
        report = run_many(
            [SweepCell(scheme="split", refs=REFS, inject="crash")],
            retries=1, retry_backoff=0.01)
        [cell] = report.cells
        assert cell.status == "ok"
        assert cell.attempts == 2 and cell.retried

    def test_persistent_crash_exhausts_retries(self):
        report = run_many(
            [SweepCell(scheme="split", refs=REFS, inject="crash-always")],
            retries=1, retry_backoff=0.01)
        [cell] = report.cells
        assert cell.status == "failed"
        assert cell.attempts == 2
        assert "exit code 17" in cell.error
        assert not report.ok

    def test_hang_hits_wall_clock_timeout(self):
        report = run_many(
            [SweepCell(scheme="split", refs=REFS, inject="hang-always")],
            timeout=2.0, retries=0)
        [cell] = report.cells
        assert cell.status == "timeout"
        assert "wall-clock" in cell.error
        assert cell.elapsed >= 2.0

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            run_many([SweepCell(scheme="split")], retries=-1)


class TestSigintDrain:
    """The satellite: Ctrl-C mid-sweep still yields valid partial JSON."""

    def test_sigint_mid_sweep_emits_partial_json(self, tmp_path):
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep",
             "--scheme", "split+gcm", "--scheme", "mono+gcm",
             "--scheme", "baseline", "--app", "swim",
             "--refs", "50000000", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, cwd=str(tmp_path), start_new_session=True)
        try:
            time.sleep(6.0)       # let the first worker get going
            os.kill(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stderr.decode()
        report = json.loads(stdout.decode())   # one well-formed document
        assert report["interrupted"] is True
        assert report["ok"] is False
        statuses = [cell["status"] for cell in report["cells"]]
        assert len(statuses) == 3
        assert statuses.count("skipped") >= 2
        errors = {cell["error"] for cell in report["cells"]
                  if cell["status"] == "skipped"}
        assert "interrupted before completion" in errors
