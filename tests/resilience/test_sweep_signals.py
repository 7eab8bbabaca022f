"""Sweep CLI signal handling and queue-damage recovery (satellite 3).

SIGTERM must drain exactly like SIGINT — valid partial JSON, checkpoints
intact — but exit 143 so supervisors can tell platform termination from
an operator's Ctrl-C.  A corrupted per-cell result file in the queue must
be quarantined to ``*.corrupt`` and the cell re-enqueued on resume, never
trusted and never fatal.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.resilience.fabric import read_events
from repro.testing import assert_runners_exited

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _sweep(extra, cwd, **popen_kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=str(cwd), **popen_kwargs)


class TestSigtermDrain:
    def test_sigterm_mid_fabric_sweep_exits_143_with_partial_json(
            self, tmp_path):
        queue = str(tmp_path / "queue")
        ckpt_dir = os.path.join(queue, "checkpoints")
        proc = _sweep(
            ["--scheme", "split+gcm", "--scheme", "mono+gcm",
             "--scheme", "baseline", "--app", "swim",
             "--refs", "3000000", "--json",
             "--parallel", "2", "--queue-dir", queue,
             "--heartbeat-interval", "0.2", "--lease-ttl", "2",
             "--checkpoint-refs", "2000"],
            tmp_path, start_new_session=True)
        try:
            # SIGTERM the moment a mid-cell checkpoint exists, so the
            # "drain preserves checkpoints" assertion is timing-proof
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                if os.path.isdir(ckpt_dir) and any(
                        name.endswith(".ckpt")
                        for name in os.listdir(ckpt_dir)):
                    break
                time.sleep(0.2)
            os.kill(proc.pid, signal.SIGTERM)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 143, stderr.decode()
        report = json.loads(stdout.decode())   # one well-formed document
        assert report["interrupted"] is True
        assert report["ok"] is False
        assert len(report["cells"]) == 3
        assert {cell["status"] for cell in report["cells"]} <= \
            {"ok", "skipped"}
        # graceful drain preserved the in-flight checkpoints for resume
        checkpoints = os.listdir(os.path.join(queue, "checkpoints"))
        assert any(name.endswith(".ckpt") for name in checkpoints), \
            checkpoints
        # and ended every worker's cell runner on the way out
        assert_runners_exited(queue)


class TestWorkerSigkill:
    def test_runner_of_a_sigkilled_worker_does_not_outlive_it(
            self, tmp_path):
        """A worker SIGKILLed mid-cell cannot close its runner; the
        runner notices at its next checkpoint and exits."""
        queue = str(tmp_path / "queue")
        ckpt_dir = os.path.join(queue, "checkpoints")
        proc = _sweep(
            ["--scheme", "split", "--app", "swim", "--refs", "3000000",
             "--json", "--parallel", "1", "--queue-dir", queue,
             "--heartbeat-interval", "0.2", "--lease-ttl", "2",
             "--checkpoint-refs", "2000"],
            tmp_path, start_new_session=True)
        try:
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                if os.path.isdir(ckpt_dir) and any(
                        name.endswith(".ckpt")
                        for name in os.listdir(ckpt_dir)):
                    break
                time.sleep(0.2)
            worker = next(event["pid"] for event in read_events(queue)
                          if event["event"] == "worker_started")
            os.kill(worker, signal.SIGKILL)
            time.sleep(2)
            os.kill(proc.pid, signal.SIGTERM)
            _stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 143, stderr.decode()
        # the orphaned runner was mid-way through a 3M-ref cell: had it
        # not exited by itself, it would still be simulating now
        assert_runners_exited(queue)


class TestCorruptResultRecovery:
    def test_corrupt_result_is_quarantined_and_cell_reruns(self, tmp_path):
        queue = str(tmp_path / "queue")
        first = _sweep(
            ["--scheme", "split+gcm", "--app", "swim", "--app", "gzip",
             "--refs", "1500", "--json", "--parallel", "2",
             "--queue-dir", queue, "--heartbeat-interval", "0.2",
             "--lease-ttl", "2", "--checkpoint-refs", "500"],
            tmp_path)
        stdout, stderr = first.communicate(timeout=120)
        assert first.returncode == 0, stderr.decode()
        reference = json.loads(stdout.decode())

        victim = os.path.join(queue, "results", "0000-split-gcm-swim.json")
        with open(victim, "wb") as handle:
            handle.write(b'{"status": "ok", "ce')       # torn mid-write

        second = _sweep(
            ["--queue-dir", queue, "--resume", "--json",
             "--heartbeat-interval", "0.2", "--lease-ttl", "2",
             "--checkpoint-refs", "500"],
            tmp_path)
        stdout, stderr = second.communicate(timeout=120)
        assert second.returncode == 0, stderr.decode()
        report = json.loads(stdout.decode())
        assert report["ok"] is True
        assert os.path.exists(victim + ".corrupt")
        # the re-run recomputed the identical simulation result
        assert report["cells"][0]["result"] \
            == reference["cells"][0]["result"]
        assert report["fabric"]["metrics"]["fabric.results_quarantined"] \
            >= 1
