"""``python -m repro serve`` + ``loadgen``: the shipped commands, end to end.

Boots the real server as a subprocess (ephemeral port, announced as one
JSON line on stdout), drives it with the real loadgen CLI, and checks the
shutdown contract: SIGINT drains the lanes and exits 0.
"""

import json
import signal
import subprocess
import sys
import time

import pytest


@pytest.fixture(scope="module")
def server():
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--shards", "2", "--backend", "inline",
         "--tenant-bytes", str(1 << 16)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline()
        event = json.loads(line)
        assert event["event"] == "listening"
        yield process, event["host"], event["port"]
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        process.stderr.close()


def run_loadgen(port, *args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", "loadgen", "--port", str(port),
         *args],
        capture_output=True, text=True, timeout=timeout,
    )


class TestServeLoadgenCli:
    def test_loadgen_json_contract_and_clean_run(self, server):
        _process, _host, port = server
        result = run_loadgen(port, "--tenants", "2", "--connections", "2",
                             "--requests", "10", "--batch", "2",
                             "--footprint-blocks", "32", "--json")
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)     # exactly one JSON document
        assert report["requests"] == 20
        assert report["errors"] == 0
        assert report["rps"] > 0
        assert report["p50_ms"] <= report["p99_ms"]

    def test_loadgen_human_output(self, server):
        _process, _host, port = server
        result = run_loadgen(port, "--tenants", "1", "--connections", "1",
                             "--requests", "5", "--footprint-blocks", "16",
                             "--seed", "9")
        assert result.returncode == 0, result.stderr
        assert "throughput" in result.stdout
        assert "p99" in result.stdout

    def test_loadgen_unreachable_port_is_exit_2(self):
        result = run_loadgen(1)      # port 1: nothing listens there
        assert result.returncode == 2
        assert "cannot reach" in result.stderr

    def test_sigint_drains_and_exits_zero(self, server):
        # NOTE: must stay the last test using the shared server fixture —
        # it shuts the server down
        process, _host, port = server
        result = run_loadgen(port, "--connections", "1", "--requests", "3",
                             "--footprint-blocks", "16", "--json")
        assert result.returncode == 0, result.stderr
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=30) == 0
        stderr = process.stderr.read()
        assert "drained and stopped" in stderr


class TestServeCliErrors:
    def test_unknown_scheme_is_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--scheme", "nope"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 2

    def test_bad_shard_count_is_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--shards", "0"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 2
