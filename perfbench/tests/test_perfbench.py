"""Tests of the benchmark itself, at tiny sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from itertools import islice

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import common  # noqa: E402
import make_expected  # noqa: E402
import run  # noqa: E402
import serve_workload  # noqa: E402
import sim_workloads  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder,
    residual_frac,
    self_times,
    write_chrome_trace,
)

common.use_program()

TINY_SIM = sim_workloads.SimPlan(schemes=("split", "split+gcm"),
                                 apps=("gcc",), refs=2_000)
TINY_SERVE = serve_workload.ServePlan(footprint_blocks=128, l2_size=1024)


def _spec() -> dict:
    with open(run.BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module", autouse=True)
def no_leftover_processes():
    """The in-process runs below spawn children, and with them a resource
    tracker; end and reap them all once the module is done."""
    yield
    common.reap_descendants()


@pytest.fixture(scope="module")
def tiny_table() -> dict:
    return make_expected.build_table([TINY_SIM])


@pytest.fixture
def tiny(monkeypatch, tmp_path, tiny_table):
    """Shrink every workload and point its table and scratch at tmp."""
    table = tmp_path / "expected.json"
    table.write_text(json.dumps({"cells": tiny_table}))
    monkeypatch.setattr(sim_workloads, "EXPECTED_PATH", str(table))
    monkeypatch.setattr(sim_workloads, "CELLS_PLAN", TINY_SIM)
    monkeypatch.setattr(sim_workloads, "SWEEP_PLAN", TINY_SIM)
    monkeypatch.setattr(sim_workloads, "SWEEP_SCHEMES_PER_BATCH", 1)
    monkeypatch.setattr(sim_workloads, "WORK", str(tmp_path))
    monkeypatch.setattr(serve_workload, "SERVE_PLAN", TINY_SERVE)
    monkeypatch.setattr(serve_workload, "SETUP_TRIALS", 1)
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    return table


def _run(capsys, *argv) -> tuple[int, dict]:
    code = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload):
    spec = _spec()
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = _run(capsys, "--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: row["unit"] for name, row
                in result["metrics"].items()} == {
            row["name"]: row["unit"] for row in spec[section]}
        if section == "end_to_end":
            assert all(row["value"] > 0
                       for row in result["metrics"].values())
        else:
            assert (result["metrics"]["residual_frac"]["value"]
                    < run.RESIDUAL_TOLERANCE)


def test_planted_wrong_cycle_count_is_a_failure(tiny, capsys):
    table = json.loads(tiny.read_text())
    key = sim_workloads.cell_key("split+gcm", "gcc", TINY_SIM.refs)
    table["cells"][key]["cycles"] += 1.0
    tiny.write_text(json.dumps(table))
    code, result = _run(capsys, "--workload", "cells", "--seed", "1",
                        "--seconds", "0", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_planted_wrong_read_payload_is_a_failure(tiny, capsys, monkeypatch):
    from repro.serve import ServeClient

    honest = ServeClient.read

    async def lying_read(self, tenant, token, addresses):
        blocks = await honest(self, tenant, token, addresses)
        return [bytes([blocks[0][0] ^ 1]) + blocks[0][1:]] + blocks[1:]

    monkeypatch.setattr(ServeClient, "read", lying_read)
    code, result = _run(capsys, "--workload", "serve", "--seed", "1",
                        "--seconds", "0.5", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_same_seed_gives_identical_simulated_outputs(tiny_table):
    def outputs(seed: int) -> list:
        cells = next(sim_workloads.cell_passes(seed, TINY_SIM))
        return [(cell, sim_workloads.expected_row(
            sim_workloads._run_cell(*cell, TINY_SIM.refs)))
            for cell in cells]

    first, second = outputs(7), outputs(7)
    assert first == second
    assert all(tiny_table[sim_workloads.cell_key(scheme, app,
                                                 TINY_SIM.refs)] == row
               for (scheme, app), row in first)


def test_serve_op_streams_follow_the_seed():
    def ops(seed: int) -> list:
        return list(islice(serve_workload.op_stream(seed, 0, TINY_SERVE),
                           50))

    assert ops(1) == ops(1)
    assert ops(1) != ops(2)
    kinds = {kind for kind, _addrs, _data in ops(1)}
    assert kinds == {"read", "write"}


def test_self_times_residual_and_chrome_trace(tmp_path):
    rec = SpanRecorder()
    root = rec.record("root", 0, 100, -1)
    child = rec.record("child", 10, 60, root)
    rec.record("grandchild", 20, 30, child)
    rec.record("child", 50, 90, root)          # overlaps the first child
    assert self_times(rec) == [100 - 80, 50 - 10, 10, 40]
    assert residual_frac(rec) == pytest.approx(0.2)
    out = tmp_path / "trace.json"
    write_chrome_trace(rec, str(out))
    events = json.loads(out.read_text())["traceEvents"]
    assert [event["name"] for event in events] == [
        "root", "child", "grandchild", "child"]
    assert {event["tid"] for event in events} == {0}


def test_reaper_ends_and_reaps_orphaned_descendants():
    """An orphaned grandchild that would outlive the run is adopted,
    signalled and reaped; nothing is left behind."""
    script = (
        "import os, subprocess, sys\n"
        f"sys.path.insert(0, {os.path.dirname(HERE)!r})\n"
        "import common\n"
        "common.adopt_orphans()\n"
        "out = subprocess.run(['sh', '-c',\n"
        "                      'sleep 30 >/dev/null 2>&1 & echo $!'],\n"
        "                     capture_output=True, text=True).stdout\n"
        "orphan = int(out)\n"
        "reaped = common.reap_descendants(grace_s=0.2)\n"
        "print(orphan, reaped, os.path.exists(f'/proc/{orphan}'),\n"
        "      common.child_pids())\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    orphan, reaped, alive, left = done.stdout.split(maxsplit=3)
    assert int(reaped) >= 1 and alive == "False" and left.strip() == "[]"
    assert f"SIGTERM to leftover process {orphan}" in done.stderr


def test_refuses_to_run_without_the_program(monkeypatch, capsys):
    monkeypatch.setattr(common, "SRC", "/nonexistent")
    assert run.main(["--workload", "cells", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
