"""Atomic on-disk writes + clear errors for truncated/corrupt artifacts.

Regression suite for the crash-safety bugfixes: a writer killed mid-write
must never leave a truncated checkpoint or sweep-report file, and reading
a damaged file must raise a clear :class:`CheckpointError` (a
:class:`ValueError`), never a raw :class:`json.JSONDecodeError` or
:class:`OSError` from deep inside.
"""

import json
import os

import pytest

from repro.resilience import (
    CheckpointError,
    atomic_write_bytes,
    atomic_write_json,
    dumps,
    load_checkpoint,
    load_sweep_report,
    save_checkpoint,
)
from repro.resilience.fabric import run_many
from repro.resilience.runner import SweepCell


class TestAtomicWriteBytes:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "artifact.bin"
        atomic_write_bytes(str(path), b"one")
        atomic_write_bytes(str(path), b"two")
        assert path.read_bytes() == b"two"

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "artifact.bin"
        atomic_write_bytes(str(path), b"payload")
        assert os.listdir(tmp_path) == ["artifact.bin"]

    def test_failed_replace_preserves_target_and_cleans_tmp(
            self, tmp_path, monkeypatch):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"good old contents")

        def exploding_replace(src, dst):
            raise OSError("simulated crash at the rename")

        import repro.resilience.checkpoint as checkpoint_module
        monkeypatch.setattr(checkpoint_module.os, "replace",
                            exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_bytes(str(path), b"half-written junk")
        monkeypatch.undo()
        # the target is byte-identical to before, and no temp junk remains
        assert path.read_bytes() == b"good old contents"
        assert os.listdir(tmp_path) == ["artifact.bin"]

    def test_unique_temp_names_for_concurrent_writers(self, tmp_path,
                                                      monkeypatch):
        # Two writers to the same path must never share the temp file: a
        # fixed "<path>.tmp" would interleave their bytes.  Capture the
        # temp names used by two writes and assert they differ.
        import repro.resilience.checkpoint as checkpoint_module

        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint_module.os, "replace",
                            recording_replace)
        path = str(tmp_path / "artifact.bin")
        atomic_write_bytes(path, b"a")
        atomic_write_bytes(path, b"b")
        assert len(seen) == 2 and seen[0] != seen[1]


class TestAtomicWriteJson:
    def test_round_trips(self, tmp_path):
        path = tmp_path / "report.json"
        atomic_write_json(str(path), {"cells": [1, 2, 3]})
        assert json.loads(path.read_text()) == {"cells": [1, 2, 3]}

    def test_unserializable_payload_never_touches_target(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"cells": "intact"}')
        with pytest.raises(TypeError):
            atomic_write_json(str(path), {"bad": object()})
        # serialization happens before any file I/O: the old report
        # survives byte-for-byte and no temp file is left in the directory
        assert json.loads(path.read_text()) == {"cells": "intact"}
        assert os.listdir(tmp_path) == ["report.json"]


class TestCheckpointFileErrors:
    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        missing = str(tmp_path / "never-written.ckpt")
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            load_checkpoint(missing)

    @pytest.mark.parametrize("keep", [0, 4, 20, 60])
    def test_truncated_file_raises_checkpoint_error(self, tmp_path, keep):
        path = str(tmp_path / "roll.ckpt")
        save_checkpoint(path, dumps({"state": list(range(64))}, kind="t"))
        blob = open(path, "rb").read()
        assert len(blob) > keep
        with open(path, "wb") as handle:
            handle.write(blob[:keep])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, kind="t")


class TestSweepReportPersistence:
    def test_out_path_streams_partial_results(self, tmp_path):
        out = str(tmp_path / "sweep.json")
        seen_cells = []

        def progress(_result):
            # the report on disk already includes every finalized cell,
            # and it parses — partial results stream as cells finish
            seen_cells.append(len(load_sweep_report(out)["cells"]))

        report = run_many(
            [SweepCell(scheme="split", app="swim", refs=1500),
             SweepCell(scheme="direct", app="swim", refs=1500)],
            out_path=out, progress=progress)
        assert seen_cells == [1, 2]
        final = load_sweep_report(out)
        assert final == report.to_dict()
        assert final["ok"] is True

    def test_truncated_sweep_report_raises_clear_error(self, tmp_path):
        out = tmp_path / "sweep.json"
        atomic_write_json(str(out), {"cells": [{"status": "ok"}] * 20})
        text = out.read_text()
        out.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError,
                           match="truncated or corrupt") as excinfo:
            load_sweep_report(str(out))
        # the raw JSON error is chained context, not the surfaced type
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)

    def test_missing_sweep_report_raises_clear_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read sweep"):
            load_sweep_report(str(tmp_path / "nope.json"))

    def test_wrong_shape_raises_clear_error(self, tmp_path):
        out = tmp_path / "sweep.json"
        out.write_text('{"not_cells": []}')
        with pytest.raises(CheckpointError, match="missing the 'cells'"):
            load_sweep_report(str(out))
