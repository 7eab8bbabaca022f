"""Normalized result surface: shared meta block, fingerprints, pure JSON."""

import json
import subprocess
import sys

import pytest

from repro import api
from repro.core.config import PRESETS
from repro.core.results import (
    RESULT_SCHEMA,
    ResultBase,
    ResultMeta,
    config_fingerprint,
)


class TestConfigFingerprint:
    def test_stable(self):
        config = PRESETS["split+gcm"]
        assert config_fingerprint(config) == config_fingerprint(config)

    def test_distinguishes_presets(self):
        prints = {config_fingerprint(c) for c in PRESETS.values()}
        assert len(prints) == len(PRESETS)

    def test_constructor_and_registry_agree(self):
        from repro.core.config import secddr_config
        from repro.schemes import REGISTRY
        assert (config_fingerprint(secddr_config())
                == config_fingerprint(REGISTRY.resolve("secddr")))


class TestMetaAttached:
    def test_run_meta(self):
        result = api.run("split+gcm", "mcf", refs=300)
        assert isinstance(result, ResultBase)
        assert result.meta.kind == "run"
        assert result.meta.schema == RESULT_SCHEMA
        assert result.meta.preset == "split+gcm"
        assert result.meta.config_fingerprint == config_fingerprint(
            PRESETS["split+gcm"])

    def test_profile_meta_and_run_field(self):
        result = api.profile("split+gcm", "mcf", refs=300)
        assert result.meta.kind == "profile"
        assert result.run.cycles > 0
        assert result.to_dict()["meta"]["schema"] == RESULT_SCHEMA

    def test_fuzz_meta(self):
        report = api.fuzz(campaigns=1, presets=["split+gcm"], seed=0)
        assert report.meta.kind == "fuzz"
        assert report.meta.seed == 0
        assert report.to_dict()["meta"]["kind"] == "fuzz"

    def test_bench_meta(self):
        result = api.bench(quick=True, seed=3)
        assert result.meta.kind == "bench"
        assert result.meta.seed == 3
        assert result.ok
        assert result.report["schema"].startswith("repro-bench/")

    def test_meta_is_frozen(self):
        import dataclasses
        meta = ResultMeta(kind="run")
        with pytest.raises(dataclasses.FrozenInstanceError):
            meta.kind = "other"


class TestSchemesJSONPurity:
    def test_schemes_json_stdout_is_pure_json(self):
        """The documented machine interface: the ENTIRE stdout of
        ``python -m repro schemes --json`` must parse as one JSON object
        (no banners, progress lines, or warnings mixed in)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "schemes", "--json"],
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == set(PRESETS)
        for name, entry in payload.items():
            assert entry["name"] == name
            assert {c["kind"] for c in entry["components"]} == {
                "codec", "counter", "mac", "integrity"}
        assert payload["secddr"]["integrity"] == "secddr"
        assert payload["scattered"]["encryption"] == "shares"
