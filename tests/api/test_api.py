"""The repro.api facade: config lookup, experiments, result shape."""

import dataclasses
import json

import pytest

from repro import api
from repro.api import Experiment, ExperimentResult, get_config, list_configs
from repro.core.config import PRESETS, SecureMemoryConfig
from repro.workloads import spec_trace


class TestGetConfig:
    def test_every_preset_resolves(self):
        for name in list_configs():
            config = get_config(name)
            assert isinstance(config, SecureMemoryConfig)
            assert config.name == name

    def test_list_matches_presets(self):
        assert list_configs() == list(PRESETS)

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            get_config("rot13")

    def test_typo_gets_a_suggestion(self):
        with pytest.raises(KeyError, match="did you mean"):
            get_config("spilt")
        with pytest.raises(KeyError, match="split"):
            get_config("splitt")

    def test_message_lists_choices(self):
        with pytest.raises(KeyError, match="baseline"):
            get_config("zzzzzz")

    def test_overrides_applied(self):
        config = get_config("split+gcm", mac_bits=32)
        assert config.mac_bits == 32
        assert get_config("split+gcm").mac_bits == 64  # preset untouched

    def test_overrides_validated(self):
        with pytest.raises(ValueError, match="mac_bits"):
            get_config("split+gcm", mac_bits=48)


class TestExperiment:
    def test_accepts_preset_name_or_config(self):
        by_name = Experiment("split", refs=5000)
        by_config = Experiment(get_config("split"), refs=5000)
        assert by_name.config == by_config.config

    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError, match="unknown app"):
            Experiment("split", "notanapp")

    def test_run_produces_consistent_result(self):
        result = Experiment("split", "gzip", refs=8000).run()
        assert isinstance(result, ExperimentResult)
        assert result.scheme == "split"
        assert result.app == "gzip"
        assert 0.0 < result.normalized_ipc <= 1.5
        assert result.overhead == pytest.approx(1.0 - result.normalized_ipc)
        assert result.counter_cache_hit_rate is not None

    def test_baseline_has_no_counter_cache(self):
        result = Experiment("baseline", "gzip", refs=6000).run()
        assert result.counter_cache_hit_rate is None
        assert result.timely_pad_rate is None
        assert result.normalized_ipc == pytest.approx(1.0)

    def test_prebuilt_trace_and_shared_baseline(self):
        trace = spec_trace("gzip", 6000)
        first = Experiment("split", trace, refs=6000)
        first_result = first.run()
        second = Experiment("mono64b", trace, refs=6000,
                            baseline=first.baseline_result)
        second_result = second.run()
        # the shared baseline was reused, not re-simulated
        assert second.baseline_result is first.baseline_result
        assert second_result.baseline_ipc == first_result.baseline_ipc

    def test_raw_results_kept(self):
        experiment = Experiment("split", "gzip", refs=6000)
        experiment.run()
        assert experiment.result is not None
        assert experiment.baseline_result is not None
        assert experiment.result.ipc > 0

    def test_to_dict_is_json_ready(self):
        result = Experiment("split", "gzip", refs=6000).run()
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["scheme"] == "split"
        assert set(payload) == {
            f.name for f in dataclasses.fields(ExperimentResult)
        }


class TestRunShortcut:
    def test_one_shot(self):
        result = api.run("direct", "gzip", refs=6000)
        assert result.scheme == "direct"
        assert result.counter_cache_hit_rate is None


class TestRunMany:
    def test_forwards_out_path_and_streams_the_report(self, tmp_path):
        from repro.resilience import SweepCell, load_sweep_report

        out = str(tmp_path / "sweep.json")
        on_disk = []
        report = api.run_many(
            [SweepCell("split", "swim", refs=1_500),
             SweepCell("direct", "swim", refs=1_500)],
            out_path=out,
            progress=lambda _cell: on_disk.append(load_sweep_report(out)))
        assert report.ok
        # each callback found the report already holding the cells
        # published so far, and nothing else
        assert [len(streamed["cells"]) for streamed in on_disk] == [1, 2]
        assert all(cell["status"] == "ok" and not streamed["interrupted"]
                   for streamed in on_disk for cell in streamed["cells"])
        assert load_sweep_report(out) == report.to_dict()
