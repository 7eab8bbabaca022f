"""Preset descriptions: the schemes listing, its components and fingerprints.

``fixtures/schemes.json`` pins what ``api.list_schemes()`` returns, the
text of ``python -m repro schemes`` and every preset's config fingerprint
in ``PRESETS`` order, so a change to how presets are defined or described
shows up here before it reaches a figure.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.__main__ import main
from repro.core.config import PRESETS
from repro.core.results import config_fingerprint

FIXTURE = Path(__file__).parent / "fixtures" / "schemes.json"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


class TestPinned:
    def test_list_schemes(self, pinned):
        described = {info.name: info.to_dict() for info in api.list_schemes()}
        assert list(described) == list(pinned["schemes"])
        assert described == pinned["schemes"]

    def test_schemes_text(self, pinned, capsys):
        assert main(["schemes"]) == 0
        assert capsys.readouterr().out.splitlines() == pinned["text"]

    def test_fingerprints_in_preset_order(self, pinned):
        assert [[name, config_fingerprint(config)]
                for name, config in PRESETS.items()] == pinned["fingerprints"]


class TestComponents:
    def test_integrity_names_the_integrity_component(self):
        for info in api.list_schemes():
            assert info.components[-1].kind == "integrity"
            assert info.integrity == info.components[-1].name
        assert api.describe_scheme("baseline").integrity == "none"

    def test_integrity_matches_what_both_layers_build(self):
        from repro.core.secure_memory import SecureMemorySystem
        from repro.sim.timing_memory import TimingSecureMemory

        for info in api.list_schemes():
            config = PRESETS[info.name]
            builds_tree = info.integrity != "none"
            functional = SecureMemorySystem(config)
            timing = TimingSecureMemory(config)
            assert (functional.merkle is not None) == builds_tree
            assert (timing.geometry is not None) == builds_tree

    def test_requires_subset_of_provides(self):
        for info in api.list_schemes():
            provided = {cap for component in info.components
                        for cap in component.provides}
            assert info.capabilities == tuple(sorted(provided))
            for component in info.components:
                missing = set(component.requires) - provided
                assert not missing, (info.name, component.name, missing)


class TestApiSurface:
    def test_list_schemes_covers_presets(self):
        infos = api.list_schemes()
        assert [info.name for info in infos] == list(PRESETS)
        for info in infos:
            assert isinstance(info, api.SchemeInfo)
            assert [c.kind for c in info.components] == [
                "codec", "counter", "mac", "integrity"]

    def test_describe_scheme_capabilities(self):
        info = api.describe_scheme("secddr")
        assert "replay-protection" in info.capabilities
        assert "constant-time-verify" in info.capabilities
        assert info.integrity == "secddr"
        scattered = api.describe_scheme("scattered")
        assert "scattering" in scattered.capabilities
        assert scattered.encryption == "shares"

    def test_scheme_info_to_dict_json_native(self):
        payload = api.describe_scheme("split+gcm").to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_get_config_preset_kwarg(self):
        assert api.get_config(preset="secddr") == api.get_config("secddr")

    def test_get_config_exactly_one_label(self):
        with pytest.raises(TypeError):
            api.get_config()
        with pytest.raises(TypeError):
            api.get_config("split+gcm", preset="secddr")
