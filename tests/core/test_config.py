"""Configuration presets and derived properties."""

import re

import pytest

from repro.auth.policies import AuthPolicy
from repro.core.config import (
    AuthMode,
    CounterOrg,
    EncryptionMode,
    PRESETS,
    SIM_ENGINES,
    SecureMemoryConfig,
    baseline_config,
    direct_config,
    gcm_auth_config,
    mono_config,
    mono_sha_config,
    prediction_config,
    sha_auth_config,
    split_config,
    split_gcm_config,
    xom_sha_config,
)
from repro.core.results import HOST_ONLY_CONFIG_FIELDS


class TestPresets:
    def test_all_presets_named_consistently(self):
        for name, config in PRESETS.items():
            assert config.name == name

    def test_baseline_has_no_protection(self):
        config = baseline_config()
        assert config.encryption is EncryptionMode.NONE
        assert config.auth is AuthMode.NONE
        assert not config.uses_counters

    def test_split_gcm_is_the_paper_default(self):
        config = split_gcm_config()
        assert config.encryption is EncryptionMode.COUNTER
        assert config.counter_org is CounterOrg.SPLIT
        assert config.auth is AuthMode.GCM
        assert config.auth_policy is AuthPolicy.COMMIT
        assert config.parallel_auth
        assert config.mac_bits == 64
        assert config.authenticate_counters

    def test_mono_widths(self):
        for bits, org in [(8, CounterOrg.MONO8), (16, CounterOrg.MONO16),
                          (32, CounterOrg.MONO32), (64, CounterOrg.MONO64)]:
            assert mono_config(bits).counter_org is org

    def test_xom_is_direct_plus_sha(self):
        config = xom_sha_config()
        assert config.encryption is EncryptionMode.DIRECT
        assert config.auth is AuthMode.SHA1

    def test_prediction_engine_naming(self):
        assert prediction_config().name == "pred"
        assert prediction_config(aes_engines=2).name == "pred2eng"
        assert prediction_config(aes_engines=2).aes_engines == 2

    def test_sha_latency_parameterized(self):
        assert sha_auth_config(160).sha_latency == 160
        assert "160" in sha_auth_config(160).name


class TestUsesCounters:
    def test_counter_mode_uses_counters(self):
        assert split_config().uses_counters

    def test_gcm_auth_only_still_uses_counters(self):
        """Figure 7: only GCM maintains per-block counters when no
        encryption is used."""
        assert gcm_auth_config().uses_counters

    def test_sha_auth_only_does_not(self):
        assert not sha_auth_config().uses_counters

    def test_direct_does_not(self):
        assert not direct_config().uses_counters
        assert not xom_sha_config().uses_counters


class TestUpdates:
    def test_with_updates_returns_new_config(self):
        base = split_gcm_config()
        changed = base.with_updates(mac_bits=32)
        assert changed.mac_bits == 32
        assert base.mac_bits == 64

    def test_configs_are_frozen(self):
        with pytest.raises(Exception):
            split_config().mac_bits = 128

    def test_configs_hashable(self):
        assert hash(split_config()) == hash(split_config())
        assert {split_config(), split_config()} == {split_config()}


class TestValidation:
    """__post_init__ rejects configurations the hardware could not build."""

    @pytest.mark.parametrize("mac_bits", [0, 16, 48, 96, 256])
    def test_rejects_bad_mac_bits(self, mac_bits):
        with pytest.raises(ValueError, match="mac_bits"):
            split_gcm_config(mac_bits=mac_bits)

    @pytest.mark.parametrize("minor_bits", [0, -1, 17, 64])
    def test_rejects_bad_minor_bits(self, minor_bits):
        with pytest.raises(ValueError, match="minor_bits"):
            split_config(minor_bits=minor_bits)

    @pytest.mark.parametrize("size", [0, -64, 100, 3000])
    def test_rejects_non_power_of_two_counter_cache(self, size):
        with pytest.raises(ValueError, match="counter_cache_size"):
            split_config(counter_cache_size=size)

    @pytest.mark.parametrize("size", [0, 1000])
    def test_rejects_non_power_of_two_node_cache(self, size):
        with pytest.raises(ValueError, match="node_cache_size"):
            split_gcm_config(node_cache_size=size)

    def test_rejects_zero_aes_engines(self):
        with pytest.raises(ValueError, match="aes_engines"):
            prediction_config(aes_engines=0)

    def test_with_updates_validates_too(self):
        with pytest.raises(ValueError, match="mac_bits"):
            split_gcm_config().with_updates(mac_bits=48)

    def test_valid_edges_accepted(self):
        assert split_gcm_config(mac_bits=32).mac_bits == 32
        assert split_config(minor_bits=1).minor_bits == 1
        assert split_config(minor_bits=16).minor_bits == 16


class TestHostOnlyKnobs:
    """No config field picks a crypto kernel (the batch size does), and
    ``sim_engine`` takes two values."""

    @pytest.mark.parametrize("kernel", ["auto", "scalar", "table", "vector"])
    def test_no_kernel_field(self, kernel):
        with pytest.raises(TypeError, match="kernel"):
            SecureMemoryConfig(kernel=kernel)
        with pytest.raises(TypeError, match="kernel"):
            split_gcm_config().with_updates(kernel=kernel)

    def test_sim_engine_takes_auto_or_scalar(self):
        assert SIM_ENGINES == ("auto", "scalar")
        assert HOST_ONLY_CONFIG_FIELDS == {"sim_engine"}
        for engine in SIM_ENGINES:
            assert split_config(sim_engine=engine).sim_engine == engine

    def test_batched_is_not_a_sim_engine(self):
        with pytest.raises(ValueError,
                           match=re.escape("one of ('auto', 'scalar')")):
            split_config(sim_engine="batched")


class TestPresetsReadOnly:
    def test_presets_mapping_is_immutable(self):
        with pytest.raises(TypeError):
            PRESETS["rogue"] = baseline_config()

    def test_presets_cannot_be_deleted_from(self):
        with pytest.raises(TypeError):
            del PRESETS["baseline"]
