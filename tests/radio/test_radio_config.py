"""RadioConfig validation and derivation helpers."""

import pytest

from repro.config_fields import replace_fields
from repro.radio.config import SF_POLICIES, RadioConfig


class TestRadioConfig:
    def test_default_is_the_paper_setting(self):
        config = RadioConfig()
        assert config.num_channels == 1
        assert config.sf_policy == "fixed-sf7"
        assert config.is_default

    def test_policies_catalogue(self):
        assert set(SF_POLICIES) == {"fixed-sf7", "distance-based", "random"}

    @pytest.mark.parametrize("policy", SF_POLICIES)
    def test_every_registered_policy_accepted(self, policy):
        assert RadioConfig(sf_policy=policy).sf_policy == policy

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="sf_policy"):
            RadioConfig(sf_policy="adr")

    def test_non_positive_channels_rejected(self):
        with pytest.raises(ValueError, match="num_channels"):
            RadioConfig(num_channels=0)

    def test_field_replacement_derives_copies(self):
        config = RadioConfig()
        multi = replace_fields(config, {"num_channels": 3, "sf_policy": "random"})
        assert multi == RadioConfig(num_channels=3, sf_policy="random")
        assert not multi.is_default
        assert config == RadioConfig()  # original untouched
