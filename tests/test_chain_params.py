"""Unit tests for ProtocolParams."""

import dataclasses

import pytest

from repro.chain.params import ProtocolParams
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_match_paper(self):
        params = ProtocolParams()
        assert params.k == 16
        assert params.eta == 2.0
        assert params.tau == 300
        assert params.beta == 0.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ConfigurationError):
            ProtocolParams(k=k)

    def test_rejects_non_int_k(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(k=4.0)

    def test_rejects_eta_below_one(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(eta=0.5)

    def test_eta_one_allowed(self):
        assert ProtocolParams(eta=1.0).eta == 1.0

    @pytest.mark.parametrize("tau", [0, -5])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ConfigurationError):
            ProtocolParams(tau=tau)

    @pytest.mark.parametrize("beta", [-0.1, 1.1])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ConfigurationError):
            ProtocolParams(beta=beta)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(capacity_per_epoch=-1.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(seed=-1)


class TestBehaviour:
    def test_with_updates_revalidates(self):
        params = ProtocolParams(k=4)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(params, k=0)

    def test_with_updates_changes_field(self):
        params = dataclasses.replace(ProtocolParams(k=4), eta=5.0)
        assert params.eta == 5.0
        assert params.k == 4

    def test_derive_capacity_paper_rule(self):
        params = ProtocolParams(k=4)
        assert params.derive_capacity(1000) == 250.0

    def test_derive_capacity_explicit_override(self):
        params = ProtocolParams(k=4, capacity_per_epoch=99.0)
        assert params.derive_capacity(1000) == 99.0

    def test_derive_capacity_floor(self):
        params = ProtocolParams(k=16)
        assert params.derive_capacity(0) == 1.0

    def test_derive_capacity_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ProtocolParams(k=4).derive_capacity(-1)

    def test_frozen(self):
        params = ProtocolParams()
        with pytest.raises(Exception):
            params.k = 8  # type: ignore[misc]
