"""Tests for the framework configuration and the Table-I contract."""

import pytest

from repro.core.config import (
    GlovaConfig,
    OperationalConfig,
    PAPER_MC_SAMPLES,
    VerificationMethod,
    operational_config,
)
from repro.variation.corners import ProcessCorner


class TestVerificationMethod:
    def test_values_match_paper_labels(self):
        assert VerificationMethod.CORNER.value == "C"
        assert VerificationMethod.CORNER_LOCAL_MC.value == "C-MCL"
        assert VerificationMethod.CORNER_GLOBAL_LOCAL_MC.value == "C-MCG-L"

    def test_mc_flags(self):
        assert not VerificationMethod.CORNER.uses_local_mc
        assert VerificationMethod.CORNER_LOCAL_MC.uses_local_mc
        assert not VerificationMethod.CORNER_LOCAL_MC.uses_global_mc
        assert VerificationMethod.CORNER_GLOBAL_LOCAL_MC.uses_global_mc


class TestOperationalConfig:
    """Table I: corner set, active variances, and sample counts per method."""

    def test_corner_configuration(self):
        config = operational_config(VerificationMethod.CORNER)
        assert not config.include_global
        assert not config.include_local
        assert config.optimization_samples == 1
        assert config.verification_samples == 1
        assert len(config.corners) == 30
        assert config.total_verification_simulations == 30

    def test_corner_local_mc_configuration(self):
        config = operational_config(VerificationMethod.CORNER_LOCAL_MC)
        assert not config.include_global
        assert config.include_local
        assert len(config.corners) == 30
        # Paper budget: 0.1K local MC per corner -> 3,000 simulations.
        assert config.verification_samples == 100
        assert config.total_verification_simulations == 3000

    def test_corner_global_local_mc_configuration(self):
        config = operational_config(VerificationMethod.CORNER_GLOBAL_LOCAL_MC)
        assert config.include_global
        assert config.include_local
        assert len(config.corners) == 6
        assert all(c.process is ProcessCorner.TT for c in config.corners)
        # Paper budget: 1K global-local MC per VT corner -> 6,000 simulations.
        assert config.verification_samples == 1000
        assert config.total_verification_simulations == 6000

    def test_reduced_budget_override(self):
        config = operational_config(
            VerificationMethod.CORNER_LOCAL_MC, verification_samples=20
        )
        assert config.verification_samples == 20
        assert config.total_verification_simulations == 600

    def test_paper_budgets_table(self):
        assert PAPER_MC_SAMPLES[VerificationMethod.CORNER] == 1
        assert PAPER_MC_SAMPLES[VerificationMethod.CORNER_LOCAL_MC] == 100
        assert PAPER_MC_SAMPLES[VerificationMethod.CORNER_GLOBAL_LOCAL_MC] == 1000

    def test_invalid_sample_counts_rejected(self):
        with pytest.raises(ValueError):
            operational_config(
                VerificationMethod.CORNER_LOCAL_MC,
                optimization_samples=0,
            )
        with pytest.raises(ValueError):
            operational_config(
                VerificationMethod.CORNER_LOCAL_MC,
                optimization_samples=5,
                verification_samples=3,
            )


class TestGlovaConfig:
    def test_paper_defaults(self):
        config = GlovaConfig()
        assert config.risk_beta1 == pytest.approx(-3.0)
        assert config.reliability_beta2 == pytest.approx(4.0)
        assert config.batch_size == 10
        assert config.optimization_samples == 3

    def test_operational_reflects_method(self):
        config = GlovaConfig(verification=VerificationMethod.CORNER_GLOBAL_LOCAL_MC)
        operational = config.operational()
        assert operational.method is VerificationMethod.CORNER_GLOBAL_LOCAL_MC
        assert operational.include_global

    def test_ablation_switch_disables_ensemble(self):
        config = GlovaConfig(use_ensemble_critic=False)
        assert config.effective_ensemble_size() == 1
        assert config.effective_beta1() == 0.0

    def test_default_uses_ensemble(self):
        config = GlovaConfig()
        assert config.effective_ensemble_size() == config.ensemble_size
        assert config.effective_beta1() == config.risk_beta1

    @pytest.mark.parametrize("field", ["initial_samples", "max_iterations"])
    def test_rejects_zero_initial_samples(self, field):
        with pytest.raises(ValueError, match=field):
            GlovaConfig(**{field: 0})

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            GlovaConfig(seed=-1)
        assert GlovaConfig(seed=None).seed is None
        assert GlovaConfig(seed=0).seed == 0

    def test_with_overrides_returns_copy(self):
        config = GlovaConfig()
        other = config.with_overrides(max_iterations=7)
        assert other.max_iterations == 7
        assert config.max_iterations != 7
