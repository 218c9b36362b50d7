"""Tests for the PVTSizing / RobustAnalog / random-search baselines."""

import numpy as np
import pytest

from repro.baselines import (
    PVTSizingOptimizer,
    RandomSearchOptimizer,
    RobustAnalogOptimizer,
)
from repro.baselines.robustanalog import kmeans_cluster
from repro.circuits import StrongArmLatch
from repro.core.config import GlovaConfig, VerificationMethod


@pytest.fixture
def corner_config():
    return GlovaConfig(
        verification=VerificationMethod.CORNER,
        seed=0,
        max_iterations=60,
        initial_samples=40,
    )


class TestKMeans:
    def test_two_well_separated_clusters(self, rng):
        a = rng.normal(0.0, 0.1, size=(10, 2))
        b = rng.normal(5.0, 0.1, size=(10, 2))
        labels = kmeans_cluster(np.vstack([a, b]), 2, rng)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[-1]

    def test_cluster_count_capped_by_points(self, rng):
        labels = kmeans_cluster(rng.normal(size=(3, 2)), 10, rng)
        assert len(labels) == 3


class TestPVTSizing:
    def test_succeeds_on_corner_scenario(self, corner_config):
        result = PVTSizingOptimizer(StrongArmLatch(), corner_config).run()
        assert result.success
        assert result.method.startswith("pvtsizing")

    def test_corner_exhaustive_costs_more_than_glova(self, corner_config):
        from repro import GlovaOptimizer

        glova = GlovaOptimizer(StrongArmLatch(), corner_config).run()
        pvt = PVTSizingOptimizer(StrongArmLatch(), corner_config).run()
        assert glova.success and pvt.success
        # The paper's headline: GLOVA needs fewer simulations because it does
        # not evaluate every corner at every iteration.
        assert glova.total_simulations < pvt.total_simulations

    def test_risk_neutral_critic(self, corner_config):
        optimizer = PVTSizingOptimizer(StrongArmLatch(), corner_config)
        assert optimizer.agent.critic.ensemble_size == 1


class TestRobustAnalog:
    def test_runs_and_reports(self):
        config = GlovaConfig(
            verification=VerificationMethod.CORNER,
            seed=0,
            max_iterations=40,
            initial_samples=30,
        )
        result = RobustAnalogOptimizer(StrongArmLatch(), config).run()
        assert result.iterations <= 40
        assert result.total_simulations > 0
        assert result.method.startswith("robustanalog")

    def test_evaluate_at_corner_returns_the_worst_reward(self):
        config = GlovaConfig(
            verification=VerificationMethod.CORNER_LOCAL_MC, seed=0
        )
        optimizer = RobustAnalogOptimizer(StrongArmLatch(), config)
        corner = optimizer.operational.corners[0]
        design = np.full(optimizer.circuit.dimension, 0.5)
        worst = optimizer.evaluate_at_corner(design, corner)
        assert isinstance(worst, float)
        assert worst == optimizer.last_worst.reward_of(corner)
        samples = optimizer.operational.optimization_samples
        assert samples > 1
        assert optimizer.budget.snapshot()["optimization"] == samples

    def test_dominant_corner_subset_is_smaller_than_full_set(self, monkeypatch):
        config = GlovaConfig(
            verification=VerificationMethod.CORNER,
            seed=0,
            max_iterations=15,
            initial_samples=20,
        )
        monkeypatch.setattr(RobustAnalogOptimizer, "RECLUSTER_EVERY", 5)
        optimizer = RobustAnalogOptimizer(StrongArmLatch(), config)
        optimizer.run()
        clusters = RobustAnalogOptimizer.N_CLUSTERS
        assert len(optimizer._dominant_corners) <= clusters


class TestRandomSearch:
    def test_respects_iteration_budget(self):
        config = GlovaConfig(
            verification=VerificationMethod.CORNER,
            seed=0,
            max_iterations=5,
            initial_samples=5,
        )
        result = RandomSearchOptimizer(StrongArmLatch(), config).run()
        assert result.iterations <= 5
        # Every iteration evaluates all 30 corners at least once.
        assert result.total_simulations >= 5 * 30 or result.success
