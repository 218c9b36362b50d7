"""Tests for the GP surrogate and the TuRBO initial sampler."""

import numpy as np
import pytest

from repro.core.gp import GaussianProcess
from repro.core.reward import FEASIBLE_REWARD
from repro.core.turbo import TurboResult, TurboSampler


class TestGaussianProcess:
    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((1, 2)), np.zeros(1))

    def test_fit_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_interpolates_training_points(self, rng):
        inputs = rng.uniform(size=(30, 2))
        targets = np.sin(3 * inputs[:, 0]) + inputs[:, 1]
        gp = GaussianProcess().fit(inputs, targets)
        mean, _ = gp.predict(inputs)
        assert np.allclose(mean, targets, atol=0.1)

    def test_variance_larger_away_from_data(self, rng):
        inputs = rng.uniform(0.0, 0.3, size=(30, 2))
        targets = inputs.sum(axis=1)
        gp = GaussianProcess().fit(inputs, targets)
        _, variance_near = gp.predict(np.array([[0.15, 0.15]]))
        _, variance_far = gp.predict(np.array([[0.95, 0.95]]))
        assert variance_far[0] > variance_near[0]

    def test_posterior_samples_have_right_shape(self, rng):
        inputs = rng.uniform(size=(20, 3))
        targets = inputs.sum(axis=1)
        gp = GaussianProcess().fit(inputs, targets)
        samples = gp.sample_posterior(rng.uniform(size=(7, 3)), rng)
        assert samples.shape == (7,)

    def test_constant_targets_handled(self, rng):
        inputs = rng.uniform(size=(10, 2))
        gp = GaussianProcess().fit(inputs, np.full(10, 3.0))
        mean, _ = gp.predict(inputs[:3])
        assert np.allclose(mean, 3.0, atol=0.2)


class TestTurboSampler:
    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            TurboSampler(0)

    def test_initial_points_cover_unit_cube(self, rng):
        sampler = TurboSampler(5, rng=rng, initial_points=16)
        points = sampler.ask_initial()
        assert points.shape == (16, 5)
        assert np.all(points >= 0.0) and np.all(points <= 1.0)

    def test_ask_returns_batch_inside_unit_cube(self, rng):
        sampler = TurboSampler(4, rng=rng, batch_size=3)
        designs = rng.uniform(size=(10, 4))
        sampler.tell(designs, -np.linalg.norm(designs - 0.5, axis=1))
        batch = sampler.ask()
        assert batch.shape == (3, 4)
        assert np.all(batch >= 0.0) and np.all(batch <= 1.0)

    def test_trust_region_shrinks_after_failures(self, rng):
        sampler = TurboSampler(3, rng=rng, failure_tolerance=2)
        sampler.tell(np.full((1, 3), 0.5), np.array([1.0]))
        initial_length = sampler.length
        # Repeated non-improving observations shrink the region.
        for _ in range(4):
            sampler.tell(rng.uniform(size=(1, 3)), np.array([-5.0]))
        assert sampler.length < initial_length

    def test_trust_region_grows_after_successes(self, rng):
        sampler = TurboSampler(3, rng=rng, success_tolerance=2)
        initial_length = sampler.length
        for reward in (0.1, 0.2, 0.3, 0.4):
            sampler.tell(rng.uniform(size=(1, 3)), np.array([reward]))
        assert sampler.length >= initial_length

    def test_run_finds_feasible_region(self, rng):
        """Reward landscape with a feasible plateau around x = 0.7."""

        def objective(designs):
            distance = np.linalg.norm(designs - 0.7, axis=1)
            return np.where(distance < 0.25, FEASIBLE_REWARD, -distance)

        sampler = TurboSampler(3, rng=rng, batch_size=4)
        result = sampler.run(objective, max_evaluations=120, feasible_target=1)
        assert isinstance(result, TurboResult)
        assert result.found_feasible
        assert result.best_reward == FEASIBLE_REWARD
        assert result.evaluations <= 120

    def test_run_respects_budget(self, rng):
        calls = []

        def objective(designs):
            calls.append(len(designs))
            return np.full(len(designs), -1.0)

        sampler = TurboSampler(2, rng=rng)
        result = sampler.run(objective, max_evaluations=25, feasible_target=1)
        assert sum(calls) == 25
        assert result.evaluations == 25
        assert not result.found_feasible

    def test_run_rejects_one_reward_for_a_batch(self, rng):
        sampler = TurboSampler(2, rng=rng)
        with pytest.raises(ValueError, match="objective must map 10 designs"):
            sampler.run(lambda designs: -1.0, max_evaluations=25)
