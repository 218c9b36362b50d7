"""Tests for the actor and the ensemble-based critic (Eq. 6)."""

import numpy as np
import pytest

from repro.core.actor_critic import Actor, EnsembleCritic
from repro.core.replay import WorstCaseReplayBuffer
from repro.core.reward import FEASIBLE_REWARD


def train_on(critic, buffer, batch_size, rng):
    """One critic step, every member on its own batch from ``buffer``."""
    designs, rewards = buffer.sample_batches(critic.ensemble_size, batch_size, rng)
    return critic.train(designs, rewards[:, :, None])


class TestActor:
    def test_act_stays_in_unit_box(self, rng):
        actor = Actor(6, rng=rng)
        output = actor.act(rng.uniform(size=6))
        assert output.shape == (6,)
        assert np.all(output >= 0.0) and np.all(output <= 1.0)

    def test_propose_adds_noise_but_stays_clipped(self, rng):
        actor = Actor(6, rng=rng)
        design = rng.uniform(size=6)
        proposals = np.stack([actor.propose(design, 0.3, rng) for _ in range(50)])
        assert np.all(proposals >= 0.0) and np.all(proposals <= 1.0)
        assert proposals.std() > 0.0

    def test_pretrain_towards_target(self, rng):
        actor = Actor(4, learning_rate=5e-3, rng=rng)
        target = np.array([0.2, 0.8, 0.5, 0.3])
        inputs = rng.uniform(size=(16, 4))
        loss = actor.pretrain_towards(inputs, target, steps=400)
        assert loss < 1e-2
        assert np.allclose(actor.act(inputs[0]), target, atol=0.15)


class TestEnsembleCritic:
    def test_invalid_ensemble_size(self, rng):
        with pytest.raises(ValueError):
            EnsembleCritic(3, ensemble_size=0, rng=rng)

    def test_base_predictions_shape(self, rng):
        critic = EnsembleCritic(3, ensemble_size=4, rng=rng)
        predictions = critic.base_predictions(rng.uniform(size=(5, 3)))
        assert predictions.shape == (4, 5)

    def test_risk_averse_bound_below_mean(self, rng):
        critic = EnsembleCritic(3, ensemble_size=5, beta1=-3.0, rng=rng)
        designs = rng.uniform(size=(10, 3))
        mean, std = critic.predict_components(designs)
        bound = critic.predict(designs)
        assert np.all(bound <= mean + 1e-12)
        assert np.all(bound == pytest.approx(mean - 3.0 * std))

    def test_single_model_bound_equals_mean(self, rng):
        critic = EnsembleCritic(3, ensemble_size=1, beta1=-3.0, rng=rng)
        designs = rng.uniform(size=(4, 3))
        mean, _ = critic.predict_components(designs)
        assert np.allclose(critic.predict(designs), mean)

    def test_training_fits_reward_surface(self, rng):
        critic = EnsembleCritic(2, ensemble_size=3, beta1=-1.0, rng=rng)
        buffer = WorstCaseReplayBuffer()
        for _ in range(200):
            design = rng.uniform(size=2)
            buffer.add(design, float(design.sum() / 5.0))
        for _ in range(300):
            train_on(critic, buffer, 16, rng)
        low = critic.predict(np.array([[0.05, 0.05]]))[0]
        high = critic.predict(np.array([[0.95, 0.95]]))[0]
        assert high > low

    def test_bound_gradient_matches_finite_difference(self, rng):
        critic = EnsembleCritic(3, ensemble_size=3, beta1=-2.0, rng=rng)
        # Give the base models distinct weights via a little training.
        buffer = WorstCaseReplayBuffer()
        for _ in range(50):
            design = rng.uniform(size=3)
            buffer.add(design, float(np.sin(design.sum())))
        train_on(critic, buffer, 8, rng)

        x = rng.uniform(size=(1, 3))
        analytic = critic.bound_gradient(x)[0]
        numeric = np.zeros(3)
        epsilon = 1e-5
        for index in range(3):
            x_plus, x_minus = x.copy(), x.copy()
            x_plus[0, index] += epsilon
            x_minus[0, index] -= epsilon
            numeric[index] = (
                critic.predict(x_plus)[0] - critic.predict(x_minus)[0]
            ) / (2 * epsilon)
        assert np.allclose(analytic, numeric, rtol=1e-3, atol=1e-6)

    @pytest.mark.parametrize("ensemble_size, beta1", [(1, -3.0), (3, -2.0), (3, 0.0)])
    def test_actor_loss_gradient_equals_predict_and_bound_gradient(
        self, rng, ensemble_size, beta1
    ):
        """The one-forward loss and gradient match the bound from
        ``predict`` and the gradient from ``bound_gradient`` bit for bit."""
        critic = EnsembleCritic(3, ensemble_size=ensemble_size, beta1=beta1, rng=rng)
        buffer = WorstCaseReplayBuffer()
        for _ in range(40):
            design = rng.uniform(size=3)
            buffer.add(design, float(np.cos(design.sum())))
        train_on(critic, buffer, 8, rng)
        actions = rng.uniform(size=(10, 3))
        loss, grad = critic.actor_loss_gradient(actions, target=FEASIBLE_REWARD)
        error = critic.predict(actions) - FEASIBLE_REWARD
        assert loss == float(np.mean(error**2))
        expected = critic.bound_gradient(actions) * (2.0 * error / 10)[:, None]
        np.testing.assert_array_equal(grad, expected)

    def test_actor_loss_gradient_points_towards_higher_bound(self, rng):
        critic = EnsembleCritic(2, ensemble_size=3, beta1=-1.0, rng=rng)
        buffer = WorstCaseReplayBuffer()
        for _ in range(100):
            design = rng.uniform(size=2)
            buffer.add(design, float(design.sum() / 5.0 - 0.3))
        for _ in range(200):
            train_on(critic, buffer, 16, rng)
        actions = np.array([[0.5, 0.5]])
        loss, grad = critic.actor_loss_gradient(actions, target=FEASIBLE_REWARD)
        assert loss > 0
        # Stepping against the gradient (gradient descent on the loss) should
        # reduce the loss, i.e. move the bound towards the 0.2 target.
        stepped = actions - 0.05 * grad / (np.linalg.norm(grad) + 1e-12)
        new_loss, _ = critic.actor_loss_gradient(stepped, target=FEASIBLE_REWARD)
        assert new_loss <= loss + 1e-9
