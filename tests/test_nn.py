"""Tests for the stacked numpy network (repro.core.nn)."""

import numpy as np
import pytest

from repro.core import agent as agent_module
from repro.core.actor_critic import EnsembleCritic
from repro.core.agent import RiskSensitiveAgent
from repro.core.config import GlovaConfig
from repro.core.nn import StackedMLP
from repro.core.replay import WorstCaseReplayBuffer
from repro.core.reward import FEASIBLE_REWARD


class TestStackedMLP:
    def test_forward_shape(self, rng):
        network = StackedMLP(3, [4, 3], rng=rng)
        assert network.forward(np.zeros((5, 4))).shape == (3, 5, 3)
        assert network.forward(np.zeros((3, 5, 4))).shape == (3, 5, 3)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="softplus"):
            StackedMLP(1, [2, 2], output_activation="softplus")

    def test_minimum_two_layer_sizes(self):
        with pytest.raises(ValueError):
            StackedMLP(2, [4])

    def test_backward_before_forward_rejected(self, rng):
        network = StackedMLP(2, [2, 2], rng=rng)
        network.forward(np.ones((1, 2)), cache=False)
        with pytest.raises(RuntimeError):
            network.backward(np.zeros((2, 1, 2)))

    def test_zero_grad(self, rng):
        network = StackedMLP(2, [2, 2], rng=rng)
        network.forward(np.ones((1, 2)))
        network.backward(np.ones((2, 1, 2)))
        assert np.any(network.grad_weights[0] != 0)
        network.zero_grad()
        assert np.all(network.gradients == 0)


class TestStackedGradients:
    def test_parameter_gradient_matches_finite_difference(self, rng):
        network = StackedMLP(3, [3, 8, 1], rng=rng)
        inputs = rng.normal(size=(3, 4, 3))
        targets = rng.normal(size=(3, 4, 1))

        def member_losses():
            predictions = network.forward(inputs, cache=False)
            return np.mean((predictions - targets) ** 2, axis=(1, 2))

        predictions = network.forward(inputs, cache=True)
        network.zero_grad()
        network.backward(2.0 * (predictions - targets) / predictions.shape[1])

        epsilon = 1e-6
        for member in range(3):
            weight = network.weights[0][member]
            analytic = network.grad_weights[0][member, 0, 0]
            weight[0, 0] += epsilon
            loss_plus = member_losses()[member]
            weight[0, 0] -= 2 * epsilon
            loss_minus = member_losses()[member]
            weight[0, 0] += epsilon
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_input_gradient_matches_finite_difference(self, rng):
        network = StackedMLP(3, [3, 8, 1], rng=rng)
        x = rng.normal(size=(1, 3))
        network.forward(x, cache=True)
        analytic = network.input_gradient(np.ones((1, 1)))[:, 0]

        epsilon = 1e-6
        numeric = np.zeros((3, 3))
        for index in range(3):
            x_plus, x_minus = x.copy(), x.copy()
            x_plus[0, index] += epsilon
            x_minus[0, index] -= epsilon
            numeric[:, index] = (
                network.forward(x_plus, cache=False)[:, 0, 0]
                - network.forward(x_minus, cache=False)[:, 0, 0]
            ) / (2 * epsilon)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_input_gradient_does_not_touch_parameter_grads(self, rng):
        network = StackedMLP(2, [3, 4, 1], rng=rng)
        network.zero_grad()
        network.forward(np.ones((2, 3)), cache=True)
        network.input_gradient(np.ones((2, 1)))
        assert np.all(network.gradients == 0)


class TestStackedTraining:
    def test_regression_converges(self, rng):
        network = StackedMLP(2, [1, 16, 16, 1], learning_rate=5e-3, rng=rng)
        inputs = np.linspace(-1, 1, 64).reshape(-1, 1)
        targets = np.sin(2.0 * inputs)
        first_losses = network.fit_step(inputs, targets)
        for _ in range(400):
            losses = network.fit_step(inputs, targets)
        assert np.all(losses < first_losses * 0.1)

    def test_sigmoid_output_bounded(self, rng):
        network = StackedMLP(2, [4, 8, 4], output_activation="sigmoid", rng=rng)
        outputs = network.forward(rng.normal(size=(10, 4)) * 5)
        assert np.all(outputs >= 0.0)
        assert np.all(outputs <= 1.0)

    def test_critic_members_reduce_loss(self, rng):
        network = StackedMLP(2, [3, 64, 64, 1], learning_rate=2e-3, rng=rng)
        designs = rng.uniform(size=(64, 3))
        rewards = (designs.sum(axis=1) / 10.0)[:, None]
        first_losses = network.fit_step(designs, rewards)
        for _ in range(200):
            losses = network.fit_step(designs, rewards)
        assert np.all(losses < first_losses * 0.5)

    def test_critic_member_prediction_shape(self, rng):
        network = StackedMLP(5, [3, 64, 64, 1], rng=rng)
        predictions = network.forward(rng.uniform(size=(7, 3)), cache=False)
        assert predictions.shape == (5, 7, 1)


# ----------------------------------------------------------------------
# Loop reference: K separate 2-D MLPs with textbook Adam.


class LoopMLP:
    """One relu MLP with a linear or sigmoid output, trained layer by layer."""

    def __init__(self, layer_sizes, learning_rate, rng, output="linear"):
        self.output = output
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self.learning_rate = learning_rate
        self.params = [p for pair in zip(self.weights, self.biases) for p in pair]
        self.first = [np.zeros_like(p) for p in self.params]
        self.second = [np.zeros_like(p) for p in self.params]
        self.steps = 0

    @staticmethod
    def sigmoid(pre):
        return 1.0 / (1.0 + np.exp(-np.clip(pre, -60.0, 60.0)))

    def forward(self, x):
        self.cache = []
        last = len(self.weights) - 1
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            pre = x @ weight + bias
            self.cache.append((x, pre))
            if index < last:
                x = np.maximum(pre, 0.0)
            else:
                x = self.sigmoid(pre) if self.output == "sigmoid" else pre
        return x

    def backward(self, grad, grads=None):
        last = len(self.weights) - 1
        for index in reversed(range(len(self.weights))):
            x, pre = self.cache[index]
            if index < last:
                slope = (pre > 0.0).astype(float)
            elif self.output == "sigmoid":
                s = self.sigmoid(pre)
                slope = s * (1.0 - s)
            else:
                slope = np.ones_like(pre)
            grad_pre = grad * slope
            if grads is not None:
                grads[2 * index] += x.T @ grad_pre
                grads[2 * index + 1] += grad_pre.sum(axis=0)
            grad = grad_pre @ self.weights[index].T
        return grad

    def fit(self, x, y):
        """One MSE step on ``(x, y)``; returns the loss before the step."""
        error = self.forward(x) - y
        grads = [np.zeros_like(p) for p in self.params]
        self.backward(2.0 * error / error.shape[0], grads)
        self.adam(grads)
        return np.mean(error**2)

    def adam(self, grads):
        self.steps += 1
        for p, g, m, v in zip(self.params, grads, self.first, self.second):
            m[...] = 0.9 * m + (1.0 - 0.9) * g
            v[...] = 0.999 * v + (1.0 - 0.999) * g**2
            m_hat = m / (1.0 - 0.9**self.steps)
            v_hat = v / (1.0 - 0.999**self.steps)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)


def loop_bound(models, x, beta1):
    predictions = np.stack([model.forward(x)[:, 0] for model in models])
    mean = predictions.mean(axis=0)
    if len(models) == 1:
        return mean
    return mean + beta1 * predictions.std(axis=0)


def loop_bound_gradient(models, x, beta1):
    ensemble = len(models)
    predictions = np.stack([model.forward(x)[:, 0] for model in models])
    mean, std = predictions.mean(axis=0), predictions.std(axis=0)
    gradient = np.zeros_like(x)
    for index, model in enumerate(models):
        model.forward(x)
        base_grad = model.backward(np.ones((x.shape[0], 1)))
        weight = np.full(x.shape[0], 1.0 / ensemble)
        if ensemble > 1:
            safe_std = np.where(std > 1e-12, std, np.inf)
            weight = weight + beta1 * ((predictions[index] - mean) / (ensemble * safe_std))
        gradient += base_grad * weight[:, None]
    return gradient


@pytest.mark.parametrize("members", [1, 3, 5])
def test_critic_matches_loop_reference_bit_for_bit(members):
    """Stacked training equals K separate textbook-Adam MLPs exactly."""
    critic = EnsembleCritic(
        4, members, beta1=-3.0, hidden_size=16, rng=np.random.default_rng(11)
    )
    init_rng = np.random.default_rng(11)
    models = [LoopMLP([4, 16, 16, 1], 2e-3, init_rng) for _ in range(members)]

    data = np.random.default_rng(3)
    buffer = WorstCaseReplayBuffer()
    for _ in range(40):
        design = data.uniform(size=4)
        buffer.add(design, float(np.sin(design.sum()) - 0.5))
    stacked_batches, loop_batches = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(50):
        designs, rewards = buffer.sample_batches(members, 10, stacked_batches)
        critic.train(designs, rewards[:, :, None])
        for model in models:
            designs, rewards = buffer.sample(10, loop_batches)
            model.fit(designs, rewards[:, None])

    network = critic.network
    for member, model in enumerate(models):
        for layer, (weight, bias) in enumerate(zip(model.weights, model.biases)):
            np.testing.assert_array_equal(network.weights[layer][member], weight)
            np.testing.assert_array_equal(network.biases[layer][member, 0], bias)
    x = data.uniform(size=(7, 4))
    np.testing.assert_array_equal(critic.predict(x), loop_bound(models, x, -3.0))
    np.testing.assert_array_equal(
        critic.bound_gradient(x), loop_bound_gradient(models, x, -3.0)
    )


class LoopAgent:
    """Algorithm 1's update, textbook style: K loop critics and a loop actor,
    one ``buffer.sample`` per critic member and one for the actor per step."""

    def __init__(self, design_dimension, config, rng):
        hidden = config.hidden_size
        # RiskSensitiveAgent builds the actor, then the critic, from its rng.
        self.actor = LoopMLP(
            [design_dimension, hidden, hidden, design_dimension],
            config.actor_learning_rate,
            rng,
            output="sigmoid",
        )
        critic_sizes = [design_dimension, hidden, hidden, 1]
        self.critics = [
            LoopMLP(critic_sizes, config.critic_learning_rate, rng)
            for _ in range(config.effective_ensemble_size())
        ]
        self.beta1 = config.effective_beta1()
        self.config = config
        self.rng = rng

    def update(self, buffer):
        batch_size = min(self.config.batch_size, len(buffer))
        critic_losses, actor_losses = [], []
        for _ in range(self.config.gradient_steps_per_iteration):
            member_losses = []
            for model in self.critics:
                designs, rewards = buffer.sample(batch_size, self.rng)
                member_losses.append(model.fit(designs, rewards[:, None]))
            critic_losses.append(float(np.mean(member_losses)))

            designs, _ = buffer.sample(batch_size, self.rng)
            actions = self.actor.forward(designs)
            error = loop_bound(self.critics, actions, self.beta1) - FEASIBLE_REWARD
            actor_losses.append(float(np.mean(error**2)))
            grad_actions = loop_bound_gradient(self.critics, actions, self.beta1) * (
                2.0 * error / batch_size
            )[:, None]
            grads = [np.zeros_like(p) for p in self.actor.params]
            self.actor.backward(grad_actions, grads)
            self.actor.adam(grads)
        return float(np.mean(critic_losses)), float(np.mean(actor_losses))


@pytest.mark.parametrize("pipelined", [False, True], ids=["sequential", "pipelined"])
@pytest.mark.parametrize("use_ensemble_critic", [True, False])
def test_agent_update_matches_loop_reference_bit_for_bit(
    monkeypatch, use_ensemble_critic, pipelined
):
    """One draw per update and the stacked learner give exactly the
    per-batch textbook update: weights, losses and the RNG stream, on both
    learner paths (``repro.core.agent``), with more gradient steps than
    snapshot slots and a first update on fewer rows than a batch."""
    monkeypatch.setattr(agent_module, "pipeline_available", lambda: pipelined)
    config = GlovaConfig(
        seed=0,
        hidden_size=16,
        gradient_steps_per_iteration=6,
        use_ensemble_critic=use_ensemble_critic,
    )
    assert config.gradient_steps_per_iteration > agent_module.SNAPSHOT_SLOTS
    assert (config.effective_ensemble_size(), config.effective_beta1()) == (
        (5, -3.0) if use_ensemble_critic else (1, 0.0)
    )
    agent = RiskSensitiveAgent(4, config, np.random.default_rng(21))
    reference = LoopAgent(4, config, np.random.default_rng(21))
    # A small ring, so it wraps: both sides read the same buffer.
    buffer = agent.buffer = WorstCaseReplayBuffer(capacity=24)
    data = np.random.default_rng(8)
    for _ in range(6):
        buffer.add(data.uniform(size=4), float(data.uniform(-0.8, 0.2)))
    assert len(buffer) < config.batch_size

    with agent.pipelined():
        summary = agent.update()
        assert (summary.critic_loss, summary.actor_loss) == reference.update(buffer)
        assert (agent._helper is not None) == pipelined
        for _ in range(6):
            for _ in range(4):
                buffer.add(data.uniform(size=4), float(data.uniform(-0.8, 0.2)))
            summary = agent.update()
            assert (summary.critic_loss, summary.actor_loss) == reference.update(
                buffer
            )
    assert agent._helper is None
    # The helper has gone; a bare update steps the critic in this process
    # from the state (moments and step count included) the helper left.
    summary = agent.update()
    assert (summary.critic_loss, summary.actor_loss) == reference.update(buffer)
    assert len(buffer) == buffer.capacity

    networks = [(agent.actor.network, [reference.actor])]
    networks.append((agent.critic.network, reference.critics))
    for network, models in networks:
        for member, model in enumerate(models):
            for layer, (weight, bias) in enumerate(zip(model.weights, model.biases)):
                np.testing.assert_array_equal(network.weights[layer][member], weight)
                np.testing.assert_array_equal(network.biases[layer][member, 0], bias)
    assert agent.rng.random() == reference.rng.random()
