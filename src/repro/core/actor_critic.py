"""Actor network and ensemble-based critic (Section IV of the paper).

The **actor** maps the previous normalised design vector to the next one
(4-layer MLP with a sigmoid output so designs stay inside the unit box).

The **ensemble critic** holds several independently initialised base models,
each a 4-layer MLP mapping a design to a predicted worst-case reward.  Its
aggregate output is the risk-sensitive bound of Eq. (6)::

    Q(x) = E[Q_i(x)] + beta1 * sigma[Q_i(x)]      (beta1 < 0: risk-avoiding)

Each base model is trained on its *own* batch drawn from the worst-case
replay buffer, so ensemble spread reflects epistemic uncertainty from the
limited number of sampled variations.  The base models are the members of
one :class:`~repro.core.nn.StackedMLP`, so the ensemble trains and
predicts in one pass; the actor is the same network with one member.
The caller draws the batches (:meth:`EnsembleCritic.train` takes them
stacked), so one update's batches can come from one draw.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.nn import StackedMLP
from repro.core.reward import FEASIBLE_REWARD


class Actor:
    """Policy network: previous design in, next design out (both in [0,1]^p)."""

    def __init__(
        self,
        design_dimension: int,
        hidden_size: int = 64,
        learning_rate: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ):
        self.design_dimension = design_dimension
        self.network = StackedMLP(
            1,
            [design_dimension, hidden_size, hidden_size, design_dimension],
            output_activation="sigmoid",
            learning_rate=learning_rate,
            rng=rng,
        )

    def act(self, design: np.ndarray) -> np.ndarray:
        """Deterministic policy output for a single design vector."""
        return self.network.forward(design.reshape(1, -1), cache=False)[0, 0]

    def propose(
        self,
        design: np.ndarray,
        noise_scale: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Policy output plus exploration noise, clipped to the unit box."""
        base = self.act(design)
        noisy = base + rng.normal(0.0, noise_scale, size=base.shape)
        return np.clip(noisy, 0.0, 1.0)

    def forward_batch(self, designs: np.ndarray) -> np.ndarray:
        """Cached forward pass used during the policy-gradient step."""
        return self.network.forward(designs, cache=True)[0]

    def apply_gradient(self, grad_output: np.ndarray) -> None:
        """Backprop ``dLoss/dAction`` through the actor and take an Adam step."""
        self.network.zero_grad()
        self.network.backward(grad_output)
        self.network.step()

    def pretrain_towards(
        self,
        inputs: np.ndarray,
        target_design: np.ndarray,
        steps: int = 200,
    ) -> float:
        """Behaviour-clone the policy towards a known good design.

        GLOVA seeds its replay buffer with TuRBO solutions that already meet
        the constraints at the typical condition; cloning the actor onto the
        best of them makes the first RL proposals start from that region
        instead of from an arbitrary random policy, which is what keeps the
        framework's RL-iteration counts small.  Returns the final MSE.
        """
        inputs = np.atleast_2d(inputs)
        target = np.tile(np.asarray(target_design, dtype=float), (inputs.shape[0], 1))
        loss = float("inf")
        for _ in range(steps):
            loss = float(self.network.fit_step(inputs, target)[0])
        return loss


class EnsembleCritic:
    """The risk-sensitive reliability-bound estimator of Eq. (6)."""

    def __init__(
        self,
        design_dimension: int,
        ensemble_size: int = 5,
        beta1: float = -3.0,
        hidden_size: int = 64,
        learning_rate: float = 2e-3,
        rng: Optional[np.random.Generator] = None,
    ):
        self.design_dimension = design_dimension
        self.beta1 = float(beta1)
        self.network = StackedMLP(
            ensemble_size,
            [design_dimension, hidden_size, hidden_size, 1],
            output_activation="linear",
            learning_rate=learning_rate,
            rng=rng,
        )

    @property
    def ensemble_size(self) -> int:
        return self.network.members

    # ------------------------------------------------------------------
    def base_predictions(self, designs: np.ndarray) -> np.ndarray:
        """Predictions of every base model: shape ``(ensemble, batch)``."""
        return self.network.forward(np.atleast_2d(designs), cache=False)[:, :, 0]

    def predict(self, designs: np.ndarray) -> np.ndarray:
        """Risk-sensitive bound ``E[Q_i] + beta1 * sigma[Q_i]`` per design."""
        predictions = self.base_predictions(designs)
        mean = predictions.mean(axis=0)
        if self.ensemble_size == 1:
            return mean
        std = predictions.std(axis=0)
        return mean + self.beta1 * std

    def predict_components(self, designs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and standard deviation (used by Fig.-3 analysis)."""
        predictions = self.base_predictions(designs)
        return predictions.mean(axis=0), predictions.std(axis=0)

    # ------------------------------------------------------------------
    def train(self, designs: np.ndarray, rewards: np.ndarray) -> float:
        """One step of every base model on its own batch; returns the mean loss.

        ``designs`` is ``(ensemble, batch, p)`` and ``rewards`` is
        ``(ensemble, batch, 1)``: member ``i`` regresses onto batch ``i``.
        """
        return float(np.mean(self.network.fit_step(designs, rewards)))

    # ------------------------------------------------------------------
    def bound_gradient(self, designs: np.ndarray) -> np.ndarray:
        """Gradient of the risk-sensitive bound w.r.t. the input designs.

        Used by the actor update: the chain rule needs
        ``d(E[Q_i] + beta1*sigma[Q_i]) / dx``.  The sigma term's gradient is
        ``beta1 * sum_i (Q_i - mean) * dQ_i/dx / (ensemble * sigma)``.
        """
        return self._bound_and_gradient(designs)[1]

    def _bound_and_gradient(
        self, designs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`predict` and :meth:`bound_gradient` from one cached forward."""
        designs = np.atleast_2d(designs)
        ensemble = self.ensemble_size
        predictions = self.network.forward(designs, cache=True)[:, :, 0]
        base_grads = self.network.input_gradient(np.ones((designs.shape[0], 1)))
        # np.mean's and np.std's own operations, written out once so the
        # mean and the deviations from it also serve the gradient weights.
        bound = mean = predictions.sum(axis=0) / ensemble
        weights = np.full(predictions.shape, 1.0 / ensemble)
        if ensemble > 1:
            deviations = predictions - mean
            std = np.sqrt(np.square(deviations).sum(axis=0) / ensemble)
            bound = mean + self.beta1 * std
            if self.beta1 != 0.0:
                safe_std = np.where(std > 1e-12, std, np.inf)
                weights = weights + self.beta1 * (deviations / (ensemble * safe_std))
        # Sum from zero in member order, as a per-model loop would.
        gradient = np.add.reduce(base_grads * weights[:, :, None], axis=0, initial=0.0)
        return bound, gradient

    def actor_loss_gradient(
        self, actions: np.ndarray, target: float = FEASIBLE_REWARD
    ) -> Tuple[float, np.ndarray]:
        """Loss ``MSE(target, Q(actions))`` and its gradient w.r.t. actions."""
        actions = np.atleast_2d(actions)
        bound, dbound_daction = self._bound_and_gradient(actions)
        error = bound - target
        loss = float(np.mean(error**2))
        dloss_dbound = 2.0 * error / actions.shape[0]
        return loss, dbound_daction * dloss_dbound[:, None]
