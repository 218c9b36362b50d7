"""Risk-sensitive RL agent (Algorithm 1 of the paper).

The agent owns the actor, the ensemble critic and the worst-case replay
buffer.  Each optimization iteration (driven by the
:class:`~repro.core.optimizer.GlovaOptimizer`) calls

1. :meth:`propose` — run the actor on the previous design and add
   exploration noise, producing the next design to simulate;
2. :meth:`observe` — store the worst-case reward of the simulated design;
3. :meth:`update`  — several gradient steps: every critic base model
   regresses onto worst-case rewards from its own batch, then the actor is
   pushed toward designs whose risk-sensitive bound reaches the feasible
   reward of 0.2 (the paper's actor loss ``MSE(0.2, Q(A(x)))``) on one
   more batch.  All of an update's batches come from one draw before the
   first step: the buffer does not change during the update, and the
   draw makes the indices and leaves the RNG exactly as one ``sample``
   call per batch, in step order, would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.actor_critic import Actor, EnsembleCritic
from repro.core.config import GlovaConfig
from repro.core.replay import WorstCaseReplayBuffer
from repro.core.reward import FEASIBLE_REWARD


@dataclass
class AgentUpdateSummary:
    """Diagnostics from one :meth:`RiskSensitiveAgent.update` call."""

    critic_loss: float
    actor_loss: float
    gradient_steps: int


class RiskSensitiveAgent:
    """DDPG-style actor/ensemble-critic agent trained on worst-case rewards."""

    def __init__(
        self,
        design_dimension: int,
        config: GlovaConfig,
        rng: Optional[np.random.Generator] = None,
    ):
        self.design_dimension = design_dimension
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.actor = Actor(
            design_dimension,
            hidden_size=config.hidden_size,
            learning_rate=config.actor_learning_rate,
            rng=self.rng,
        )
        self.critic = EnsembleCritic(
            design_dimension,
            ensemble_size=config.effective_ensemble_size(),
            beta1=config.effective_beta1(),
            hidden_size=config.hidden_size,
            learning_rate=config.critic_learning_rate,
            rng=self.rng,
        )
        self.buffer = WorstCaseReplayBuffer()
        self._noise_scale = config.exploration_noise

    # ------------------------------------------------------------------
    @property
    def exploration_noise(self) -> float:
        return self._noise_scale

    #: Exploration noise never decays below this floor, so the agent keeps
    #: probing the neighbourhood of its incumbent even late in a run.
    NOISE_FLOOR = 0.03

    def propose(self, last_design: np.ndarray) -> np.ndarray:
        """Next design = actor(last design) + exploration noise (Alg. 1)."""
        proposal = self.actor.propose(last_design, self._noise_scale, self.rng)
        self._noise_scale = max(
            self._noise_scale * self.config.noise_decay, self.NOISE_FLOOR
        )
        return proposal

    def observe(self, design: np.ndarray, worst_reward: float) -> None:
        """Store a worst-case experience in the replay buffer."""
        self.buffer.add(design, worst_reward)

    # ------------------------------------------------------------------
    def update(self) -> AgentUpdateSummary:
        """Train critic and actor from the replay buffer.

        Each step trains the K critic members on batches ``0..K-1`` of
        the step, then takes one policy-gradient step, minimising
        ``MSE(0.2, Q(A(x)))``, on batch ``K``.
        """
        if len(self.buffer) == 0:
            raise RuntimeError("cannot update the agent with an empty buffer")
        steps = self.config.gradient_steps_per_iteration
        members = self.critic.ensemble_size
        batch_size = min(self.config.batch_size, len(self.buffer))
        designs, rewards = self.buffer.sample_batches(
            steps * (members + 1), batch_size, self.rng
        )
        designs = designs.reshape(steps, members + 1, batch_size, -1)
        rewards = rewards.reshape(steps, members + 1, batch_size, 1)

        critic_losses: List[float] = []
        actor_losses: List[float] = []
        for step_designs, step_rewards in zip(designs, rewards):
            critic_losses.append(
                self.critic.train(step_designs[:members], step_rewards[:members])
            )
            actions = self.actor.forward_batch(step_designs[members])
            loss, grad_actions = self.critic.actor_loss_gradient(
                actions, target=FEASIBLE_REWARD
            )
            self.actor.apply_gradient(grad_actions)
            actor_losses.append(loss)
        return AgentUpdateSummary(
            critic_loss=float(np.mean(critic_losses)),
            actor_loss=float(np.mean(actor_losses)),
            gradient_steps=steps,
        )

    # ------------------------------------------------------------------
    def predicted_bound(self, design: np.ndarray) -> float:
        """Risk-sensitive reliability bound for a single design."""
        return float(self.critic.predict(design.reshape(1, -1))[0])

    def best_buffered_design(self) -> np.ndarray:
        """The design with the best stored worst-case reward."""
        return self.buffer.best().design
