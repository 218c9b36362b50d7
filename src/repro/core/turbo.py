"""TuRBO-style trust-region initial sampling (Section III.C).

GLOVA adopts PVTSizing's initialisation: before any RL step, a trust-region
Bayesian optimizer searches for design solutions that satisfy the
constraints at the *typical* condition.  This module implements a compact
TuRBO-1 [Eriksson et al., NeurIPS 2019]:

* a hyper-rectangular trust region centred on the incumbent best design,
* a GP surrogate fitted to the points evaluated so far,
* Thompson sampling over candidate points restricted to the trust region,
* the classic expansion/shrinkage rule on consecutive successes/failures.

The objective maximised is the consolidated reward at the typical corner, so
"success" means finding designs with reward 0.2 (all constraints met).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.gp import GaussianProcess
from repro.core.reward import FEASIBLE_REWARD, is_feasible_reward


@dataclass
class TurboResult:
    """Outcome of the initial-sampling phase."""

    designs: np.ndarray
    rewards: np.ndarray
    feasible_designs: List[np.ndarray] = field(default_factory=list)
    evaluations: int = 0

    @property
    def best_design(self) -> np.ndarray:
        return self.designs[int(np.argmax(self.rewards))]

    @property
    def best_reward(self) -> float:
        return float(np.max(self.rewards))

    @property
    def found_feasible(self) -> bool:
        return len(self.feasible_designs) > 0


class TurboSampler:
    """Trust-region Bayesian optimisation over the unit hyper-cube."""

    def __init__(
        self,
        dimension: int,
        rng: Optional[np.random.Generator] = None,
        initial_points: int = 10,
        batch_size: int = 3,
        candidates_per_batch: int = 300,
        length_init: float = 0.6,
        length_min: float = 0.03,
        length_max: float = 1.2,
        success_tolerance: int = 2,
        failure_tolerance: int = 4,
    ):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self.rng = rng if rng is not None else np.random.default_rng()
        self.initial_points = max(initial_points, 2)
        self.batch_size = batch_size
        self.candidates_per_batch = candidates_per_batch
        self.length = length_init
        self.length_min = length_min
        self.length_max = length_max
        self.success_tolerance = success_tolerance
        self.failure_tolerance = failure_tolerance
        self._successes = 0
        self._failures = 0
        self._inputs: List[np.ndarray] = []
        self._values: List[float] = []

    # ------------------------------------------------------------------
    @property
    def observations(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.array(self._inputs), np.array(self._values)

    def _incumbent(self) -> Tuple[np.ndarray, float]:
        index = int(np.argmax(self._values))
        return self._inputs[index], self._values[index]

    def ask_initial(self) -> np.ndarray:
        """Space-filling initial design (scrambled stratified sampling)."""
        points = np.empty((self.initial_points, self.dimension))
        for column in range(self.dimension):
            strata = (np.arange(self.initial_points) + self.rng.uniform(
                0.0, 1.0, self.initial_points
            )) / self.initial_points
            points[:, column] = self.rng.permutation(strata)
        return points

    def ask(self) -> np.ndarray:
        """Next batch of candidate designs inside the trust region."""
        if len(self._inputs) < 2:
            return self.rng.uniform(0.0, 1.0, size=(self.batch_size, self.dimension))
        center, _ = self._incumbent()
        half = self.length / 2.0
        lower = np.clip(center - half, 0.0, 1.0)
        upper = np.clip(center + half, 0.0, 1.0)
        candidates = self.rng.uniform(
            lower, upper, size=(self.candidates_per_batch, self.dimension)
        )
        # Perturb only a subset of coordinates for high-dimensional spaces,
        # as in the TuRBO paper.
        probability = min(1.0, 20.0 / self.dimension)
        mask = self.rng.uniform(size=candidates.shape) <= probability
        mask[np.all(~mask, axis=1), self.rng.integers(self.dimension)] = True
        candidates = np.where(mask, candidates, center)

        gp = GaussianProcess()
        gp.fit(*self.observations)
        samples = gp.sample_posterior(candidates, self.rng)
        order = np.argsort(-samples)
        return candidates[order[: self.batch_size]]

    def tell(self, designs: np.ndarray, rewards: np.ndarray) -> None:
        """Record evaluations and update the trust-region size."""
        designs = np.atleast_2d(designs)
        rewards = np.atleast_1d(rewards)
        previous_best = max(self._values) if self._values else -np.inf
        for design, reward in zip(designs, rewards):
            self._inputs.append(np.array(design, dtype=float))
            self._values.append(float(reward))
        if np.max(rewards) > previous_best + 1e-4:
            self._successes += 1
            self._failures = 0
        else:
            self._failures += 1
            self._successes = 0
        if self._successes >= self.success_tolerance:
            self.length = min(self.length * 2.0, self.length_max)
            self._successes = 0
        if self._failures >= self.failure_tolerance:
            self.length = max(self.length / 2.0, self.length_min)
            self._failures = 0

    # ------------------------------------------------------------------
    def run(
        self,
        objective: Callable[[np.ndarray], np.ndarray],
        max_evaluations: int,
        feasible_target: int = 1,
    ) -> TurboResult:
        """Drive the sampler against ``objective`` (reward at typical).

        ``objective`` maps an ``(M, p)`` design matrix to ``(M,)`` rewards
        in one call, so every proposal batch (and the space-filling
        initial design) is one vectorized evaluation.  Stops when
        ``feasible_target`` feasible designs have been found or the
        evaluation budget is exhausted.
        """

        def evaluate(batch_designs: np.ndarray) -> np.ndarray:
            rewards = np.asarray(objective(batch_designs), dtype=float)
            if rewards.shape != (len(batch_designs),):
                raise ValueError(
                    f"objective must map {len(batch_designs)} designs to "
                    f"{len(batch_designs)} rewards, got shape {rewards.shape}"
                )
            return rewards

        feasible: List[np.ndarray] = []
        evaluations = 0

        initial = self.ask_initial()
        initial = initial[: max(0, max_evaluations - evaluations)]
        if len(initial):
            rewards = evaluate(initial)
            for design, reward in zip(initial, rewards):
                evaluations += 1
                self.tell(design[None, :], np.array([reward]))
                if is_feasible_reward(reward):
                    feasible.append(design.copy())
        while evaluations < max_evaluations and len(feasible) < feasible_target:
            batch = self.ask()
            batch = batch[: max_evaluations - evaluations]
            if not len(batch):
                break
            rewards = evaluate(batch)
            evaluations += len(batch)
            for design, reward in zip(batch, rewards):
                if is_feasible_reward(reward):
                    feasible.append(design.copy())
            self.tell(batch, rewards)

        designs, values = self.observations
        return TurboResult(
            designs=designs,
            rewards=values,
            feasible_designs=feasible,
            evaluations=evaluations,
        )
