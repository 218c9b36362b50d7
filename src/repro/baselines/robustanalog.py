"""RobustAnalog-style baseline [He et al., MLCAD 2022].

RobustAnalog treats every PVT corner as a separate RL task, clusters the
per-corner reward vectors with k-means, and in each iteration only simulates
the *dominant* corner of each cluster (the one with the worst reward), which
reduces the per-iteration cost below a fully corner-exhaustive sweep.  Its
two published weaknesses — random initial sampling (no TuRBO seeding) and a
risk-neutral objective — are what limit its success rate and sample
efficiency in Table II, so both are reproduced here.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.base import BaselineOptimizer
from repro.core.result import OptimizationResult
from repro.core.reward import FEASIBLE_REWARD
from repro.variation.corners import PVTCorner


def kmeans_cluster(
    vectors: np.ndarray, n_clusters: int, rng: np.random.Generator, iterations: int = 25
) -> np.ndarray:
    """Plain k-means returning a cluster label per row of ``vectors``."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    count = vectors.shape[0]
    n_clusters = min(n_clusters, count)
    centers = vectors[rng.choice(count, size=n_clusters, replace=False)]
    labels = np.zeros(count, dtype=int)
    for _ in range(iterations):
        distances = np.linalg.norm(vectors[:, None, :] - centers[None, :, :], axis=2)
        new_labels = np.argmin(distances, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(n_clusters):
            members = vectors[labels == cluster]
            if len(members) > 0:
                centers[cluster] = members.mean(axis=0)
    return labels


class RobustAnalogOptimizer(BaselineOptimizer):
    """Multi-task RL with corner clustering and random initial sampling."""

    method_name = "robustanalog"
    #: k-means clusters over the per-corner reward histories; the worst
    #: corner of each is the one simulated between full sweeps.
    N_CLUSTERS = 4
    #: Iterations between full-corner sweeps that refresh the clustering.
    RECLUSTER_EVERY = 10

    # ------------------------------------------------------------------
    def _random_initial_sampling(self) -> np.ndarray:
        """Uniform random sampling at the typical condition (no TuRBO).

        The whole population is drawn first (the rng call order matches the
        sequential draw-evaluate loop exactly, since evaluation consumes no
        randomness) and evaluated in one design-batched pass.
        """
        best_design = self.circuit.random_sizing(self.rng)
        best_reward = -np.inf
        designs = [
            self.circuit.random_sizing(self.rng)
            for _ in range(self.config.initial_samples)
        ]
        rewards = self.typical_rewards(np.stack(designs))
        for design, reward in zip(designs, rewards):
            reward = float(reward)
            self.agent.observe(design, reward)
            if reward > best_reward:
                best_reward = reward
                best_design = design
        return best_design

    def _recluster(self, reward_matrix: Dict[str, List[float]]) -> None:
        """Cluster corners by their recent reward history; keep the worst of each."""
        corners = list(self.operational.corners)
        histories = []
        for corner in corners:
            history = reward_matrix.get(corner.name, [0.0])
            histories.append(history[-3:] + [history[-1]] * (3 - len(history[-3:])))
        vectors = np.array(histories)
        labels = kmeans_cluster(vectors, self.N_CLUSTERS, self.rng)
        dominant: List[PVTCorner] = []
        for cluster in np.unique(labels):
            members = [c for c, label in zip(corners, labels) if label == cluster]
            worst = min(
                members,
                key=lambda c: reward_matrix.get(c.name, [0.0])[-1],
            )
            dominant.append(worst)
        self._dominant_corners = dominant

    # ------------------------------------------------------------------
    def run(self) -> OptimizationResult:
        best_design = self._random_initial_sampling()
        self.agent.actor.pretrain_towards(
            self.agent.buffer.all_designs(), best_design
        )
        self.agent.update()

        reward_matrix: Dict[str, List[float]] = {
            corner.name: [] for corner in self.operational.corners
        }
        verification_attempts = 0
        last_design = best_design

        for iteration in range(1, self.config.max_iterations + 1):
            design = self.agent.propose(last_design)

            # Periodically refresh the clustering with a full-corner sweep.
            if iteration == 1 or iteration % self.RECLUSTER_EVERY == 0:
                worst_by_corner = self.evaluate_all_corners(design)
                for name, worst in worst_by_corner.items():
                    reward_matrix[name].append(worst)
                self._recluster(reward_matrix)
                worst_reward = min(worst_by_corner.values())
            else:
                worst_reward = np.inf
                for corner in self._dominant_corners:
                    worst = self.evaluate_at_corner(design, corner)
                    reward_matrix[corner.name].append(worst)
                    worst_reward = min(worst_reward, worst)

            if worst_reward >= FEASIBLE_REWARD:
                verification_attempts += 1
                if self.brute_force_verify(design):
                    return self.build_result(
                        iteration, design, verification_attempts
                    )

            self.agent.observe(design, float(worst_reward))
            self.agent.update()
            last_design = design

        return self.build_result(
            self.config.max_iterations, None, verification_attempts
        )
