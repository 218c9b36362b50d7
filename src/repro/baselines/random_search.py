"""Uniform random search: the sanity-floor baseline.

Not part of the paper's Table II, but useful for tests and for sanity
checking the reward landscape: any learned method should need far fewer
simulations than random search to find a verifiable design.
"""

from __future__ import annotations

from repro.baselines.base import BaselineOptimizer
from repro.core.result import OptimizationResult
from repro.core.reward import FEASIBLE_REWARD


class RandomSearchOptimizer(BaselineOptimizer):
    """Sample designs uniformly; verify any that look feasible at all corners."""

    method_name = "random_search"
    learns = False

    def run(self) -> OptimizationResult:
        verification_attempts = 0
        for iteration in range(1, self.config.max_iterations + 1):
            design = self.circuit.random_sizing(self.rng)
            worst_by_corner = self.evaluate_all_corners(design)
            worst_reward = min(worst_by_corner.values())
            if worst_reward >= FEASIBLE_REWARD:
                verification_attempts += 1
                if self.brute_force_verify(design):
                    return self.build_result(
                        iteration, design, verification_attempts
                    )
        return self.build_result(
            self.config.max_iterations, None, verification_attempts
        )
