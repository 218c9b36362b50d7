"""Shared scaffolding for baseline optimizers.

All baselines share the same evaluation substrate (circuit, corners,
mismatch sampling, budget accounting) and the same *brute-force*
verification: when a candidate looks feasible, every corner is simulated
with the full per-corner Monte-Carlo budget, in order, with no mu-sigma
screen and no reordering (verification stops at the first failing sample —
being generous to the baselines — but without GLOVA's prioritisation the
failing sample tends to come late).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.optimizer import SizingOptimizer
from repro.core.reward import rewards_from_matrix
from repro.simulation.budget import SimulationPhase
from repro.variation.corners import PVTCorner


class BaselineOptimizer(SizingOptimizer):
    """Common machinery: corner evaluation and brute-force verification."""

    #: Label used in result objects and tables.
    method_name: str = "baseline"
    #: A risk-neutral single critic (no ensemble bound, beta1 = 0), and
    #: verification without GLOVA's verification-phase contributions.
    config_overrides = {
        "use_ensemble_critic": False,
        "use_mu_sigma": False,
        "use_reordering": False,
    }

    # ------------------------------------------------------------------
    def _worst_of_block(self, corner: PVTCorner, block) -> float:
        """Worst reward of one corner's metrics block; updates the
        worst-case buffer."""
        rewards = rewards_from_matrix(
            self.spec, self.simulator.metrics_matrix(block, self.spec.metric_names)
        )
        worst = float(rewards.min())
        self.last_worst.update(corner, worst)
        return worst

    def evaluate_at_corner(
        self,
        design: np.ndarray,
        corner: PVTCorner,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> float:
        """Simulate a design at one corner with N' mismatch samples; return
        the worst reward."""
        x_physical = self.circuit.denormalize(design)
        mismatch_set = self.mismatch_sampler.sample(
            x_physical, self.operational.optimization_samples
        )
        block = self.simulator.simulate_mismatch_set(
            design, corner, mismatch_set, phase=phase
        )
        return self._worst_of_block(corner, block)

    def evaluate_all_corners(
        self,
        design: np.ndarray,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> Dict[str, float]:
        """Simulate a design at every predefined corner; return worst rewards.

        The corners × mismatch-sets sweep runs as one mega-batch through
        :meth:`CircuitSimulator.simulate_corner_sweep`; the mismatch sets
        are drawn corner-by-corner first, so the seeded stream matches the
        sequential per-corner schedule exactly.
        """
        corners = list(self.operational.corners)
        x_physical = self.circuit.denormalize(design)
        mismatch_sets = [
            self.mismatch_sampler.sample(
                x_physical, self.operational.optimization_samples
            )
            for _ in corners
        ]
        per_corner = self.simulator.simulate_corner_sweep(
            design, corners, mismatch_sets, phase=phase
        )
        return {
            corner.name: self._worst_of_block(corner, block)
            for corner, block in zip(corners, per_corner)
        }

    def brute_force_verify(self, design: np.ndarray) -> bool:
        """Full verification without mu-sigma screening or reordering."""
        outcome = self.verifier.verify(design, self.last_worst)
        return outcome.passed
