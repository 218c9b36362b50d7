"""PVTSizing-style baseline [Kong et al., DAC 2024].

PVTSizing combines TuRBO-based initial sampling with a batch-sampling RL
agent, but — unlike GLOVA — it evaluates the candidate design at **every**
predefined PVT corner in every iteration and is risk-neutral (a single
critic trained on mean rewards).  Verification is brute force: whenever the
candidate meets the constraints at every corner sample, the full per-corner
Monte-Carlo budget is run without screening or reordering.

The corner-exhaustive evaluation is what makes its per-iteration simulation
cost ``k x N'`` instead of GLOVA's ``N'``, which is the sample-efficiency
gap Table II quantifies.
"""

from __future__ import annotations

from repro.baselines.base import BaselineOptimizer
from repro.core.result import OptimizationResult
from repro.core.reward import FEASIBLE_REWARD


class PVTSizingOptimizer(BaselineOptimizer):
    """TuRBO-seeded, corner-exhaustive, risk-neutral RL baseline."""

    method_name = "pvtsizing"

    # ------------------------------------------------------------------
    def run(self) -> OptimizationResult:
        with self.agent.pipelined():
            best_design = self.turbo_seed()
            self.agent.actor.pretrain_towards(
                self.agent.buffer.all_designs(), best_design
            )
            self.agent.update()

            verification_attempts = 0
            last_design = best_design

            for iteration in range(1, self.config.max_iterations + 1):
                design = self.agent.propose(last_design)

                # Corner-exhaustive evaluation: every corner, every iteration.
                worst_by_corner = self.evaluate_all_corners(design)
                worst_reward = min(worst_by_corner.values())

                if worst_reward >= FEASIBLE_REWARD:
                    verification_attempts += 1
                    if self.brute_force_verify(design):
                        return self.build_result(
                            iteration, design, verification_attempts
                        )

                self.agent.observe(design, worst_reward)
                self.agent.update()
                last_design = design

            return self.build_result(
                self.config.max_iterations, None, verification_attempts
            )
