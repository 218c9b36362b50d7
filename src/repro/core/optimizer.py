"""The GLOVA optimization + verification workflow (Fig. 2 of the paper).

One :class:`GlovaOptimizer` run executes:

1. **Initial sampling** — TuRBO searches for designs meeting the constraints
   at the typical condition (adopted from PVTSizing).
2. **Seeding** — the best initial designs are simulated across all
   predefined corners (with ``N'`` mismatch samples when the scenario uses
   MC) and their worst-case rewards fill the replay buffer and the
   last-worst-case corner buffer; the actor is behaviour-cloned onto the
   best seed so the first proposals start near it.
3. **Optimization loop** (Algorithm 1) — each RL iteration proposes a
   design, simulates it under ``N'`` sampled mismatch conditions at the
   current worst corner, stores the worst reward and updates the agent.
4. **Verification** (Algorithm 2) — whenever the worst-corner mu-sigma
   screen passes, the full hierarchical verification runs; success
   terminates the framework.

:class:`SizingOptimizer` is the scaffold this workflow shares with the
Table-II baselines (:mod:`repro.baselines`): one constructor for the
simulator, verifier, buffers and agent, the typical-condition rewards, the
TuRBO seed step and result building.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.core.agent import RiskSensitiveAgent
from repro.core.config import GlovaConfig
from repro.core.replay import LastWorstCaseBuffer
from repro.core.result import IterationRecord, OptimizationResult
from repro.core.reward import (
    FEASIBLE_REWARD,
    reward_from_metrics,
    rewards_from_matrix,
)
from repro.core.spec import DesignSpec
from repro.core.turbo import TurboSampler
from repro.core.verification import Verifier
from repro.simulation.budget import SimulationBudget, SimulationPhase
from repro.simulation.service import iter_resolved
from repro.simulation.simulator import CircuitSimulator
from repro.variation.mismatch import MismatchSampler


class SizingOptimizer(abc.ABC):
    """The run scaffold GLOVA and the Table-II baselines share.

    One constructor builds, from a :class:`GlovaConfig`, everything a
    sizing run evaluates against: the RNG, the Table-I row
    (``operational``), the spec, the budget, the
    :class:`~repro.simulation.simulator.CircuitSimulator` (configured
    from the config's service fields: backend, workers, cache, retry),
    the last-worst-case corner buffer, the mismatch sampler, the
    verifier and, for an algorithm that learns, the agent.  Each
    algorithm supplies its own :meth:`run` from the shared steps below.
    """

    #: Prefix of the result label (``pvtsizing/C-MCL``); empty for GLOVA,
    #: whose results carry the bare method (``C-MCL``).
    method_name: str = ""
    #: :class:`GlovaConfig` fields the algorithm pins, whatever the caller
    #: configured (a baseline's risk-neutral critic and brute-force
    #: verifier).
    config_overrides: Mapping[str, Any] = {}
    #: Whether the algorithm trains a :class:`RiskSensitiveAgent`
    #: (``agent`` is ``None`` otherwise).
    learns: bool = True

    def __init__(
        self,
        circuit: AnalogCircuit,
        config: Optional[GlovaConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        config = config if config is not None else GlovaConfig()
        self.circuit = circuit
        self.config = config.with_overrides(**self.config_overrides)
        self.rng = (
            rng if rng is not None else np.random.default_rng(self.config.seed)
        )
        self.operational = self.config.operational()
        self.spec = DesignSpec.from_circuit(circuit)
        self.budget = SimulationBudget(
            cost_per_simulation=self.config.cost_per_simulation,
            optimization_parallelism=self.config.optimization_parallelism,
            verification_parallelism=self.config.verification_parallelism,
        )
        self.simulator = CircuitSimulator(
            circuit,
            self.budget,
            workers=self.config.workers,
            backend=self.config.backend,
            cache=self.config.cache_simulations,
            cache_dir=self.config.cache_dir,
            retry=self.config.retry,
        )
        self.agent = (
            RiskSensitiveAgent(circuit.dimension, self.config, self.rng)
            if self.learns
            else None
        )
        self.last_worst = LastWorstCaseBuffer(self.operational.corners)
        self.mismatch_sampler = MismatchSampler(
            circuit.mismatch_model,
            include_global=self.operational.include_global,
            include_local=self.operational.include_local,
            rng=self.rng,
        )
        self.verifier = Verifier(
            self.simulator,
            self.spec,
            self.operational,
            beta2=self.config.reliability_beta2,
            use_mu_sigma=self.config.use_mu_sigma,
            use_reordering=self.config.use_reordering,
            rng=self.rng,
        )

    @abc.abstractmethod
    def run(self) -> OptimizationResult:
        """Execute the algorithm and return the run's result."""

    # ------------------------------------------------------------------
    def typical_rewards(self, designs: np.ndarray) -> np.ndarray:
        """Rewards of an ``(M, p)`` design batch at the typical condition,
        in one design-axis job."""
        block = self.simulator.simulate_designs(designs)
        return rewards_from_matrix(
            self.spec, self.simulator.metrics_matrix(block, self.spec.metric_names)
        )

    def turbo_seed(self) -> np.ndarray:
        """TuRBO initial sampling at the typical condition; returns the best
        design.

        Every TuRBO evaluation is information about the reward landscape,
        so each one goes into the agent's replay buffer and the critic
        starts from a useful prior.  Worst-case corrections arrive from
        the RL iterations themselves.
        """
        sampler = TurboSampler(
            self.circuit.dimension,
            rng=self.rng,
            batch_size=self.config.optimization_parallelism,
        )
        result = sampler.run(
            self.typical_rewards,
            max_evaluations=self.config.initial_samples,
            feasible_target=self.config.initial_feasible_target,
        )
        for design, reward in zip(result.designs, result.rewards):
            self.agent.observe(design, reward)
        return result.best_design

    def build_result(
        self,
        iterations: int,
        final_design: Optional[np.ndarray],
        verification_attempts: int,
        history: Optional[List[IterationRecord]] = None,
    ) -> OptimizationResult:
        """The run's result; it succeeded exactly when it returns the
        verified ``final_design``."""
        label = self.operational.method.value
        if self.method_name:
            label = f"{self.method_name}/{label}"
        final_metrics: Optional[Dict[str, float]] = None
        final_physical: Optional[np.ndarray] = None
        if final_design is not None:
            final_physical = self.circuit.denormalize(final_design)
            final_metrics = self.circuit.evaluate(final_design)
        return OptimizationResult(
            success=final_design is not None,
            iterations=iterations,
            simulations=self.budget.snapshot(),
            runtime=self.budget.modelled_runtime(),
            final_design=final_design,
            final_design_physical=final_physical,
            final_metrics=final_metrics,
            verification_attempts=verification_attempts,
            history=history if history is not None else [],
            method=label,
            circuit=self.circuit.name,
        )


class GlovaOptimizer(SizingOptimizer):
    """Variation-aware sizing with risk-sensitive RL (the paper's framework)."""

    # ------------------------------------------------------------------
    # Phase 2: seeding (phase 1 is the shared :meth:`turbo_seed`)
    # ------------------------------------------------------------------
    def _seed_buffers(self, designs: List[np.ndarray]) -> None:
        """Simulate seeds across all corners and fill the worst-case buffers.

        The corners × mismatch-sets sweep for each seed design runs as one
        mega-batch (:meth:`CircuitSimulator.submit_corner_sweep`): the
        mismatch sets are still drawn corner-by-corner — the seeded stream
        is identical to a per-corner schedule — but the simulator sees a
        single ``(|corners| × N',)`` evaluation per seed.

        The per-seed mega-batches are **overlapped** through
        :func:`~repro.simulation.service.iter_resolved`: seed *i+1*'s
        mismatch sets are sampled and its sweep submitted while seed *i* is
        still in flight, then results are resolved — and the buffers
        filled — strictly in seed order.  Sampling still happens in seed
        order (simulation consumes no randomness) and budget charges land
        at resolution, in seed order, so streams and accounting are
        bit-identical to the same loop at lookahead 0, one seed at a time;
        an abort (budget exhaustion) cancels the speculative sweep before
        it is charged.
        """
        corners = list(self.operational.corners)
        names = self.spec.metric_names
        use_mc = self.operational.include_local or self.operational.include_global

        def submit_sweep(design: np.ndarray):
            """Sample (in seed order) and submit one seed's sweep; ``None``
            for an empty corner set (a no-op seed)."""
            if not corners:
                return None
            if use_mc:
                x_physical = self.circuit.denormalize(design)
                mismatch_sets = [
                    self.mismatch_sampler.sample(
                        x_physical, self.operational.optimization_samples
                    )
                    for _ in corners
                ]
                return self.simulator.submit_corner_sweep(
                    design,
                    corners,
                    mismatch_sets,
                    phase=SimulationPhase.INITIAL_SAMPLING,
                )
            return self.simulator.submit_corners(
                design,
                self.operational.corners,
                None,
                phase=SimulationPhase.INITIAL_SAMPLING,
            )

        for design, resolved in iter_resolved(designs, submit_sweep):
            if resolved is None:
                per_corner = []
            elif use_mc:
                per_corner = [
                    self.simulator.metrics_matrix(block, names) for block in resolved
                ]
            else:  # one row per corner
                matrix = self.simulator.metrics_matrix(resolved, names)
                per_corner = [matrix[row : row + 1] for row in range(len(matrix))]
            worst_reward = FEASIBLE_REWARD
            for corner, matrix in zip(corners, per_corner):
                corner_worst = float(rewards_from_matrix(self.spec, matrix).min())
                self.last_worst.update(corner, corner_worst)
                worst_reward = min(worst_reward, corner_worst)
                if self.config.risk_adjusted_reward and len(matrix) >= 2:
                    screen = self.verifier.evaluator.evaluate(matrix)
                    estimate_reward = reward_from_metrics(
                        self.spec, screen.estimates
                    )
                    worst_reward = min(worst_reward, estimate_reward)
            self.agent.observe(design, worst_reward)

    # ------------------------------------------------------------------
    # Phase 3-4: the optimization / verification loop
    # ------------------------------------------------------------------
    def run(self) -> OptimizationResult:
        """Execute the full workflow and return the run's result."""
        best_design = self.turbo_seed()
        seeds = [best_design]
        if self.config.seed_designs > 1:
            designs = self.agent.buffer.all_designs()
            rewards = self.agent.buffer.all_rewards()
            order = np.argsort(-rewards)
            for index in order[1 : self.config.seed_designs]:
                seeds.append(designs[index])
        self._seed_buffers(seeds)
        self.agent.actor.pretrain_towards(
            self.agent.buffer.all_designs(), best_design
        )
        self.agent.update()

        history: List[IterationRecord] = []
        verification_attempts = 0
        last_design = best_design

        for iteration in range(1, self.config.max_iterations + 1):
            design = self.agent.propose(last_design)
            worst_corner = self.last_worst.worst_corner()
            x_physical = self.circuit.denormalize(design)

            mismatch_set = self.mismatch_sampler.sample(
                x_physical,
                self.operational.optimization_samples,
                independent_globals=True,
            )
            block = self.simulator.simulate_mismatch_set(
                design, worst_corner, mismatch_set, phase=SimulationPhase.OPTIMIZATION
            )
            matrix = self.simulator.metrics_matrix(block, self.spec.metric_names)
            rewards = rewards_from_matrix(self.spec, matrix)
            worst_reward = float(rewards.min())
            self.last_worst.update(worst_corner, worst_reward)

            # --- step 4: mu-sigma decision on whether to verify ----------
            screen = self.verifier.evaluator.evaluate(matrix)
            if self.config.use_mu_sigma:
                should_verify = screen.passed
            else:
                should_verify = bool(np.all(rewards >= FEASIBLE_REWARD))

            # Risk-adjusted stored reward: penalise designs whose sampled
            # metric distribution leaves less than beta2-sigma of headroom,
            # even if no individual sample failed outright (Eq. 1 applied at
            # the sample level; disabled by the `risk_adjusted_reward` flag).
            stored_reward = worst_reward
            if self.config.risk_adjusted_reward and len(matrix) >= 2:
                estimate_reward = reward_from_metrics(self.spec, screen.estimates)
                stored_reward = min(worst_reward, estimate_reward)

            verification_passed = False
            if should_verify:
                verification_attempts += 1
                outcome = self.verifier.verify(
                    design,
                    self.last_worst,
                    reusable={worst_corner.name: (matrix, mismatch_set)},
                )
                verification_passed = outcome.passed
                worst_reward = min(worst_reward, outcome.worst_reward)
                stored_reward = min(stored_reward, outcome.worst_reward)
                if outcome.failed_corner is not None:
                    failed_corner = next(
                        corner
                        for corner in self.operational.corners
                        if corner.name == outcome.failed_corner
                    )
                    self.last_worst.update(failed_corner, outcome.worst_reward)

            predicted_mean, predicted_std = self.agent.critic.predict_components(
                design.reshape(1, -1)
            )
            history.append(
                IterationRecord(
                    iteration=iteration,
                    design=design.copy(),
                    worst_reward=worst_reward,
                    predicted_bound=self.agent.predicted_bound(design),
                    predicted_mean=float(predicted_mean[0]),
                    predicted_std=float(predicted_std[0]),
                    corner_name=worst_corner.name,
                    attempted_verification=should_verify,
                    verification_passed=verification_passed,
                )
            )

            if verification_passed:
                return self.build_result(
                    iteration, design, verification_attempts, history
                )

            # --- step 6: store the worst reward and update the agent -----
            self.agent.observe(design, stored_reward)
            summary = self.agent.update()
            history[-1].critic_loss = summary.critic_loss
            history[-1].actor_loss = summary.actor_loss
            last_design = design

        return self.build_result(
            self.config.max_iterations, None, verification_attempts, history
        )
