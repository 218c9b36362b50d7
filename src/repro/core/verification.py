"""Hierarchical verification (Algorithm 2 of the paper).

Verification proceeds in two passes over the corner set:

1. **Screening pass** — corners are visited worst-first (ordered by the
   last-worst-case buffer); for each corner ``N'`` mismatch conditions are
   sampled and simulated, the mu-sigma screen (Eq. 7) is applied, and —
   if it passes — the corner's t-SCORE and Pearson correlation vector are
   computed.  Any mu-sigma failure aborts verification immediately.

2. **Full pass** — corners are re-ordered by t-SCORE (most dangerous
   first); for each corner the remaining ``N - N'`` mismatch conditions are
   sampled, ranked by h-SCORE, and simulated in that order.  The first
   simulation whose reward is not the feasible 0.2 aborts verification.

   The full pass scans each corner's ranked conditions with
   :meth:`~repro.simulation.service.SimulationService.scan`, one call per
   corner, in **chunks** of ``OperationalConfig.verification_chunk``
   (default 8) rows.  The pass/fail outcome, the failed corner, the
   failure stage and the worst reward are identical to the one-at-a-time
   schedule; the only difference is the budget, which charges the
   simulated prefix *rounded up to the chunk* — at most
   ``verification_chunk - 1`` simulations past the first failure
   (``VerificationResult.simulations`` reports exactly what was charged).
   A chunk of 1 reproduces the sequential schedule, budget included.

   A chunk is an accounting unit: each is charged, keyed and cached as
   its own job, so outcomes, budgets and cache contents do not depend on
   the engine.  On a ``vectorized`` engine that is not ``row_parallel``
   (``batched``) a corner's full pass is one evaluation of its whole
   ranked remainder, scored once; the chunk-rounded prefix through the
   first infeasible row is then charged in bulk.  Every other engine
   resolves chunk by chunk, **double-buffered** through the futures path
   (:func:`~repro.simulation.service.iter_resolved`): while chunk *k*
   evaluates in flight, chunk *k+1* is already submitted, so a
   pool-backed engine never idles between chunks, and an abort cancels
   the speculative chunk before it is ever charged.  The overlap stays
   *within* one corner (the next corner's mismatch set is sampled only
   after the current corner fully passes, so the seeded stream is the
   one-at-a-time stream).  Pass/fail, failed corner, failure stage, worst
   reward, budget totals and RNG streams are bit-for-bit those of the
   same loop run at lookahead 0 (one chunk submitted and resolved at a
   time), which the tests use as the sequential reference.

If both passes complete, the design is verified for the chosen scenario.
The worst-corner subset simulated during the optimization phase can be
passed in and is reused rather than re-simulated (Section V.A notes this
reuse explicitly).

The two Table-III ablation switches live here as well:

* ``use_mu_sigma=False`` removes the Eq.-7 screen — every corner proceeds
  to full MC (failures are only caught by individual failing samples);
* ``use_reordering=False`` keeps the corner order from the last-worst-case
  buffer and simulates mismatch conditions in their sampled order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import OperationalConfig
from repro.core.mu_sigma import MuSigmaEvaluator, MuSigmaResult
from repro.core.reordering import h_scores, order_by_scores, pearson_correlation, t_score
from repro.core.replay import LastWorstCaseBuffer
from repro.core.reward import FEASIBLE_REWARD, rewards_from_matrix
from repro.core.spec import DesignSpec
from repro.simulation.budget import SimulationPhase
from repro.simulation.service import SimJob
from repro.simulation.simulator import CircuitSimulator, SimulationRecord
from repro.variation.corners import PVTCorner
from repro.variation.mismatch import MismatchSampler, MismatchSet


@dataclass
class CornerScreenResult:
    """Per-corner outcome of the screening pass."""

    corner: PVTCorner
    mu_sigma: MuSigmaResult
    t_score: float
    correlation: np.ndarray
    records: List[SimulationRecord]
    mismatch_set: MismatchSet


@dataclass
class VerificationResult:
    """Outcome of one verification attempt for a candidate design."""

    passed: bool
    simulations: int
    failed_corner: Optional[str] = None
    failure_stage: Optional[str] = None  # "mu_sigma" or "full_mc"
    worst_reward: float = FEASIBLE_REWARD
    corner_reports: List[CornerScreenResult] = field(default_factory=list)


class Verifier:
    """Runs Algorithm 2 for a candidate design."""

    def __init__(
        self,
        simulator: CircuitSimulator,
        spec: DesignSpec,
        operational: OperationalConfig,
        beta2: float = 4.0,
        use_mu_sigma: bool = True,
        use_reordering: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        self.simulator = simulator
        self.spec = spec
        self.operational = operational
        self.evaluator = MuSigmaEvaluator(spec, beta2=beta2)
        self.use_mu_sigma = use_mu_sigma
        self.use_reordering = use_reordering
        self.rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------
    def _sampler(self) -> MismatchSampler:
        return MismatchSampler(
            self.simulator.circuit.mismatch_model,
            include_global=self.operational.include_global,
            include_local=self.operational.include_local,
            rng=self.rng,
        )

    # ------------------------------------------------------------------
    def verify(
        self,
        design: np.ndarray,
        last_worst: LastWorstCaseBuffer,
        reusable_records: Optional[Dict[str, List[SimulationRecord]]] = None,
        reusable_mismatch: Optional[Dict[str, MismatchSet]] = None,
    ) -> VerificationResult:
        """Run Algorithm 2 for ``design``.

        Parameters
        ----------
        design:
            Normalised sizing vector to verify.
        last_worst:
            The last-worst-case corner buffer (supplies the initial order).
        reusable_records / reusable_mismatch:
            Optimization-phase simulations for specific corners (keyed by
            corner name), typically the worst corner's ``N'`` subset, which
            Algorithm 2 reuses instead of re-simulating.
        """
        reusable_records = reusable_records or {}
        reusable_mismatch = reusable_mismatch or {}
        sampler = self._sampler()
        x_physical = self.simulator.circuit.denormalize(design)
        simulations_before = self.simulator.budget.total

        # ----- pass 1: screening (mu-sigma + correlation) ---------------
        screen_order = last_worst.sorted_corners()
        screen_results: List[CornerScreenResult] = []
        worst_reward = FEASIBLE_REWARD

        for corner in screen_order:
            if corner.name in reusable_records:
                records = reusable_records[corner.name]
                mismatch_set = reusable_mismatch.get(
                    corner.name,
                    MismatchSet(
                        np.stack(
                            [
                                r.mismatch
                                if r.mismatch is not None
                                else sampler.model.zero()
                                for r in records
                            ]
                        ),
                        sampler.model.zero(),
                    ),
                )
            else:
                mismatch_set = sampler.sample(
                    x_physical, self.operational.optimization_samples
                )
                records = self.simulator.simulate_mismatch_set(
                    design, corner, mismatch_set, phase=SimulationPhase.VERIFICATION
                )

            # One matrix pass covers rewards and the Pearson performance
            # sums — no per-record Python loops on the MC hot path.
            metric_matrix = self.simulator.metrics_matrix(
                records, self.spec.metric_names
            )
            rewards = rewards_from_matrix(self.spec, metric_matrix)
            worst_reward = min(worst_reward, float(rewards.min()))
            mu_sigma = self.evaluator.evaluate([r.metrics for r in records])

            screen_failed = (
                not mu_sigma.passed
                if self.use_mu_sigma
                else bool(np.any(rewards < FEASIBLE_REWARD))
            )
            if screen_failed:
                return VerificationResult(
                    passed=False,
                    simulations=self.simulator.budget.total - simulations_before,
                    failed_corner=corner.name,
                    failure_stage="mu_sigma" if self.use_mu_sigma else "screen",
                    worst_reward=worst_reward,
                    corner_reports=screen_results,
                )

            performance = self.spec.normalized_matrix(metric_matrix).sum(axis=1)
            correlation = pearson_correlation(mismatch_set.samples, performance)
            screen_results.append(
                CornerScreenResult(
                    corner=corner,
                    mu_sigma=mu_sigma,
                    t_score=t_score(self.spec, mu_sigma),
                    correlation=correlation,
                    records=records,
                    mismatch_set=mismatch_set,
                )
            )

        # ----- pass 2: full verification with reordering ------------------
        remaining = (
            self.operational.verification_samples
            - self.operational.optimization_samples
        )
        if remaining > 0:
            if self.use_reordering:
                ordered = sorted(screen_results, key=lambda s: s.t_score, reverse=True)
            else:
                ordered = list(screen_results)

            names = self.spec.metric_names

            def first_infeasible(metrics):
                """Score one block in rank order; its first infeasible row."""
                nonlocal worst_reward
                rewards = rewards_from_matrix(
                    self.spec,
                    np.column_stack(
                        [np.asarray(metrics[name], dtype=float) for name in names]
                    ),
                )
                failing = np.flatnonzero(rewards < FEASIBLE_REWARD)
                if not failing.size:
                    worst_reward = min(worst_reward, float(rewards.min()))
                    return None
                # Only the prefix up to the aborting sample counts towards
                # the worst reward, exactly as if the block had been
                # simulated one condition at a time.
                first = int(failing[0])
                worst_reward = min(worst_reward, float(rewards[: first + 1].min()))
                return first

            for screen in ordered:
                extra_set = sampler.sample(
                    x_physical,
                    remaining,
                    global_shift=screen.mismatch_set.global_shift
                    if self.operational.include_global
                    else None,
                )
                if self.use_reordering:
                    scores = h_scores(extra_set.samples, screen.correlation)
                    order = order_by_scores(scores, descending=True)
                else:
                    order = np.arange(len(extra_set))

                # The h-SCORE-ranked remainder is scanned for its first
                # infeasible reward, charged in chunks of
                # ``verification_chunk`` through the aborting one, so the
                # abort decision matches the sequential schedule.
                ranked = SimJob.conditions(
                    self.simulator.circuit.name,
                    design,
                    (screen.corner,),
                    extra_set.subset(order).samples,
                    SimulationPhase.VERIFICATION,
                )
                _, failed = self.simulator.service.scan(
                    ranked, self.operational.verification_chunk, first_infeasible
                )
                if failed is not None:
                    return VerificationResult(
                        passed=False,
                        simulations=self.simulator.budget.total
                        - simulations_before,
                        failed_corner=screen.corner.name,
                        failure_stage="full_mc",
                        worst_reward=worst_reward,
                        corner_reports=screen_results,
                    )

        return VerificationResult(
            passed=True,
            simulations=self.simulator.budget.total - simulations_before,
            worst_reward=worst_reward,
            corner_reports=screen_results,
        )
