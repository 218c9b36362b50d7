"""Framework configuration objects.

:class:`VerificationMethod` selects the target verification scenario and
:class:`OperationalConfig` captures the corresponding Table-I row: which
corners are predefined, which mismatch variances are active, and how many
mismatch samples are drawn during optimization (``N'``) versus full
verification (``N`` per corner).

:class:`GlovaConfig` gathers every tunable of the framework — agent
hyper-parameters, risk factors, sampling sizes and the ablation switches
used in Table III — with defaults matching the paper's experimental setup
(Section VI.B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.variation.corners import CornerSet, full_corner_set, vt_corner_set


class VerificationMethod(enum.Enum):
    """Target verification scenario (Table I)."""

    CORNER = "C"
    CORNER_LOCAL_MC = "C-MCL"
    CORNER_GLOBAL_LOCAL_MC = "C-MCG-L"

    @property
    def uses_local_mc(self) -> bool:
        return self is not VerificationMethod.CORNER

    @property
    def uses_global_mc(self) -> bool:
        return self is VerificationMethod.CORNER_GLOBAL_LOCAL_MC


#: Paper defaults: 100 local-MC samples per corner for C-MCL (0.1K x 30
#: corners = 3,000 simulations) and 1,000 global-local samples per VT corner
#: for C-MCG-L (1K x 6 corners = 6,000 simulations).
PAPER_MC_SAMPLES = {
    VerificationMethod.CORNER: 1,
    VerificationMethod.CORNER_LOCAL_MC: 100,
    VerificationMethod.CORNER_GLOBAL_LOCAL_MC: 1000,
}


@dataclass(frozen=True)
class OperationalConfig:
    """One row of Table I: how the framework samples for a chosen method.

    Attributes
    ----------
    method:
        The verification scenario.
    include_global / include_local:
        Which mismatch variances are active when sampling ``h``.
    optimization_samples:
        ``N'`` — mismatch conditions simulated per RL iteration.
    verification_samples:
        ``N`` — mismatch conditions per corner during full verification.
    corners:
        The predefined corner set ``T`` (30 PVT corners, or 6 VT corners for
        the global-local MC scenario where the process axis is statistical).
    verification_chunk:
        Rows per full-MC chunk during the verification pass: the charging
        and job granularity, not the evaluation granularity.  A corner's
        ranked conditions are scanned in h-SCORE order for the first
        infeasible reward, so the pass/fail outcome and the failed corner
        match the one-at-a-time schedule exactly; the budget charges the
        simulated prefix rounded up to the chunk (at most
        ``verification_chunk - 1`` extra simulations past the first
        failure).  ``1`` reproduces the strictly sequential schedule.  On
        a ``vectorized`` engine a corner is one evaluation, scored once,
        whatever the chunk size, and chunks are accounting units only;
        other engines evaluate one call per chunk.

    The simulation service's settings (backend, workers, cache, retry)
    are not part of the row: :class:`GlovaConfig` carries them, and the
    optimizer hands them straight to its
    :class:`~repro.simulation.simulator.CircuitSimulator`.

    The schedule itself is not configurable: the optimizer's seed phase,
    and the verifier's full pass on engines that evaluate chunk by chunk,
    always keep one job in flight through
    :func:`~repro.simulation.service.iter_resolved`, which issues and
    charges the same simulations, in the same order, as a blocking loop.
    """

    method: VerificationMethod
    include_global: bool
    include_local: bool
    optimization_samples: int
    verification_samples: int
    corners: CornerSet
    verification_chunk: int = 8

    @property
    def total_verification_simulations(self) -> int:
        """Simulations needed for one complete full verification pass."""
        return len(self.corners) * self.verification_samples

    def __post_init__(self) -> None:
        if self.optimization_samples < 1:
            raise ValueError("optimization_samples (N') must be >= 1")
        if self.verification_samples < self.optimization_samples:
            raise ValueError("verification_samples (N) must be >= N'")
        if self.verification_chunk < 1:
            raise ValueError("verification_chunk must be >= 1")


def operational_config(
    method: VerificationMethod,
    optimization_samples: int = 3,
    verification_samples: Optional[int] = None,
    verification_chunk: int = 8,
) -> OperationalConfig:
    """Build the Table-I operational configuration for ``method``.

    ``verification_samples`` defaults to the paper's budget for the method
    (1 / 100 / 1000 per corner); benchmarks pass smaller values to keep the
    suite fast.
    """
    if verification_samples is None:
        verification_samples = PAPER_MC_SAMPLES[method]
    if method is VerificationMethod.CORNER:
        return OperationalConfig(
            method=method,
            include_global=False,
            include_local=False,
            optimization_samples=1,
            verification_samples=1,
            corners=full_corner_set(),
            verification_chunk=verification_chunk,
        )
    if method is VerificationMethod.CORNER_LOCAL_MC:
        return OperationalConfig(
            method=method,
            include_global=False,
            include_local=True,
            optimization_samples=optimization_samples,
            verification_samples=verification_samples,
            corners=full_corner_set(),
            verification_chunk=verification_chunk,
        )
    return OperationalConfig(
        method=method,
        include_global=True,
        include_local=True,
        optimization_samples=optimization_samples,
        verification_samples=verification_samples,
        corners=vt_corner_set(),
        verification_chunk=verification_chunk,
    )


@dataclass
class GlovaConfig:
    """Every tunable of the GLOVA framework.

    The defaults follow Section VI.B of the paper: batch size 10, risk
    parameters ``beta1 = -3`` and ``beta2 = 4``, N' = 3 mismatch samples in
    parallel during optimization, and TuRBO-seeded initial sampling.
    """

    verification: VerificationMethod = VerificationMethod.CORNER
    # --- sampling -----------------------------------------------------
    optimization_samples: int = 3
    verification_samples: Optional[int] = None
    # Full-MC verification chunk: simulations issued per batched evaluation
    # during pass 2 of Algorithm 2 (1 = strictly sequential schedule).
    verification_chunk: int = 8
    # Process count for sharding jobs (1 = in-process; the vectorized
    # batched engine never shards).
    workers: int = 1
    # Simulation backend name ("batched" engine or the "scalar" reference
    # path) and job-hash result caching (a hit charges zero budget).
    backend: str = "batched"
    cache_simulations: bool = False
    # Cross-process cache directory (implies cache_simulations): results
    # spill to a job-hash-keyed on-disk store and repeated runs replay
    # from it with zero backend invocations and zero budget charged.
    cache_dir: Optional[str] = None
    # Fault-tolerance retry policy for the simulation service (a
    # RetryPolicy or its dict form; None = fail fast, the legacy mode).
    # Only the attempt that succeeds is charged, so the paper's
    # "# Simulation" counts stay identical to a fault-free run.
    retry: Optional[Any] = None
    # --- risk parameters ----------------------------------------------
    risk_beta1: float = -3.0
    reliability_beta2: float = 4.0
    # Store a risk-adjusted reward (the worse of the sampled worst case and
    # the mu + beta2*sigma estimate, Eq. 1 applied at the sample level) so
    # the agent sees a dense robustness signal even when individual mismatch
    # samples rarely fail.
    risk_adjusted_reward: bool = True
    # --- agent --------------------------------------------------------
    ensemble_size: int = 5
    batch_size: int = 10
    hidden_size: int = 64
    actor_learning_rate: float = 1e-3
    critic_learning_rate: float = 2e-3
    gradient_steps_per_iteration: int = 25
    exploration_noise: float = 0.08
    noise_decay: float = 0.995
    # --- initial sampling (TuRBO) ---------------------------------------
    initial_samples: int = 60
    initial_feasible_target: int = 2
    seed_designs: int = 2
    # --- loop control ---------------------------------------------------
    max_iterations: int = 300
    seed: Optional[int] = None
    # --- ablation switches (Table III) ----------------------------------
    use_ensemble_critic: bool = True
    use_mu_sigma: bool = True
    use_reordering: bool = True
    # --- runtime model ---------------------------------------------------
    cost_per_simulation: float = 1.0
    optimization_parallelism: int = 3
    verification_parallelism: int = 30

    def __post_init__(self) -> None:
        # The agent sizes its networks and batches from these, TuRBO
        # needs a first sample, the loop an iteration and the service a
        # worker; a zero would otherwise surface only after the run has
        # started.
        for name in (
            "ensemble_size",
            "batch_size",
            "hidden_size",
            "gradient_steps_per_iteration",
            "initial_samples",
            "max_iterations",
            "workers",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def operational(self) -> OperationalConfig:
        """The Table-I row implied by this configuration."""
        return operational_config(
            self.verification,
            optimization_samples=self.optimization_samples,
            verification_samples=self.verification_samples,
            verification_chunk=self.verification_chunk,
        )

    def effective_ensemble_size(self) -> int:
        """Ensemble size after applying the Table-III ablation switch."""
        return self.ensemble_size if self.use_ensemble_critic else 1

    def effective_beta1(self) -> float:
        """Risk parameter after applying the ablation switch (0 = neutral)."""
        return self.risk_beta1 if self.use_ensemble_critic else 0.0

    def with_overrides(self, **kwargs) -> "GlovaConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)
