"""Simulation counting and runtime modelling.

The paper reports three cost columns per experiment: RL iterations, number
of simulations, and normalized runtime.  :class:`SimulationBudget` tracks
the simulation count split by phase and converts it into a modelled wall
clock using a per-simulation cost and a parallelism factor (the paper runs
3 simulations in parallel during optimization and "maximum available
resources" during verification).

One rule fills the "# Simulation" column: a job counts once, when it
produced metrics.  The budget only adds up what it is told;
:class:`~repro.simulation.service.SimulationService` applies the rule and
is the one place a job is charged (see
:meth:`~repro.simulation.service.SimulationService.run`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class SimulationPhase(enum.Enum):
    """Which phase of the framework requested a simulation."""

    INITIAL_SAMPLING = "initial_sampling"
    OPTIMIZATION = "optimization"
    VERIFICATION = "verification"


@dataclass
class SimulationBudget:
    """Accumulates simulation counts and modelled runtime.

    Attributes
    ----------
    cost_per_simulation:
        Modelled wall-clock seconds for a single SPICE-equivalent run.
    optimization_parallelism:
        Simulations executed concurrently during initial sampling and
        optimization (the paper uses 3).
    verification_parallelism:
        Concurrency during full verification ("maximum available
        resources"; 30 mirrors one license per corner).
    """

    cost_per_simulation: float = 1.0
    optimization_parallelism: int = 3
    verification_parallelism: int = 30
    counts: Dict[SimulationPhase, int] = field(
        default_factory=lambda: {phase: 0 for phase in SimulationPhase}
    )

    def charge(self, phase: SimulationPhase, count: int = 1) -> None:
        """Account for ``count`` simulations issued by ``phase``.

        The service charges on the thread that resolves the job, so the
        budget needs no lock.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self.counts[phase] = self.counts.get(phase, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def optimization_simulations(self) -> int:
        return (
            self.counts.get(SimulationPhase.INITIAL_SAMPLING, 0)
            + self.counts.get(SimulationPhase.OPTIMIZATION, 0)
        )

    @property
    def verification_simulations(self) -> int:
        return self.counts.get(SimulationPhase.VERIFICATION, 0)

    def modelled_runtime(self) -> float:
        """Wall-clock model: serial batches at each phase's parallelism."""
        optimization_batches = _ceil_div(
            self.optimization_simulations, max(self.optimization_parallelism, 1)
        )
        verification_batches = _ceil_div(
            self.verification_simulations, max(self.verification_parallelism, 1)
        )
        return self.cost_per_simulation * (optimization_batches + verification_batches)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict view used by result objects and reports."""
        return {
            "initial_sampling": self.counts.get(SimulationPhase.INITIAL_SAMPLING, 0),
            "optimization": self.counts.get(SimulationPhase.OPTIMIZATION, 0),
            "verification": self.counts.get(SimulationPhase.VERIFICATION, 0),
            "total": self.total,
        }

    def reset(self) -> None:
        for phase in SimulationPhase:
            self.counts[phase] = 0


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)
