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
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple


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


class TenantBudgetLedger:
    """Per-tenant :class:`SimulationBudget` map for server-side admission.

    The rate-limiting primitive of the multi-tenant experiment front end
    (:mod:`repro.simulation.frontend`): a tenant gets its own
    :class:`SimulationBudget` at its first charge, and the front end
    consults :meth:`admits` before accepting a run, which compares the
    tenant's total (0 before any charge) against ``quota`` and books
    nothing, so a refused tenant leaves no entry.  Charges land *after*
    a run completes — the daemon knows the real simulation counts then,
    split by phase exactly like the paper's accounting — and are booked
    in full even when they overshoot the quota: refusing them cannot
    un-simulate anything, so the overshoot blocks the *next* admission
    instead.

    Charges are idempotent per ``(tenant, run_id)`` so journal replay
    after a daemon crash can recharge every completed run without double
    counting.  All methods are thread-safe: connection handler threads
    admit while run-executor threads charge.
    """

    #: ``RunReport.simulations`` keys mapped onto budget phases.
    _PHASE_KEYS = (
        ("initial_sampling", SimulationPhase.INITIAL_SAMPLING),
        ("optimization", SimulationPhase.OPTIMIZATION),
        ("verification", SimulationPhase.VERIFICATION),
    )

    def __init__(self, quota: Optional[int] = None):
        self.quota = None if quota is None else int(quota)
        self._lock = threading.Lock()
        self._budgets: Dict[str, SimulationBudget] = {}
        self._charged: Set[Tuple[str, str]] = set()

    def budget_for(self, tenant: str) -> SimulationBudget:
        """The tenant's budget, created on first sight."""
        tenant = str(tenant)
        with self._lock:
            budget = self._budgets.get(tenant)
            if budget is None:
                budget = SimulationBudget()
                self._budgets[tenant] = budget
            return budget

    def admits(self, tenant: str) -> bool:
        """Whether the tenant has quota left for another run."""
        remaining = self.remaining(tenant)
        return remaining is None or remaining > 0

    def remaining(self, tenant: str) -> Optional[int]:
        """Simulations left before the tenant's quota (``None`` = unlimited).

        Reads without booking: a tenant nothing was charged to has the
        whole quota and gets no entry.
        """
        if self.quota is None:
            return None
        with self._lock:
            budget = self._budgets.get(str(tenant))
            spent = 0 if budget is None else budget.total
            return max(0, self.quota - spent)

    def charge_run(
        self, tenant: str, run_id: str, simulations: Dict[str, int]
    ) -> bool:
        """Book one completed run's phase-split counts against the tenant.

        Idempotent per ``(tenant, run_id)``: the first charge counts,
        replays are no-ops.  Returns True when the charge was counted.
        """
        tenant = str(tenant)
        budget = self.budget_for(tenant)
        with self._lock:
            key = (tenant, str(run_id))
            if key in self._charged:
                return False
            self._charged.add(key)
            for field_name, phase in self._PHASE_KEYS:
                count = int(simulations.get(field_name, 0) or 0)
                if count:
                    budget.charge(phase, count)
            return True

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant phase counts (operators and tests read this)."""
        with self._lock:
            return {
                tenant: budget.snapshot()
                for tenant, budget in sorted(self._budgets.items())
            }
