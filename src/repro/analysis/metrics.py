"""Aggregation of optimization runs into Table-II / Table-III quantities.

The paper reports, per (circuit, verification scenario, method):

* **RL Iteration** — mean RL iterations over the successful runs;
* **# Simulation** — mean total SPICE-equivalent simulations over the
  successful runs ("In tests where the success rate is below 100 %, only
  data from successful optimizations are included");
* **Norm. Runtime** — modelled runtime normalized to GLOVA's;
* **Success Rate** — fraction of runs that produced a verified design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.core.result import OptimizationResult


@dataclass
class MethodSummary:
    """Aggregated statistics for one method under one scenario."""

    method: str
    circuit: str
    scenario: str
    runs: int
    successes: int
    mean_iterations: float
    mean_simulations: float
    mean_runtime: float
    normalized_runtime: float = float("nan")

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    def as_row(self) -> Dict[str, float]:
        return {
            "method": self.method,
            "rl_iterations": self.mean_iterations,
            "simulations": self.mean_simulations,
            "normalized_runtime": self.normalized_runtime,
            "success_rate": self.success_rate,
        }


def aggregate_results(
    method: str,
    scenario: str,
    results: Sequence[OptimizationResult],
) -> MethodSummary:
    """Aggregate repeated runs of one method into a summary.

    Following the paper's footnote, iteration/simulation/runtime averages use
    only the successful runs; if no run succeeded, all runs are used so the
    cost of failure is still visible.
    """
    if not results:
        raise ValueError("aggregate_results needs at least one run")
    successes = [r for r in results if r.success]
    basis = successes if successes else list(results)
    return MethodSummary(
        method=method,
        circuit=results[0].circuit,
        scenario=scenario,
        runs=len(results),
        successes=len(successes),
        mean_iterations=float(np.mean([r.iterations for r in basis])),
        mean_simulations=float(np.mean([r.total_simulations for r in basis])),
        mean_runtime=float(np.mean([r.runtime for r in basis])),
    )


def normalize_runtimes(
    summaries: Sequence[MethodSummary], reference_method: str = "glova"
) -> List[MethodSummary]:
    """Fill ``normalized_runtime`` relative to the reference method's runtime."""
    summaries = list(summaries)
    reference = next(
        (s for s in summaries if s.method == reference_method), None
    )
    if reference is None or reference.mean_runtime <= 0:
        reference_runtime = min(s.mean_runtime for s in summaries)
    else:
        reference_runtime = reference.mean_runtime
    for summary in summaries:
        summary.normalized_runtime = (
            summary.mean_runtime / reference_runtime if reference_runtime else float("nan")
        )
    return summaries


def straggler_idle_fraction(
    row_seconds: Sequence[float], workers: int, wall_seconds: float
) -> float:
    """Fraction of worker capacity spent idle during a sharded dispatch.

    ``row_seconds`` is the per-row wall clock the pool workers measured
    for one sharded dispatch (:attr:`~repro.simulation.sharding
    .ShardHandle.row_seconds`); ``wall_seconds`` the dispatch's
    end-to-end duration.  Perfect load balance gives 0.0; one straggler
    pinning the whole pool while the other ``workers - 1`` drain drives
    this toward ``(workers - 1) / workers``.  Non-finite row entries
    (rows that never ran, e.g. a watchdog-degraded shard's) are ignored.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if wall_seconds <= 0:
        return float("nan")
    rows = np.asarray(row_seconds, dtype=float)
    busy = float(np.sum(rows[np.isfinite(rows)]))
    capacity = workers * wall_seconds
    return float(max(0.0, 1.0 - busy / capacity))


def sample_efficiency_gain(
    summaries: Sequence[MethodSummary], reference_method: str = "glova"
) -> Dict[str, float]:
    """Simulation-count ratio of every method versus the reference."""
    reference = next(s for s in summaries if s.method == reference_method)
    gains = {}
    for summary in summaries:
        if summary.method == reference_method:
            continue
        gains[summary.method] = (
            summary.mean_simulations / reference.mean_simulations
            if reference.mean_simulations
            else float("nan")
        )
    return gains
