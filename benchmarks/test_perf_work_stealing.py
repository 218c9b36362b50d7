"""Perf benchmark: the work-stealing shard scheduler on skewed row costs.

Measured and recorded to ``benchmarks/results/BENCH_work_stealing.json``:
a **heavy-head batch** on a paced ``row_parallel`` backend whose first
:data:`HEAVY_ROWS` rows cost :data:`HEAVY_FACTOR`× the rest (the
slow-corner block at the head of a sweep).  One slice per worker would
hand the whole heavy region to one worker and idle the other three
behind it; the stealing scheduler's oversubscribed equal-size chunks
drain the queue.  Asserted: the measured idle fraction at ``workers=4``
stays below :data:`MAX_IDLE_FRACTION`.

**Bit-identity is asserted before any timing**: stealing at
``workers=4`` and ``workers=1`` produce identical metric blocks and
identical resolve-in-order budget trajectories — the scheduler may only
change wall-clock, never results or accounting.

The paced backends model the paper's regime (an external simulator whose
per-row wall-clock dominates): the analytic engine itself evaluates in
microseconds, which would make a schedule comparison measure IPC noise.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np
import pytest

from harness import write_bench_json
from repro.analysis import straggler_idle_fraction
from repro.circuits import StrongArmLatch
from repro.simulation import (
    BACKENDS,
    BatchedBackend,
    SimJob,
    SimulationService,
)
from repro.variation.corners import typical_corner

REPEATS = 3
WORKERS = 4
BATCH_ROWS = 32

#: Modelled base cost per row (seconds).  Large enough that per-chunk
#: IPC (~1 ms) is noise against the schedule difference, small enough to
#: keep the benchmark under a minute.
ROW_COST_SECONDS = 0.004

#: Heavy-head profile: the first HEAVY_ROWS rows cost HEAVY_FACTOR x.
HEAVY_ROWS = 8
HEAVY_FACTOR = 5

#: Rows are marked heavy in their *data* (shards never see their batch
#: offset): a mismatch draw beyond this threshold.
SENTINEL = 4.0

#: Acceptance ceiling: pool idle fraction on the heavy-head batch (one
#: slice per worker idles ~0.6 of it; stealing measures 0.06-0.12).
MAX_IDLE_FRACTION = 0.30


class PacedCostBackend(BatchedBackend):
    """The batched engine plus a modelled per-row cost read off the data.

    ``row_parallel = True`` mirrors real external engines (one subprocess
    per row): the stealing planner chunks down to single rows.  Rows
    whose first mismatch draw exceeds :data:`SENTINEL` are heavy; the
    multiplier is encoded in the sentinel value itself
    (``SENTINEL + factor``).  Metrics are bit-identical to ``batched``.
    """

    name = "paced_cost"
    row_parallel = True

    def evaluate(self, circuit, job):
        metrics = super().evaluate(circuit, job)
        time.sleep(ROW_COST_SECONDS * float(_row_costs(job).sum()))
        return metrics


def _row_costs(job) -> np.ndarray:
    """Per-row cost multipliers encoded in the job's mismatch block."""
    if job.mismatch is None:
        return np.ones(job.batch)
    marks = np.asarray(job.mismatch[:, 0])
    costs = np.ones(job.batch)
    heavy = marks > SENTINEL
    costs[heavy] = marks[heavy] - SENTINEL
    return costs


# Registered at import time: forked pool workers inherit the registration.
BACKENDS[PacedCostBackend.name] = PacedCostBackend

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(
        multiprocessing.get_start_method(allow_none=False) != "fork",
        reason="pool workers must inherit the paced-backend registration",
    ),
]


def _marked_job(circuit, factors: np.ndarray, seed=0) -> SimJob:
    """A conditions job whose rows carry the given cost multipliers."""
    rng = np.random.default_rng(seed)
    rows = len(factors)
    mismatch = np.clip(
        rng.standard_normal((rows, circuit.mismatch_dimension)), -3.0, 3.0
    )
    for index, factor in enumerate(factors):
        if factor > 1:
            mismatch[index, 0] = SENTINEL + factor
    return SimJob.conditions(
        circuit.name,
        rng.uniform(0.2, 0.8, circuit.dimension),
        (typical_corner(),),
        mismatch,
    )


def _heavy_head_factors() -> np.ndarray:
    factors = np.ones(BATCH_ROWS)
    factors[:HEAVY_ROWS] = HEAVY_FACTOR
    return factors


def _service(circuit, workers=WORKERS) -> SimulationService:
    service = SimulationService(
        circuit, workers=workers, backend=PacedCostBackend()
    )
    # Warm-up dispatch so worker spin-up never counts against a timing.
    service.run(_marked_job(circuit, np.ones(WORKERS * 2), seed=99))
    return service


def _timed_run(service, job):
    """Dispatch ``job`` on the service's pool and wait for it; returns the
    shard handle (its ``row_seconds`` are the workers' timings) and the
    wall clock."""
    start = time.perf_counter()
    handle = service.backend.dispatch(service.circuit, job)
    handle.result()
    return handle, time.perf_counter() - start


def _assert_bit_identity(circuit, job) -> dict:
    """Identical metrics and budget trajectories at workers=1 and N."""
    blocks = {}
    trajectories = {}
    for label, workers in (("sequential", 1), ("stealing", WORKERS)):
        with SimulationService(
            circuit, workers=workers, backend=PacedCostBackend()
        ) as service:
            futures = [
                service.submit(job.shard(0, job.batch)),  # fresh equal job
                service.submit(_marked_job(circuit, np.ones(8), seed=5)),
            ]
            totals = []
            for future in futures:
                blocks.setdefault(label, future.result().metrics)
                totals.append(service.budget.total)
            trajectories[label] = totals
    for name in circuit.metric_names:
        np.testing.assert_array_equal(
            blocks["stealing"][name], blocks["sequential"][name]
        )
    assert trajectories["stealing"] == trajectories["sequential"]
    return {
        "budget_trajectory": trajectories["stealing"],
        "metrics_bit_identical": True,
    }


def _heavy_head_block(circuit) -> dict:
    job_factors = _heavy_head_factors()
    best = float("inf")
    idle = None
    with _service(circuit) as service:
        for repeat in range(REPEATS):
            job = _marked_job(circuit, job_factors, seed=repeat)
            handle, wall = _timed_run(service, job)
            if wall < best:
                best = wall
                idle = straggler_idle_fraction(
                    handle.row_seconds, WORKERS, wall
                )
    return {
        "workers": WORKERS,
        "batch_rows": BATCH_ROWS,
        "heavy_rows": HEAVY_ROWS,
        "heavy_factor": HEAVY_FACTOR,
        "stealing_seconds": best,
        "stealing_idle_fraction": idle,
    }


@pytest.mark.perf
def test_work_stealing_speedup_and_equivalence():
    circuit = StrongArmLatch()

    identity = _assert_bit_identity(
        circuit, _marked_job(circuit, _heavy_head_factors(), seed=0)
    )
    heavy_head = _heavy_head_block(circuit)

    report = {
        "description": (
            "Work-stealing shard scheduler on a paced row-parallel "
            "backend modelling per-row external-simulator cost at "
            "workers=4: pool idle fraction on a heavy-head batch (first "
            "8 of 32 rows 5x cost) cut into equal-size chunks.  Metrics "
            "and resolve-in-order budget trajectories are asserted "
            "bit-identical to workers=1 before any timing."
        ),
        "row_cost_seconds": ROW_COST_SECONDS,
        "bit_identity": identity,
        "heavy_head": heavy_head,
    }
    path = write_bench_json("work_stealing", report)
    print(f"\nwork-stealing benchmark -> {path}")
    print(
        f"  heavy head: {heavy_head['stealing_seconds']*1e3:.0f} ms, idle "
        f"{heavy_head['stealing_idle_fraction']:.2f}"
    )

    assert heavy_head["stealing_idle_fraction"] < MAX_IDLE_FRACTION, report
