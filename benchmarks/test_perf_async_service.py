"""Perf benchmark: the async pipelined simulation service.

Three claims are measured and recorded to
``benchmarks/results/BENCH_async_service.json``:

1. **Warm vs cold pool** — time to the *first* sharded result on a
   :class:`WorkerPool` constructed eagerly with the warm initializer
   (workers pre-spawned, backend modules pre-imported, registry circuit
   pre-built, BLAS pinned) against a cold pool that spawns and builds
   lazily on that first job — the PR-4 behaviour.

2. **Double-buffered vs sequential verification** — one full Algorithm-2
   verification pass over a verified design, at ``workers=4``: the
   verifier's own schedule (``iter_resolved`` at lookahead 1) against the
   same loop patched to lookahead 0 (:func:`lookahead_zero`).  With double
   buffering the verifier has chunk *k+1* in flight while it scans chunk
   *k*, so the per-chunk control-loop latency (records, rewards, dispatch)
   is hidden behind simulation.

3. **End-to-end sizing pass** — the full seed → optimize → verify
   evaluation workflow, futures-driven (pipelined seed mega-batches +
   double-buffered verification) against the synchronous PR-4 schedule,
   both at ``workers=4``, asserting **bit-identical** rewards, outcomes
   and budget accounting before timing anything, and a ``>= 1.3x``
   wall-clock speedup.

The terminal backend for (2) and (3) is ``paced`` — the analytic batched
engine plus a constant *modelled* per-row simulator cost
(:data:`ROW_COST_SECONDS`), mirroring how the budget models SPICE wall
clock: the analytic engine evaluates in microseconds, which would make any
schedule comparison measure pure IPC noise, while the paper's regime —
the control loop waiting on a real simulator — is exactly where pipelining
pays.  The paced backend returns bit-identical metrics to ``batched``.
Raw (unpaced) end-to-end numbers are recorded alongside for reference,
unasserted.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import time
from unittest import mock

import numpy as np
import pytest

from harness import write_bench_json
from repro.circuits import StrongArmLatch
from repro.core.config import VerificationMethod, operational_config
from repro.core.replay import LastWorstCaseBuffer
from repro.core.reward import rewards_from_matrix
from repro.core.spec import DesignSpec
from repro.core.verification import Verifier
from repro.simulation import (
    BACKENDS,
    BatchedBackend,
    CircuitSimulator,
    ReferenceScalarBackend,
    SimJob,
    SimulationBudget,
    SimulationPhase,
    WorkerPool,
)
from repro.simulation import service as service_module
from repro.simulation.service import iter_resolved
from repro.simulation.sharding import dispatch_job_sharded
from repro.variation.corners import typical_corner
from repro.variation.mismatch import MismatchSampler

REPEATS = 3
WORKERS = 4

#: Modelled per-row simulator cost for the paced backend (seconds).  Small
#: enough to keep the benchmark quick, large enough that per-chunk
#: control-loop latency is a realistic fraction of simulation time.
ROW_COST_SECONDS = 0.003

#: Acceptance floors.
MIN_END_TO_END_SPEEDUP = 1.3
MIN_WARM_POOL_SPEEDUP = 1.0

#: Verification budget: 30 corners x (3 screening + 21 extras) = 720 sims.
VERIFICATION_SAMPLES = 24
OPTIMIZATION_ITERATIONS = 10
SEED_DESIGNS = 2
DESIGN_BATCHES = 3


class PacedBackend(BatchedBackend):
    """The batched engine plus a modelled constant per-row SPICE cost.

    Models the PR-4 external-simulator regime: every row costs real wall
    clock, rows in one process run serially.  Metrics are bit-identical to
    ``batched``.  The cost grows with the row count, so the backend is not
    ``vectorized`` and its jobs shard like the external engine's.
    """

    name = "paced"
    vectorized = False

    def evaluate(self, circuit, job):
        metrics = super().evaluate(circuit, job)
        time.sleep(ROW_COST_SECONDS * job.batch)
        return metrics


class PacedRowsBackend(PacedBackend):
    """The paced engine with this PR's per-row fan-out declared.

    ``row_parallel = True`` is exactly what :class:`NgspiceBackend` sets
    for real (one-subprocess-per-row) engines: the sharded dispatcher fans
    any multi-row job down to one row per worker instead of sleeping
    through the rows serially in one process.  Same metrics, same budget —
    only the schedule differs.
    """

    name = "paced_rows"
    row_parallel = True


# Registered at import time: forked pool workers inherit the registration,
# so shards resolve the paced backends by name like any terminal backend.
BACKENDS[PacedBackend.name] = PacedBackend
BACKENDS[PacedRowsBackend.name] = PacedRowsBackend

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(
        multiprocessing.get_start_method(allow_none=False) != "fork",
        reason="pool workers must inherit the paced-backend registration",
    ),
]


def _best_of(callable_, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# 1. warm vs cold pool
# ----------------------------------------------------------------------
def _first_job_latency(warm: bool) -> float:
    circuit = StrongArmLatch()
    backend = ReferenceScalarBackend()  # shards; batched never does
    rng = np.random.default_rng(0)
    job = SimJob.conditions(
        circuit.name,
        rng.uniform(0.2, 0.8, circuit.dimension),
        (typical_corner(),),
        rng.standard_normal((64, circuit.mismatch_dimension)),
    )
    if warm:
        pool = WorkerPool(
            WORKERS,
            circuit_names=(circuit.name,),
            backend_names=(backend.name,),
            eager=True,
        )
    start = time.perf_counter()
    if not warm:
        pool = WorkerPool(WORKERS, eager=False)
    handle = dispatch_job_sharded(circuit, backend, job, pool)
    handle.result()
    elapsed = time.perf_counter() - start
    pool.shutdown()
    return elapsed


def _pool_timings() -> dict:
    # Cold first (fresh interpreter state is closest to the PR-4 cold
    # path); best-of keeps scheduler noise out of both numbers.
    cold = min(_first_job_latency(warm=False) for _ in range(REPEATS))
    warm = min(_first_job_latency(warm=True) for _ in range(REPEATS))
    return {
        "workers": WORKERS,
        "batch_rows": 64,
        "cold_first_job_seconds": cold,
        "warm_first_job_seconds": warm,
        "speedup": cold / warm,
    }


# ----------------------------------------------------------------------
# 2 + 3. the sizing workflow, sync vs async
# ----------------------------------------------------------------------
def _operational():
    return operational_config(
        VerificationMethod.CORNER_LOCAL_MC,
        optimization_samples=3,
        verification_samples=VERIFICATION_SAMPLES,
        verification_chunk=8,
    )


@contextlib.contextmanager
def lookahead_zero():
    """The sequential verifier: the ``iter_resolved`` chunk stream of
    ``SimulationService.scan`` pinned to ``ahead=0``, so each chunk is
    submitted only after the previous one resolved."""
    sequential = functools.partial(iter_resolved, ahead=0)
    with mock.patch.object(service_module, "iter_resolved", sequential):
        yield


def _find_verifiable_design(circuit, spec):
    """A design whose full verification passes, so the timed pass walks
    the entire corners × N budget (the workload pipelining accelerates)."""
    rng = np.random.default_rng(0)
    with CircuitSimulator(circuit) as simulator:
        operational = _operational()
        for _ in range(400):
            design = np.clip(circuit.random_sizing(rng) + 0.15, 0.0, 1.0)
            verifier = Verifier(
                simulator,
                spec,
                operational,
                use_mu_sigma=False,
                rng=np.random.default_rng(4),
            )
            outcome = verifier.verify(
                design, LastWorstCaseBuffer(operational.corners)
            )
            if outcome.passed:
                return design
    raise RuntimeError("no verifiable StrongARM design found for the benchmark")


class _WorkflowDriver:
    """One seed → optimize → verify evaluation pass at a fixed schedule.

    ``pipelined=False`` reproduces the synchronous PR-4 control loop:
    blocking ``run`` calls, sequential seed sweeps, and verification at
    lookahead 0 (:func:`lookahead_zero`).  ``pipelined=True`` is the async
    loop: seed mega-batches submitted ahead through
    ``submit_corner_sweep`` and double-buffered verification.  Both issue
    exactly the same simulations in the same order, so rewards and
    budgets agree bit-for-bit and the wall-clock difference is pure
    pipelining.
    """

    def __init__(self, circuit, spec, design, pipelined, backend="paced"):
        self.circuit = circuit
        self.spec = spec
        self.design = design
        self.pipelined = pipelined
        self.backend = backend
        self.budget = SimulationBudget()
        # One persistent warm pool per driver, reused across repetitions —
        # the service owns it; close() releases it.
        self.simulator = CircuitSimulator(
            circuit, self.budget, workers=WORKERS, backend=backend
        )

    def close(self):
        self.simulator.close()

    def run(self):
        circuit = self.circuit
        operational = _operational()
        self.budget.reset()
        simulator = self.simulator
        trace = []
        sampler = MismatchSampler(
            circuit.mismatch_model,
            include_global=operational.include_global,
            include_local=operational.include_local,
            rng=np.random.default_rng(2),
        )
        corners = list(operational.corners)
        buffer = LastWorstCaseBuffer(operational.corners)

        def rewards_of(block):
            return rewards_from_matrix(
                self.spec,
                simulator.metrics_matrix(block, self.spec.metric_names),
            )

        # --- phase 1: TuRBO-shaped design batches at typical ------------
        rng = np.random.default_rng(3)
        for _ in range(DESIGN_BATCHES):
            designs = rng.uniform(0.2, 0.8, (10, circuit.dimension))
            trace.append(
                float(rewards_of(simulator.simulate_designs(designs)).min())
            )

        # --- phase 2: seed sweeps across all corners --------------------
        seeds = [
            np.clip(self.design + 0.01 * shift, 0.0, 1.0)
            for shift in range(SEED_DESIGNS)
        ]

        def sweep_sets(seed_design):
            x_physical = circuit.denormalize(seed_design)
            return [
                sampler.sample(x_physical, operational.optimization_samples)
                for _ in corners
            ]

        def process(grouped):
            for corner, block in zip(corners, grouped):
                worst = float(rewards_of(block).min())
                buffer.update(corner, worst)
                trace.append(worst)

        if self.pipelined:
            pending = []
            for seed_design in seeds:
                pending.append(
                    simulator.submit_corner_sweep(
                        seed_design,
                        corners,
                        sweep_sets(seed_design),
                        phase=SimulationPhase.INITIAL_SAMPLING,
                    )
                )
                if len(pending) > 2:
                    process(pending.pop(0).result())
            while pending:
                process(pending.pop(0).result())
        else:
            for seed_design in seeds:
                process(
                    simulator.simulate_corner_sweep(
                        seed_design,
                        corners,
                        sweep_sets(seed_design),
                        phase=SimulationPhase.INITIAL_SAMPLING,
                    )
                )

        # --- phase 3: optimization iterations at the worst corner -------
        for _ in range(OPTIMIZATION_ITERATIONS):
            worst = buffer.worst_corner()
            mismatch_set = sampler.sample(
                circuit.denormalize(self.design),
                operational.optimization_samples,
            )
            block = simulator.simulate_mismatch_set(
                self.design, worst, mismatch_set
            )
            reward = float(rewards_of(block).min())
            buffer.update(worst, reward)
            trace.append(reward)

        # --- phase 4: full hierarchical verification --------------------
        verifier = Verifier(
            simulator,
            self.spec,
            operational,
            use_mu_sigma=False,
            rng=np.random.default_rng(4),
        )
        schedule = (
            contextlib.nullcontext() if self.pipelined else lookahead_zero()
        )
        with schedule:
            outcome = verifier.verify(self.design, buffer)
        return outcome, self.budget.snapshot(), trace


def _verification_timings(circuit, spec, design) -> dict:
    """One full verification pass, double-buffered vs sequential, on one
    persistent warm pool per mode (spin-up is measured separately)."""
    outcomes = {}
    timings = {}
    operational = _operational()
    for pipeline in (False, True):
        schedule = contextlib.nullcontext() if pipeline else lookahead_zero()
        with schedule, CircuitSimulator(
            circuit, workers=WORKERS, backend="paced_rows"
        ) as simulator:

            def verify():
                verifier = Verifier(
                    simulator,
                    spec,
                    operational,
                    use_mu_sigma=False,
                    rng=np.random.default_rng(4),
                )
                return verifier.verify(
                    design, LastWorstCaseBuffer(operational.corners)
                )

            before = simulator.budget.total
            outcomes[pipeline] = (verify(), simulator.budget.total - before)
            timings[pipeline] = _best_of(verify)

    (sequential_outcome, sequential_sims) = outcomes[False]
    (buffered_outcome, buffered_sims) = outcomes[True]
    assert buffered_outcome.passed == sequential_outcome.passed
    assert buffered_outcome.worst_reward == sequential_outcome.worst_reward
    assert buffered_sims == sequential_sims
    return {
        "verification_samples": VERIFICATION_SAMPLES,
        "verification_chunk": 8,
        "workers": WORKERS,
        "simulations_per_pass": sequential_sims,
        "sequential_seconds": timings[False],
        "double_buffered_seconds": timings[True],
        "speedup": timings[False] / timings[True],
    }


def _end_to_end(circuit, spec, design, sync_backend, async_backend) -> dict:
    """Sync PR-4 schedule vs the async stack, same simulations, same
    budgets.  The backends may differ only in *schedule declaration*
    (``paced`` vs ``paced_rows`` — the per-row fan-out is part of this
    PR's async execution layer), never in values."""
    sync = _WorkflowDriver(circuit, spec, design, False, backend=sync_backend)
    pipelined = _WorkflowDriver(
        circuit, spec, design, True, backend=async_backend
    )
    try:
        # Equivalence before timing: identical outcome, identical reward
        # trace (every simulation's worst reward, in order), identical
        # budgets.
        sync_outcome, sync_budget, sync_trace = sync.run()
        async_outcome, async_budget, async_trace = pipelined.run()
        assert async_outcome.passed == sync_outcome.passed
        assert async_outcome.worst_reward == sync_outcome.worst_reward
        assert async_budget == sync_budget
        assert async_trace == sync_trace
        assert sync_outcome.passed, "benchmark design must survive verification"

        sync_s = _best_of(sync.run)
        async_s = _best_of(pipelined.run)
    finally:
        sync.close()
        pipelined.close()
    return {
        "circuit": circuit.name,
        "sync_backend": sync_backend,
        "async_backend": async_backend,
        "workers": WORKERS,
        "simulations_per_pass": sync_budget["total"],
        "sync_seconds": sync_s,
        "async_seconds": async_s,
        "speedup": sync_s / async_s,
    }


@pytest.mark.perf
def test_async_service_speedup_and_equivalence():
    circuit = StrongArmLatch()
    spec = DesignSpec.from_circuit(circuit)
    design = _find_verifiable_design(circuit, spec)

    pool_block = _pool_timings()
    verification_block = _verification_timings(circuit, spec, design)
    paced_block = _end_to_end(circuit, spec, design, "paced", "paced_rows")
    analytic_block = _end_to_end(circuit, spec, design, "batched", "batched")

    report = {
        "description": (
            "Async pipelined SimulationService: warm vs cold worker-pool "
            "first-job latency; double-buffered vs sequential full "
            "verification; and the end-to-end seed -> optimize -> verify "
            "evaluation pass, futures-driven vs the synchronous schedule, "
            "at workers=4 on a paced backend modelling a constant per-row "
            "simulator cost (bit-identical rewards and budgets asserted "
            "before timing).  The analytic (unpaced) end-to-end block is "
            "informational."
        ),
        "row_cost_seconds": ROW_COST_SECONDS,
        "warm_pool": pool_block,
        "verification": verification_block,
        "end_to_end": paced_block,
        "end_to_end_analytic": analytic_block,
    }
    path = write_bench_json("async_service", report)
    print(f"\nasync-service benchmark -> {path}")
    print(
        f"  warm pool:    {pool_block['speedup']:.1f}x first-job "
        f"({pool_block['cold_first_job_seconds']*1e3:.0f} ms -> "
        f"{pool_block['warm_first_job_seconds']*1e3:.0f} ms)"
    )
    print(
        f"  verification: {verification_block['speedup']:.2f}x "
        f"double-buffered ({verification_block['simulations_per_pass']} sims)"
    )
    print(
        f"  end-to-end:   {paced_block['speedup']:.2f}x paced, "
        f"{analytic_block['speedup']:.2f}x analytic "
        f"({paced_block['simulations_per_pass']} sims/pass)"
    )

    assert pool_block["speedup"] >= MIN_WARM_POOL_SPEEDUP, report
    assert paced_block["speedup"] >= MIN_END_TO_END_SPEEDUP, report
