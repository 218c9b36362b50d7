"""Perf benchmark: the batched control loop end-to-end.

Measured and recorded to ``benchmarks/results/BENCH_loop_batching.json``:
a verification-heavy workflow (TuRBO initial sampling at typical, the
seed-phase corner sweep, optimization iterations at the worst corner,
then one full Algorithm-2 verification) timed twice over identical work:
the *legacy scalar schedule* (scalar TuRBO objective, per-corner seed
loop, one-at-a-time full-MC verification = ``verification_chunk=1``)
against the *batched loop* (design-batched TuRBO objective, corners × N' seed
mega-batch, chunk-8 verification).  Only the simulation side is timed —
agent updates are identical in both schedules.  The comparison asserts
value equivalence before timing anything.

The legacy schedule evaluates one simulation per engine call.  On the
``vectorized`` ``batched`` engine the verifier shares one evaluation per
corner whatever the chunk size, so the legacy schedule runs on
:class:`PerCallBackend`, a twin with the same metrics that is not
``vectorized``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from harness import write_bench_json
from repro.circuits import StrongArmLatch
from repro.core.config import VerificationMethod, operational_config
from repro.core.replay import LastWorstCaseBuffer
from repro.core.reward import rewards_from_matrix
from repro.core.spec import DesignSpec
from repro.core.turbo import TurboSampler
from repro.core.verification import Verifier
from repro.simulation import (
    BatchedMNABackend,
    CircuitSimulator,
    SimulationPhase,
)
from repro.variation.mismatch import MismatchSampler

REPEATS = 3

#: Acceptance floor for the recorded speedup.
MIN_END_TO_END_SPEEDUP = 3.0

#: Verification budget: 30 corners x (3 screening + 21 extras) = 720 sims.
VERIFICATION_SAMPLES = 24

OPTIMIZATION_ITERATIONS = 10
TURBO_EVALUATIONS = 30
SEED_DESIGNS = 2


class PerCallBackend(BatchedMNABackend):
    """The batched engine without the ``vectorized`` trait.

    Metrics are bit-identical to ``batched``, but the verifier evaluates
    each full-MC chunk in its own call: at ``verification_chunk=1``, one
    call per simulation, as the legacy schedule did.
    """

    name = "per_call_batched"
    vectorized = False


def _best_of(callable_, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _find_verifiable_design(circuit, spec):
    """A design whose full verification passes (the expensive, happy path).

    Verification runs with ``use_mu_sigma=False`` — the baselines'
    brute-force screen — so that a robust design walks the *entire*
    ``corners × N`` full-MC budget, which is exactly the workload the
    chunked pass accelerates.
    """
    rng = np.random.default_rng(0)
    simulator = CircuitSimulator(circuit)
    operational = operational_config(
        VerificationMethod.CORNER_LOCAL_MC,
        optimization_samples=3,
        verification_samples=VERIFICATION_SAMPLES,
    )
    for _ in range(400):
        design = np.clip(circuit.random_sizing(rng) + 0.15, 0.0, 1.0)
        # Same verifier seed as the timed workflow, so "passed" there means
        # passed here: the full verification budget is what gets timed.
        verifier = Verifier(
            simulator,
            spec,
            operational,
            use_mu_sigma=False,
            rng=np.random.default_rng(4),
        )
        outcome = verifier.verify(design, LastWorstCaseBuffer(operational.corners))
        if outcome.passed:
            return design
    raise RuntimeError("no verifiable StrongARM design found for the benchmark")


class _WorkflowDriver:
    """One seed → optimize → verify evaluation pass at a fixed schedule.

    ``batched=False`` reproduces the PR-1 control loop: scalar TuRBO
    objective, per-corner seed loop, strictly sequential full-MC
    verification, one engine call per simulation (:class:`PerCallBackend`).
    ``batched=True`` is the new loop: design-batched TuRBO, corner
    mega-batch, chunk-8 verification.  Both run exactly the same
    simulations in the same order, so the budgets agree and the wall-clock
    difference is pure batching.
    """

    def __init__(self, circuit, spec, design, batched: bool):
        self.circuit = circuit
        self.spec = spec
        self.design = design
        self.batched = batched
        self.chunk = 8 if batched else 1

    def run(self):
        circuit = self.circuit
        simulator = CircuitSimulator(
            circuit,
            backend=BatchedMNABackend() if self.batched else PerCallBackend(),
        )
        operational = operational_config(
            VerificationMethod.CORNER_LOCAL_MC,
            optimization_samples=3,
            verification_samples=VERIFICATION_SAMPLES,
            verification_chunk=self.chunk,
        )
        sampler = MismatchSampler(
            circuit.mismatch_model,
            include_global=operational.include_global,
            include_local=operational.include_local,
            rng=np.random.default_rng(2),
        )
        corners = list(operational.corners)
        buffer = LastWorstCaseBuffer(operational.corners)

        def rewards_of(records):
            return rewards_from_matrix(
                self.spec,
                simulator.metrics_matrix(records, self.spec.metric_names),
            )

        # --- phase 1: TuRBO initial sampling at typical ----------------
        turbo = TurboSampler(
            circuit.dimension, rng=np.random.default_rng(3), batch_size=3
        )

        def scalar_objective(design):
            record = simulator.simulate_typical(design)
            return float(rewards_of([record])[0])

        def batch_objective(designs):
            return rewards_of(simulator.simulate_designs(designs))

        if self.batched:
            turbo.run(
                None,
                max_evaluations=TURBO_EVALUATIONS,
                feasible_target=10**9,
                objective_batch=batch_objective,
            )
        else:
            turbo.run(
                scalar_objective,
                max_evaluations=TURBO_EVALUATIONS,
                feasible_target=10**9,
            )

        # --- phase 2: seed designs across all corners ------------------
        for _ in range(SEED_DESIGNS):
            x_physical = circuit.denormalize(self.design)
            mismatch_sets = [
                sampler.sample(x_physical, operational.optimization_samples)
                for _ in corners
            ]
            if self.batched:
                grouped = simulator.simulate_corner_sweep(
                    self.design,
                    corners,
                    mismatch_sets,
                    phase=SimulationPhase.INITIAL_SAMPLING,
                )
            else:
                grouped = [
                    [
                        simulator.simulate(
                            self.design,
                            corner,
                            condition,
                            phase=SimulationPhase.INITIAL_SAMPLING,
                        )
                        for condition in mismatch_set
                    ]
                    for corner, mismatch_set in zip(corners, mismatch_sets)
                ]
            for corner, records in zip(corners, grouped):
                buffer.update(corner, float(rewards_of(records).min()))

        # --- phase 3: optimization iterations at the worst corner ------
        for _ in range(OPTIMIZATION_ITERATIONS):
            worst = buffer.worst_corner()
            mismatch_set = sampler.sample(
                circuit.denormalize(self.design),
                operational.optimization_samples,
            )
            if self.batched:
                records = simulator.simulate_mismatch_set(
                    self.design, worst, mismatch_set
                )
            else:
                records = [
                    simulator.simulate(self.design, worst, condition)
                    for condition in mismatch_set
                ]
            buffer.update(worst, float(rewards_of(records).min()))

        # --- phase 4: full hierarchical verification --------------------
        verifier = Verifier(
            simulator,
            self.spec,
            operational,
            use_mu_sigma=False,
            rng=np.random.default_rng(4),
        )
        outcome = verifier.verify(self.design, buffer)
        return outcome, simulator.budget.total


@pytest.mark.perf
def test_loop_batching_speedup_and_equivalence():
    circuit = StrongArmLatch()
    spec = DesignSpec.from_circuit(circuit)
    design = _find_verifiable_design(circuit, spec)

    legacy = _WorkflowDriver(circuit, spec, design, batched=False)
    batched = _WorkflowDriver(circuit, spec, design, batched=True)

    # Equivalence before timing: identical outcome, identical worst reward;
    # the budget differs only by chunk rounding past a failure (none when
    # the design verifies).
    legacy_outcome, legacy_sims = legacy.run()
    batched_outcome, batched_sims = batched.run()
    assert batched_outcome.passed == legacy_outcome.passed
    assert batched_outcome.failed_corner == legacy_outcome.failed_corner
    assert batched_outcome.worst_reward == pytest.approx(
        legacy_outcome.worst_reward, abs=1e-9
    )
    assert legacy_outcome.passed, "benchmark design must survive verification"
    assert batched_sims == legacy_sims

    legacy_s = _best_of(legacy.run)
    batched_s = _best_of(batched.run)

    report = {
        "description": (
            "Verification-heavy end-to-end evaluation pass (TuRBO initial "
            "sampling -> corner seed sweep -> optimization iterations -> "
            "full Algorithm-2 verification) under the legacy scalar "
            "schedule vs the batched control loop."
        ),
        "end_to_end": {
            "circuit": circuit.name,
            "verification_samples": VERIFICATION_SAMPLES,
            "simulations_per_pass": legacy_sims,
            "verification_chunk": {"legacy": 1, "batched": 8},
            "legacy_seconds": legacy_s,
            "batched_seconds": batched_s,
            "speedup": legacy_s / batched_s,
        },
    }
    path = write_bench_json("loop_batching", report)
    print(f"\nloop-batching benchmark -> {path}")
    print(
        f"  end-to-end: {report['end_to_end']['speedup']:.1f}x "
        f"({legacy_sims} sims/pass)"
    )

    assert report["end_to_end"]["speedup"] >= MIN_END_TO_END_SPEEDUP, report
