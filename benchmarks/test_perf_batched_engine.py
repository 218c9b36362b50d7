"""Perf benchmark: batched vs scalar simulation at Table-II mismatch scale.

Each optimizer iteration fans one design out over an N'-sample mismatch set
(and, during verification, over the corner set).  This benchmark times that
exact sweep both ways on all three testcases, asserts the batched path
reproduces the scalar metrics within 1e-9, and records the wall-clock trajectory to
``benchmarks/results/BENCH_batched_engine.json`` so the speedup is tracked
across PRs.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from harness import write_bench_json
from repro.circuits import DramCoreSenseAmp, FloatingInverterAmplifier, StrongArmLatch
from repro.variation.corners import typical_corner
from repro.variation.mismatch import MismatchSampler

#: The paper's optimization-phase mismatch batch (N' for C-MCG-L, Table I).
BATCH = 16

#: Timing repetitions; best-of keeps CI noise out of the recorded numbers.
REPEATS = 5

#: Acceptance floor for the recorded speedup at B=16.
MIN_SPEEDUP = 5.0

TOLERANCE = 1e-9


def _best_of(callable_, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_timings(circuit) -> dict:
    """Time one design's B-sample mismatch sweep, scalar loop vs one batch."""
    x = np.full(circuit.dimension, 0.5)
    sampler = MismatchSampler(
        circuit.mismatch_model,
        include_global=True,
        include_local=True,
        rng=np.random.default_rng(1),
    )
    samples = sampler.sample(circuit.denormalize(x), BATCH).samples
    corner = typical_corner()

    def scalar_sweep():
        return [circuit.evaluate(x, corner, samples[i]) for i in range(BATCH)]

    def batched_sweep():
        return circuit.evaluate_batch(x, corner, samples)

    # Warm-up (imports, caches) before timing.
    scalar_rows = scalar_sweep()
    batched_metrics = batched_sweep()

    deviation = max(
        abs(scalar_rows[i][name] - batched_metrics[name][i])
        for i in range(BATCH)
        for name in circuit.metric_names
    )
    scalar_s = _best_of(scalar_sweep)
    batched_s = _best_of(batched_sweep)
    return {
        "batch": BATCH,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s,
        "max_abs_deviation": deviation,
    }


@pytest.mark.perf
def test_batched_engine_speedup_and_equivalence():
    report = {
        "description": (
            "Wall-clock of one design's 16-sample mismatch sweep "
            "(Table-II optimization-phase shape): scalar per-sample loop "
            "vs one batched evaluation pass."
        ),
        "circuits": {},
    }
    for circuit_cls in (StrongArmLatch, FloatingInverterAmplifier, DramCoreSenseAmp):
        timings = _sweep_timings(circuit_cls())
        report["circuits"][circuit_cls.name] = timings
        assert timings["max_abs_deviation"] <= TOLERANCE, circuit_cls.name

    speedups = [entry["speedup"] for entry in report["circuits"].values()]
    report["min_circuit_speedup"] = min(speedups)
    report["geomean_circuit_speedup"] = float(
        np.exp(np.mean(np.log(speedups)))
    )

    path = write_bench_json("batched_engine", report)
    print(f"\nbatched-engine benchmark -> {path}")
    for name, entry in report["circuits"].items():
        print(
            f"  {name}: {entry['speedup']:.1f}x "
            f"(dev {entry['max_abs_deviation']:.2e})"
        )

    assert report["min_circuit_speedup"] >= MIN_SPEEDUP, report
