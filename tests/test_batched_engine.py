"""Equivalence suite for the batched simulation engine.

The batched paths (circuit ``evaluate_batch``, simulator fast paths) must
reproduce the scalar paths within 1e-9 — in practice they are bit-identical,
since the scalar evaluation routes through the same vectorized code with a
batch of one.
"""

import numpy as np
import pytest

from repro.analysis.waveform import first_crossing
from repro.circuits import DramCoreSenseAmp, FloatingInverterAmplifier, StrongArmLatch
from repro.simulation import CircuitSimulator, SimulationPhase
from repro.variation.corners import (
    CornerBatch,
    ProcessCorner,
    PVTCorner,
    full_corner_set,
    typical_corner,
)
from repro.variation.mismatch import MismatchSampler

ALL_CIRCUITS = [StrongArmLatch, FloatingInverterAmplifier, DramCoreSenseAmp]
TOLERANCE = 1e-9
BATCH = 16


def seeded_mismatch(circuit, x_normalized, count=BATCH, seed=42):
    sampler = MismatchSampler(
        circuit.mismatch_model,
        include_global=True,
        include_local=True,
        rng=np.random.default_rng(seed),
    )
    return sampler.sample(circuit.denormalize(x_normalized), count)


@pytest.mark.parametrize("circuit_cls", ALL_CIRCUITS)
class TestEvaluateBatchEquivalence:
    """evaluate_batch == scalar evaluate, all corners x 16 seeded samples."""

    def test_mismatch_batch_matches_scalar_at_all_corners(self, circuit_cls):
        circuit = circuit_cls()
        rng = np.random.default_rng(7)
        x = circuit.random_sizing(rng)
        mismatch_set = seeded_mismatch(circuit, x)
        for corner in full_corner_set():
            batch = circuit.evaluate_batch(x, corner, mismatch_set.samples)
            for index in range(len(mismatch_set)):
                scalar = circuit.evaluate(x, corner, mismatch_set[index])
                for name in circuit.metric_names:
                    assert batch[name][index] == pytest.approx(
                        scalar[name], abs=TOLERANCE
                    )

    def test_corner_batch_matches_scalar(self, circuit_cls):
        circuit = circuit_cls()
        rng = np.random.default_rng(11)
        x = circuit.random_sizing(rng)
        corners = full_corner_set()
        batch = circuit.evaluate_batch(x, CornerBatch.from_corners(corners))
        for index, corner in enumerate(corners):
            scalar = circuit.evaluate(x, corner)
            for name in circuit.metric_names:
                assert batch[name][index] == pytest.approx(
                    scalar[name], abs=TOLERANCE
                )

    def test_nominal_batch_defaults(self, circuit_cls):
        circuit = circuit_cls()
        x = np.full(circuit.dimension, 0.5)
        batch = circuit.evaluate_batch(x)
        scalar = circuit.evaluate(x)
        for name in circuit.metric_names:
            assert batch[name].shape == (1,)
            assert batch[name][0] == pytest.approx(scalar[name], abs=TOLERANCE)

    def test_scalar_evaluate_is_a_batch_of_one(self, circuit_cls):
        """``evaluate`` has no model of its own: it equals a one-row
        ``evaluate_batch`` bit for bit, at every corner."""
        circuit = circuit_cls()
        x = circuit.random_sizing(np.random.default_rng(5))
        mismatch_set = seeded_mismatch(circuit, x, count=4)
        for corner in full_corner_set():
            for h in mismatch_set.samples:
                batch = circuit.evaluate_batch(x, corner, h[None, :])
                assert circuit.evaluate(x, corner, h) == {
                    name: batch[name][0] for name in circuit.metric_names
                }


class TestSimulatorFastPaths:
    def test_simulate_mismatch_set_matches_scalar_calls(self, strongarm):
        x = np.full(strongarm.dimension, 0.5)
        corner = PVTCorner(ProcessCorner.SF, 0.8, 80.0)
        mismatch_set = seeded_mismatch(strongarm, x)

        fast = CircuitSimulator(strongarm)
        block = fast.simulate_mismatch_set(x, corner, mismatch_set)
        assert fast.budget.total == len(mismatch_set)

        slow = CircuitSimulator(strongarm)
        for index in range(len(mismatch_set)):
            reference = slow.simulate(x, corner, mismatch_set[index])
            for name in strongarm.metric_names:
                assert block[name][index] == pytest.approx(
                    reference[name][0], abs=TOLERANCE
                )

    def test_simulate_corners_matches_scalar_calls(self, fia):
        x = np.full(fia.dimension, 0.5)
        corners = full_corner_set()
        fast = CircuitSimulator(fia)
        block = fast.simulate_corners(x, corners)
        assert fast.budget.total == len(corners)
        for index, corner in enumerate(corners):
            scalar = fia.evaluate(x, corner)
            for name in fia.metric_names:
                assert block[name][index] == pytest.approx(
                    scalar[name], abs=TOLERANCE
                )

    def test_phase_charged_in_one_batch(self, strongarm):
        simulator = CircuitSimulator(strongarm)
        x = np.full(strongarm.dimension, 0.5)
        mismatch_set = seeded_mismatch(strongarm, x, count=5)
        simulator.simulate_mismatch_set(
            x, typical_corner(), mismatch_set, phase=SimulationPhase.VERIFICATION
        )
        assert simulator.budget.snapshot()["verification"] == 5


class TestCrossingTimeVectorized:
    def test_rising_and_falling(self):
        times = np.linspace(0.0, 1.0, 11)
        ramp = np.linspace(0.0, 1.0, 11)[None, :]
        assert first_crossing(times, ramp, 0.55)[0] == pytest.approx(0.55)
        fall = np.linspace(1.0, 0.0, 11)[None, :]
        assert first_crossing(times, fall, 0.55, rising=False)[0] == pytest.approx(
            0.45
        )

    def test_flat_segment_crosses_at_segment_end(self):
        times = np.array([0.0, 1.0, 2.0])
        wave = np.array([[0.0, 0.5, 0.5]])
        # Threshold equal to a flat segment's value: crossing is detected on
        # the first segment via interpolation.
        assert first_crossing(times, wave, 0.5)[0] == pytest.approx(1.0)

    def test_nan_when_never_crossed(self):
        times = np.linspace(0.0, 1.0, 5)
        assert np.isnan(first_crossing(times, np.zeros((1, 5)), 0.5)[0])
