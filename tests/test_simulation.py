"""Tests for the simulation service (budget accounting and the simulator)."""

import numpy as np
import pytest

from repro.simulation import CircuitSimulator, SimulationBudget, SimulationPhase
from repro.variation.corners import full_corner_set, typical_corner
from repro.variation.mismatch import MismatchSampler


class TestSimulationBudget:
    def test_counts_by_phase(self):
        budget = SimulationBudget()
        budget.charge(SimulationPhase.OPTIMIZATION, 5)
        budget.charge(SimulationPhase.VERIFICATION, 7)
        budget.charge(SimulationPhase.INITIAL_SAMPLING, 2)
        assert budget.total == 14
        assert budget.optimization_simulations == 7
        assert budget.verification_simulations == 7

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            SimulationBudget().charge(SimulationPhase.OPTIMIZATION, -1)

    def test_runtime_model_uses_parallelism(self):
        budget = SimulationBudget(
            cost_per_simulation=2.0,
            optimization_parallelism=3,
            verification_parallelism=10,
        )
        budget.charge(SimulationPhase.OPTIMIZATION, 9)  # 3 batches
        budget.charge(SimulationPhase.VERIFICATION, 25)  # 3 batches
        assert budget.modelled_runtime() == pytest.approx(2.0 * (3 + 3))

    def test_snapshot_and_reset(self):
        budget = SimulationBudget()
        budget.charge(SimulationPhase.OPTIMIZATION, 3)
        snapshot = budget.snapshot()
        assert snapshot["optimization"] == 3
        assert snapshot["total"] == 3
        budget.reset()
        assert budget.total == 0


class TestCircuitSimulator:
    def test_simulate_counts_one(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        record = simulator.simulate(strongarm.random_sizing(rng))
        assert simulator.budget.total == 1
        assert set(record.metrics) == set(strongarm.metric_names)
        assert record.corner == typical_corner()

    def test_simulate_mismatch_set_counts_all(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        x = strongarm.random_sizing(rng)
        sampler = MismatchSampler(
            strongarm.mismatch_model, include_global=False, include_local=True, rng=rng
        )
        mismatch_set = sampler.sample(strongarm.denormalize(x), 5)
        records = simulator.simulate_mismatch_set(x, typical_corner(), mismatch_set)
        assert len(records) == 5
        assert simulator.budget.total == 5

    def test_simulate_corners_counts_all(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        records = simulator.simulate_corners(
            strongarm.random_sizing(rng), full_corner_set()
        )
        assert len(records) == 30
        assert simulator.budget.total == 30

    def test_phase_attribution(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        simulator.simulate_typical(strongarm.random_sizing(rng))
        simulator.simulate(
            strongarm.random_sizing(rng), phase=SimulationPhase.VERIFICATION
        )
        snapshot = simulator.budget.snapshot()
        assert snapshot["initial_sampling"] == 1
        assert snapshot["verification"] == 1

    def test_metrics_matrix_shape(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        records = [
            simulator.simulate(strongarm.random_sizing(rng)) for _ in range(4)
        ]
        matrix = simulator.metrics_matrix(records)
        assert matrix.shape == (4, len(strongarm.metric_names))

    def test_record_metric_vector(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        record = simulator.simulate(strongarm.random_sizing(rng))
        vector = record.metric_vector(strongarm.metric_names)
        assert vector.shape == (len(strongarm.metric_names),)
