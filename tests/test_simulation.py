"""Tests for the simulation service (budget accounting and the simulator)."""

import numpy as np
import pytest

import repro.simulation
from repro.simulation import (
    CircuitSimulator,
    SimResult,
    SimulationBudget,
    SimulationPhase,
)
from repro.simulation import service as service_module
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
        x = strongarm.random_sizing(rng)
        block = simulator.simulate(x)
        assert simulator.budget.total == 1
        assert set(block) == set(strongarm.metric_names)
        # A one-row block at the typical corner by default.
        reference = strongarm.evaluate(x, typical_corner())
        for name in strongarm.metric_names:
            assert block[name].shape == (1,)
            assert block[name][0] == reference[name]

    def test_simulate_mismatch_set_counts_all(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        x = strongarm.random_sizing(rng)
        sampler = MismatchSampler(
            strongarm.mismatch_model, include_global=False, include_local=True, rng=rng
        )
        mismatch_set = sampler.sample(strongarm.denormalize(x), 5)
        block = simulator.simulate_mismatch_set(x, typical_corner(), mismatch_set)
        assert {values.shape for values in block.values()} == {(5,)}
        assert simulator.budget.total == 5

    def test_simulate_corners_counts_all(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        block = simulator.simulate_corners(
            strongarm.random_sizing(rng), full_corner_set()
        )
        assert {values.shape for values in block.values()} == {(30,)}
        assert simulator.budget.total == 30

    def test_simulate_corners_refuses_an_empty_corner_set(self, strongarm, rng):
        simulator = CircuitSimulator(strongarm)
        x = strongarm.random_sizing(rng)
        with pytest.raises(ValueError, match="at least one corner"):
            simulator.simulate_corners(x, [])
        with pytest.raises(ValueError, match="at least one corner"):
            simulator.submit_corners(x, [])
        assert simulator.budget.total == 0

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
        designs = np.stack([strongarm.random_sizing(rng) for _ in range(4)])
        block = simulator.simulate_designs(designs)
        matrix = simulator.metrics_matrix(block)
        assert matrix.shape == (4, len(strongarm.metric_names))
        # Columns follow the requested names, values bit for bit.
        names = strongarm.metric_names[::-1]
        reordered = simulator.metrics_matrix(block, names)
        for column, name in enumerate(names):
            assert np.array_equal(reordered[:, column], block[name])

    def test_simulation_records_are_gone(self):
        """Blocks are the one format: no per-row record type, no alias."""
        assert "SimulationRecord" not in repro.simulation.__all__
        with pytest.raises(AttributeError):
            repro.simulation.SimulationRecord
        assert not hasattr(service_module, "SimulationRecord")
        assert not hasattr(SimResult, "to_records")
        assert not hasattr(SimResult, "matrix")
