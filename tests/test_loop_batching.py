"""Equivalence suite for the batched control loop.

PR 1 batched the simulator; this suite pins down the layers above it:

* design-axis batching (``evaluate_design_batch`` / ``simulate_designs``),
* the corners × mismatch-sets mega-batch (``simulate_corner_sweep``),
* the optimizer seed phase through the mega-batch (identical buffers),
* the baselines' batched population sampling, and
* multiprocessing sharding (bit-identical to single-process).
"""

import numpy as np
import pytest

from repro.baselines import RobustAnalogOptimizer
from repro.circuits import StrongArmLatch
from repro.core.config import GlovaConfig, VerificationMethod
from repro.core.optimizer import GlovaOptimizer
from repro.core.reward import reward_from_metrics
from repro.simulation import CircuitSimulator, SimulationPhase
from repro.variation.corners import ProcessCorner, PVTCorner, full_corner_set, typical_corner

# The paper-circuit parametrization (paper_circuit) and the deterministic
# mismatch_sampler factory are shared conftest.py fixtures.
TOLERANCE = 1e-9


class TestDesignAxisBatching:
    def test_evaluate_design_batch_matches_scalar(self, paper_circuit):
        circuit = paper_circuit
        rng = np.random.default_rng(3)
        designs = rng.uniform(0.1, 0.9, size=(7, circuit.dimension))
        corner = PVTCorner(ProcessCorner.SF, 0.8, -40.0)
        batch = circuit.evaluate_design_batch(designs, corner)
        for index in range(len(designs)):
            scalar = circuit.evaluate(designs[index], corner)
            for name in circuit.metric_names:
                assert batch[name][index] == pytest.approx(
                    scalar[name], abs=TOLERANCE
                )

    def test_denormalize_batch_matches_scalar(self, paper_circuit):
        circuit = paper_circuit
        rng = np.random.default_rng(4)
        designs = rng.uniform(0.0, 1.0, size=(5, circuit.dimension))
        # Out-of-range coordinates: both entry points clip like to_physical.
        designs = np.vstack(
            [designs, rng.uniform(-0.2, 1.2, size=(200, circuit.dimension))]
        )
        batch = circuit.denormalize_batch(designs)
        for index in range(len(designs)):
            reference = np.array(
                [
                    parameter.to_physical(value)
                    for parameter, value in zip(circuit.parameters, designs[index])
                ]
            )
            single = circuit.denormalize(designs[index])
            assert batch[index].tobytes() == reference.tobytes()
            assert single.tobytes() == reference.tobytes()

    def test_simulate_designs_records_and_budget(
        self, paper_circuit, simulator_factory
    ):
        circuit = paper_circuit
        simulator = simulator_factory(circuit)
        rng = np.random.default_rng(5)
        designs = rng.uniform(0.2, 0.8, size=(6, circuit.dimension))
        block = simulator.simulate_designs(designs)
        assert simulator.budget.snapshot()["initial_sampling"] == 6
        for index in range(len(designs)):
            scalar = circuit.evaluate(designs[index], typical_corner())
            for name in circuit.metric_names:
                assert block[name][index] == pytest.approx(
                    scalar[name], abs=TOLERANCE
                )


class TestCornerSweepMegaBatch:
    def test_matches_per_corner_mismatch_sets(self, strongarm, mismatch_sampler):
        x = np.full(strongarm.dimension, 0.55)
        corners = list(full_corner_set())
        sets = [
            mismatch_sampler(strongarm).sample(strongarm.denormalize(x), 3)
            for _ in corners
        ]

        mega = CircuitSimulator(strongarm)
        grouped = mega.simulate_corner_sweep(
            x, corners, sets, phase=SimulationPhase.INITIAL_SAMPLING
        )
        assert mega.budget.snapshot()["initial_sampling"] == 3 * len(corners)

        sequential = CircuitSimulator(strongarm)
        assert len(grouped) == len(corners)
        for corner, mismatch_set, block in zip(corners, sets, grouped):
            reference = sequential.simulate_mismatch_set(
                x, corner, mismatch_set, phase=SimulationPhase.INITIAL_SAMPLING
            )
            for name in strongarm.metric_names:
                assert block[name].shape == reference[name].shape == (3,)
                np.testing.assert_allclose(
                    block[name], reference[name], rtol=0, atol=TOLERANCE
                )

    def test_rejects_mismatched_lengths(self, strongarm):
        simulator = CircuitSimulator(strongarm)
        x = np.full(strongarm.dimension, 0.5)
        with pytest.raises(ValueError, match="one mismatch set per corner"):
            simulator.simulate_corner_sweep(x, list(full_corner_set()), [])


class TestSeedPhaseMegaBatch:
    def make_optimizer(self, seed=11):
        config = GlovaConfig(
            verification=VerificationMethod.CORNER_LOCAL_MC,
            optimization_samples=3,
            verification_samples=6,
            initial_samples=10,
            max_iterations=2,
            seed=seed,
        )
        return GlovaOptimizer(StrongArmLatch(), config)

    def test_seed_buffers_match_sequential_schedule(self):
        mega = self.make_optimizer()
        reference = self.make_optimizer()

        # Rewire the reference optimizer's seed sweeps onto the strictly
        # sequential per-corner schedule the seed phase used before
        # mega-batching, already resolved.
        simulator = reference.simulator
        sweeps = []

        class Resolved:
            def __init__(self, groups):
                self.groups = groups

            def result(self):
                return self.groups

            def cancel(self):
                return False

        def sequential_sweep(x, corners, mismatch_sets, phase):
            sweeps.append(len(corners))
            return Resolved(
                [
                    simulator.simulate_mismatch_set(
                        x, corner, mismatch_set, phase=phase
                    )
                    for corner, mismatch_set in zip(corners, mismatch_sets)
                ]
            )

        reference.simulator.submit_corner_sweep = sequential_sweep

        designs = [
            np.full(mega.circuit.dimension, 0.45),
            np.full(mega.circuit.dimension, 0.7),
        ]
        mega._seed_buffers([design.copy() for design in designs])
        reference._seed_buffers([design.copy() for design in designs])

        # The reference really ran per corner: one sweep per design, each
        # over every predefined corner.
        assert sweeps == [len(reference.operational.corners)] * len(designs)
        assert mega.budget.total == reference.budget.total
        for corner in mega.operational.corners:
            assert mega.last_worst.reward_of(corner) == pytest.approx(
                reference.last_worst.reward_of(corner), abs=TOLERANCE
            )
        assert np.allclose(
            mega.agent.buffer.all_rewards(),
            reference.agent.buffer.all_rewards(),
            atol=TOLERANCE,
        )


class TestRobustAnalogBatchedSampling:
    def test_population_rewards_match_scalar(self, strongarm):
        optimizer = RobustAnalogOptimizer(
            strongarm, GlovaConfig(seed=9, initial_samples=8)
        )
        best = optimizer._random_initial_sampling()
        designs = optimizer.agent.buffer.all_designs()
        rewards = optimizer.agent.buffer.all_rewards()

        def scalar_reward(design):
            metrics = strongarm.evaluate(design, typical_corner())
            return reward_from_metrics(optimizer.spec, metrics)

        assert len(designs) == 8
        for design, reward in zip(designs, rewards):
            assert reward == pytest.approx(scalar_reward(design), abs=TOLERANCE)
        assert float(np.max(rewards)) == pytest.approx(
            scalar_reward(best), abs=TOLERANCE
        )


class TestWorkerSharding:
    """The sharded legs run ``scalar``, an engine that shards (the
    vectorized ``batched`` engine stays in-process at any worker count)."""

    def test_sharded_mismatch_sweep_identical(
        self, strongarm, mismatch_sampler, simulator_factory, pool_submissions
    ):
        x = np.full(strongarm.dimension, 0.5)
        mismatch_set = mismatch_sampler(strongarm).sample(
            strongarm.denormalize(x), 8
        )
        single = simulator_factory(strongarm, workers=1)
        sharded = simulator_factory(strongarm, backend="scalar", workers=2)
        reference = single.simulate_mismatch_set(x, typical_corner(), mismatch_set)
        block = sharded.simulate_mismatch_set(x, typical_corner(), mismatch_set)
        assert pool_submissions  # the shards really ran on the pool
        assert sharded.budget.total == 8
        for name in strongarm.metric_names:
            assert np.array_equal(block[name], reference[name])

    def test_sharded_corner_sweep_identical(
        self, fia, mismatch_sampler, simulator_factory, pool_submissions
    ):
        x = np.full(fia.dimension, 0.5)
        corners = list(full_corner_set())
        sets = [
            mismatch_sampler(fia, seed=33).sample(fia.denormalize(x), 2)
            for _ in corners
        ]
        single = simulator_factory(fia, workers=1).simulate_corner_sweep(
            x, corners, sets
        )
        sharded = simulator_factory(
            fia, backend="scalar", workers=2
        ).simulate_corner_sweep(x, corners, sets)
        assert pool_submissions  # the shards really ran on the pool
        assert len(sharded) == len(single) == len(corners)
        for block_single, block_sharded in zip(single, sharded):
            for name in fia.metric_names:
                assert np.array_equal(block_sharded[name], block_single[name])

    def test_small_batches_stay_in_process(
        self, strongarm, mismatch_sampler, simulator_factory, pool_submissions
    ):
        # Below MIN_ROWS_PER_WORKER * workers the sharded path is bypassed;
        # results are identical either way.
        x = np.full(strongarm.dimension, 0.5)
        mismatch_set = mismatch_sampler(strongarm).sample(strongarm.denormalize(x), 2)
        sharded = simulator_factory(strongarm, backend="scalar", workers=4)
        block = sharded.simulate_mismatch_set(x, typical_corner(), mismatch_set)
        assert {values.shape for values in block.values()} == {(2,)}
        assert pool_submissions == []
