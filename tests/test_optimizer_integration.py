"""Integration tests: the full GLOVA workflow on the paper testcases."""

import numpy as np
import pytest

from repro import GlovaConfig, GlovaOptimizer, VerificationMethod
from repro.api import RunReport
from repro.baselines import PVTSizingOptimizer
from repro.circuits import FloatingInverterAmplifier, StrongArmLatch
from repro.core import agent as agent_module
from repro.core.result import OptimizationResult


@pytest.fixture(scope="module")
def sal_corner_result():
    config = GlovaConfig(
        verification=VerificationMethod.CORNER,
        seed=0,
        max_iterations=60,
        initial_samples=40,
    )
    return GlovaOptimizer(StrongArmLatch(), config).run()


class TestGlovaOnStrongArm:
    def test_corner_scenario_succeeds(self, sal_corner_result):
        assert sal_corner_result.success

    def test_result_bookkeeping(self, sal_corner_result):
        result = sal_corner_result
        assert isinstance(result, OptimizationResult)
        assert result.iterations >= 1
        assert result.total_simulations > 0
        assert result.simulations["total"] == (
            result.simulations["initial_sampling"]
            + result.simulations["optimization"]
            + result.simulations["verification"]
        )
        assert result.runtime > 0
        assert result.method == "C"
        assert result.circuit == "strongarm_latch"

    def test_final_design_meets_targets_at_typical(self, sal_corner_result):
        result = sal_corner_result
        circuit = StrongArmLatch()
        assert result.final_design is not None
        metrics = circuit.evaluate(result.final_design)
        assert circuit.is_feasible(metrics)
        assert result.final_metrics is not None

    def test_final_design_survives_every_corner(self, sal_corner_result):
        from repro.variation.corners import full_corner_set

        circuit = StrongArmLatch()
        design = sal_corner_result.final_design
        for corner in full_corner_set():
            assert circuit.is_feasible(circuit.evaluate(design, corner)), corner.name

    def test_history_tracks_every_iteration(self, sal_corner_result):
        result = sal_corner_result
        assert len(result.history) == result.iterations
        assert result.history[-1].verification_passed
        for record in result.history:
            assert np.isfinite(record.worst_reward)
            assert np.isfinite(record.predicted_bound)

    def test_physical_design_within_bounds(self, sal_corner_result):
        circuit = StrongArmLatch()
        physical = sal_corner_result.final_design_physical
        for value, parameter in zip(physical, circuit.parameters):
            assert parameter.lower - 1e-12 <= value <= parameter.upper + 1e-12


class TestGlovaLocalMc:
    def test_local_mc_scenario_succeeds_with_reduced_budget(self):
        config = GlovaConfig(
            verification=VerificationMethod.CORNER_LOCAL_MC,
            seed=1,
            max_iterations=150,
            initial_samples=40,
            verification_samples=15,
        )
        result = GlovaOptimizer(StrongArmLatch(), config).run()
        assert result.success
        assert result.verification_simulations > 0

    def test_failed_run_reports_failure(self):
        """With an impossible iteration budget the run fails gracefully."""
        config = GlovaConfig(
            verification=VerificationMethod.CORNER_LOCAL_MC,
            seed=0,
            max_iterations=1,
            initial_samples=10,
            verification_samples=10,
        )
        result = GlovaOptimizer(FloatingInverterAmplifier(), config).run()
        assert isinstance(result.success, bool)
        if not result.success:
            assert result.final_design is None
            assert result.iterations == 1


class TestAblationWiring:
    """Table-III switches must reach the relevant components."""

    def test_no_ensemble_critic(self):
        config = GlovaConfig(use_ensemble_critic=False, seed=0)
        optimizer = GlovaOptimizer(StrongArmLatch(), config)
        assert optimizer.agent.critic.ensemble_size == 1

    def test_no_mu_sigma(self):
        config = GlovaConfig(use_mu_sigma=False, seed=0)
        optimizer = GlovaOptimizer(StrongArmLatch(), config)
        assert not optimizer.verifier.use_mu_sigma

    def test_no_reordering(self):
        config = GlovaConfig(use_reordering=False, seed=0)
        optimizer = GlovaOptimizer(StrongArmLatch(), config)
        assert not optimizer.verifier.use_reordering

    def test_full_configuration(self):
        optimizer = GlovaOptimizer(StrongArmLatch(), GlovaConfig(seed=0))
        assert optimizer.agent.critic.ensemble_size == GlovaConfig().ensemble_size
        assert optimizer.verifier.use_mu_sigma
        assert optimizer.verifier.use_reordering


class TestLearnerPaths:
    """A whole run is bit-identical on both learner paths
    (``repro.core.agent``): the same report and the same final networks."""

    @pytest.mark.parametrize(
        "optimizer_class, circuit_class, verification",
        [
            (GlovaOptimizer, StrongArmLatch, VerificationMethod.CORNER_LOCAL_MC),
            (PVTSizingOptimizer, FloatingInverterAmplifier, VerificationMethod.CORNER),
        ],
        ids=["glova-C-MCL", "pvtsizing-C"],
    )
    def test_run_is_identical_on_both_paths(
        self, monkeypatch, forked, optimizer_class, circuit_class, verification
    ):
        outcomes = []
        for pipelined in (False, True):
            monkeypatch.setattr(agent_module, "pipeline_available", lambda: pipelined)
            optimizer = optimizer_class(
                circuit_class(), GlovaConfig(verification=verification, seed=0)
            )
            result = optimizer.run()
            agent = optimizer.agent
            outcomes.append(
                (
                    RunReport.from_result(0, result).to_dict(),
                    agent.critic.network.parameters.tobytes(),
                    agent.actor.network.parameters.tobytes(),
                )
            )
            assert len(forked) == int(pipelined)
        assert outcomes[0] == outcomes[1]
