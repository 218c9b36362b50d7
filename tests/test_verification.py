"""Tests for the hierarchical verification algorithm (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.config import VerificationMethod, operational_config
from repro.core.replay import LastWorstCaseBuffer
from repro.core.reward import rewards_from_matrix
from repro.core.spec import DesignSpec
from repro.core.verification import Verifier
from repro.simulation import CircuitSimulator
from repro.circuits import StrongArmLatch


def make_verifier(
    verification_samples=6,
    use_mu_sigma=True,
    use_reordering=True,
    method=VerificationMethod.CORNER_LOCAL_MC,
    seed=0,
):
    circuit = StrongArmLatch()
    simulator = CircuitSimulator(circuit)
    spec = DesignSpec.from_circuit(circuit)
    operational = operational_config(
        method, optimization_samples=3, verification_samples=verification_samples
    )
    verifier = Verifier(
        simulator,
        spec,
        operational,
        beta2=4.0,
        use_mu_sigma=use_mu_sigma,
        use_reordering=use_reordering,
        rng=np.random.default_rng(seed),
    )
    buffer = LastWorstCaseBuffer(operational.corners)
    return circuit, simulator, verifier, buffer


class TestCornerVerification:
    def test_feasible_design_passes_corner_only(self, feasible_strongarm_design):
        # Corner-only: one simulation per corner, no Monte Carlo.
        circuit, simulator, verifier, buffer = make_verifier(
            method=VerificationMethod.CORNER, verification_samples=1
        )
        # Robust designs at typical may still fail some corner; search a few
        # candidates derived from the fixture by inflating caps and widths.
        design = np.clip(feasible_strongarm_design + 0.1, 0.0, 1.0)
        outcome = verifier.verify(design, buffer)
        assert outcome.simulations <= 30
        if outcome.passed:
            assert outcome.failed_corner is None
        else:
            assert outcome.failed_corner is not None

    def test_infeasible_design_fails_fast(self):
        circuit, simulator, verifier, buffer = make_verifier(
            method=VerificationMethod.CORNER, verification_samples=1
        )
        hopeless = np.zeros(circuit.dimension)  # minimum sizes everywhere
        outcome = verifier.verify(hopeless, buffer)
        assert not outcome.passed
        assert outcome.failure_stage in ("mu_sigma", "screen")
        # Early abort: far fewer simulations than the full 30-corner sweep.
        assert outcome.simulations < 30


class TestMonteCarloVerification:
    def test_simulation_accounting(self):
        circuit, simulator, verifier, buffer = make_verifier(verification_samples=5)
        design = np.full(circuit.dimension, 0.7)
        outcome = verifier.verify(design, buffer)
        assert outcome.simulations == simulator.budget.verification_simulations
        # Never more than the full budget: 30 corners x 5 samples.
        assert outcome.simulations <= 30 * 5

    def test_passed_verification_runs_full_budget(self, feasible_strongarm_design):
        circuit, simulator, verifier, buffer = make_verifier(verification_samples=4)
        robust = np.clip(feasible_strongarm_design + 0.15, 0.0, 1.0)
        outcome = verifier.verify(robust, buffer)
        if outcome.passed:
            assert outcome.simulations == 30 * 4
            assert outcome.worst_reward == pytest.approx(0.2)

    def test_reusable_matrix_is_not_resimulated(self, feasible_strongarm_design):
        circuit, simulator, verifier, buffer = make_verifier(verification_samples=4)
        design = np.clip(feasible_strongarm_design + 0.15, 0.0, 1.0)
        worst_corner = buffer.worst_corner()

        from repro.simulation.budget import SimulationPhase
        from repro.variation.mismatch import MismatchSampler

        sampler = MismatchSampler(
            circuit.mismatch_model,
            include_global=False,
            include_local=True,
            rng=np.random.default_rng(3),
        )
        mismatch_set = sampler.sample(circuit.denormalize(design), 3)
        block = simulator.simulate_mismatch_set(
            design, worst_corner, mismatch_set, phase=SimulationPhase.OPTIMIZATION
        )
        matrix = simulator.metrics_matrix(block, verifier.spec.metric_names)
        before = simulator.budget.verification_simulations
        outcome = verifier.verify(
            design, buffer, reusable={worst_corner.name: (matrix, mismatch_set)}
        )
        used = simulator.budget.verification_simulations - before
        # The reused corner's N' screening simulations were not re-run.
        assert used <= 30 * 4 - 3
        # It was screened first, on exactly the matrix it was handed: the
        # verdict and rewards re-simulating its mismatch set would give.
        resimulated = simulator.metrics_matrix(
            simulator.simulate_mismatch_set(design, worst_corner, mismatch_set),
            verifier.spec.metric_names,
        )
        assert resimulated.tobytes() == matrix.tobytes()
        screen = verifier.evaluator.evaluate(resimulated)
        if screen.passed:
            report = outcome.corner_reports[0]
            assert report.corner == worst_corner
            assert report.metrics is matrix
            assert report.mismatch_set is mismatch_set
            assert report.mu_sigma == screen
        else:
            assert used == 0
            assert outcome.failed_corner == worst_corner.name
            assert outcome.failure_stage == "mu_sigma"
            assert outcome.worst_reward == float(
                rewards_from_matrix(verifier.spec, resimulated).min()
            )

    def test_failure_reports_corner_and_stage(self):
        circuit, simulator, verifier, buffer = make_verifier(verification_samples=5)
        marginal = np.full(circuit.dimension, 0.35)
        outcome = verifier.verify(marginal, buffer)
        if not outcome.passed:
            assert outcome.failed_corner is not None
            assert outcome.failure_stage in ("mu_sigma", "screen", "full_mc")
            assert outcome.worst_reward <= 0.2


class TestAblationSwitches:
    def test_no_mu_sigma_uses_plain_screen(self):
        circuit, simulator, verifier, buffer = make_verifier(use_mu_sigma=False)
        hopeless = np.zeros(circuit.dimension)
        outcome = verifier.verify(hopeless, buffer)
        assert not outcome.passed
        assert outcome.failure_stage == "screen"

    def test_reordering_flag_changes_order_not_outcome(self, feasible_strongarm_design):
        design = np.clip(feasible_strongarm_design + 0.15, 0.0, 1.0)
        results = []
        for use_reordering in (True, False):
            circuit, simulator, verifier, buffer = make_verifier(
                verification_samples=4, use_reordering=use_reordering, seed=7
            )
            results.append(verifier.verify(design, buffer).passed)
        assert results[0] == results[1]
