"""Tests for the service-oriented simulation API and the experiment facade.

Covers the PR-3 redesign surface:

* :class:`SimJob` content hashing (stability, equality, shard slicing);
* :class:`CachingBackend` hit/miss behavior and its budget accounting;
* the one charge rule: a job counts once, when it produced metrics;
* scalar-vs-batched backend equivalence on all three paper circuits;
* design-axis sharding through the uniform job dispatcher;
* the circuit registry (decorator, aliases);
* :class:`ExperimentConfig` dict/JSON round trip; and
* a ``python -m repro`` CLI smoke test.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.api import ALGORITHMS
from repro.circuits import DramCoreSenseAmp, FloatingInverterAmplifier, StrongArmLatch
from repro.circuits.registry import (
    available_circuits,
    get_circuit,
    register_circuit,
    registered_class,
)
from repro.core.config import GlovaConfig
from repro.simulation import (
    BatchedBackend,
    CachingBackend,
    CircuitSimulator,
    NgspiceError,
    ReferenceScalarBackend,
    RetryPolicy,
    SimJob,
    SimulationBudget,
    SimulationPhase,
    SimulationService,
    resolve_backend,
)
from repro.simulation.service import failed_row_mask
from repro.spice.deck import FAILURE_NAN
from repro.variation.corners import (
    ProcessCorner,
    PVTCorner,
    full_corner_set,
    typical_corner,
)

# Circuit fixtures (paper_circuit, strongarm, ...) and the seeded_mismatch /
# service_factory helpers live in conftest.py, shared with the loop-batching
# and verification suites.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# SimJob value object
# ----------------------------------------------------------------------
class TestSimJob:
    def make_job(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.2, 0.8, size=14)
        mismatch = rng.standard_normal((4, 20))
        return SimJob.conditions(
            "strongarm_latch", x, (typical_corner(),), mismatch
        )

    def test_hash_is_stable_and_content_keyed(self):
        first, second = self.make_job(), self.make_job()
        assert first is not second
        assert first == second
        assert first.job_id == second.job_id
        assert hash(first) == hash(second)
        # Usable as a cache key.
        assert {first: "hit"}[second] == "hit"

    def test_hash_changes_with_content(self):
        base = self.make_job(seed=0)
        other = self.make_job(seed=1)
        assert base != other
        assert base.job_id != other.job_id
        # Corners participate in the digest too.
        moved = SimJob.conditions(
            "strongarm_latch",
            base.designs[0],
            (PVTCorner(ProcessCorner.SS, 0.8, -40.0),),
            base.mismatch,
        )
        assert moved.job_id != base.job_id

    def test_hash_distinguishes_rounded_corner_displays(self):
        # PVTCorner.name rounds vdd to one decimal; the digest must use the
        # raw floats so physically different corners never collide.
        base = self.make_job()
        low = SimJob.conditions(
            "strongarm_latch",
            base.designs[0],
            (PVTCorner(ProcessCorner.TT, 0.82, 27.0),),
            base.mismatch,
        )
        high = SimJob.conditions(
            "strongarm_latch",
            base.designs[0],
            (PVTCorner(ProcessCorner.TT, 0.84, 27.0),),
            base.mismatch,
        )
        assert low.corners[0].name == high.corners[0].name
        assert low.job_id != high.job_id

    def test_job_does_not_freeze_caller_arrays(self):
        x = np.full(14, 0.5)
        mismatch = np.zeros((4, 20))
        SimJob.conditions("strongarm_latch", x, (typical_corner(),), mismatch)
        mismatch[0, 0] = 1.0  # the caller's array must stay writable
        x[0] = 0.9

    def test_batch_and_cost(self):
        job = self.make_job()
        assert job.batch == 4
        assert job.cost == 4
        designs = np.random.default_rng(2).uniform(size=(6, 14))
        design_job = SimJob.design_batch(
            "strongarm_latch", designs, typical_corner()
        )
        assert design_job.batch == 6
        assert design_job.cost == 6

    def test_shard_slices_rows(self):
        job = self.make_job()
        shard = job.shard(1, 3)
        assert shard.batch == 2
        assert np.array_equal(shard.mismatch, job.mismatch[1:3])
        assert shard.job_id != job.job_id

    def test_validation(self):
        x = np.zeros(14)
        with pytest.raises(ValueError, match="at least one corner"):
            SimJob.conditions("sal", x, (), None)
        with pytest.raises(ValueError, match="lengths differ"):
            SimJob.conditions(
                "sal",
                x,
                (typical_corner(), typical_corner()),
                np.zeros((3, 20)),
            )
        with pytest.raises(ValueError, match="nominal mismatch"):
            SimJob(
                circuit_name="sal",
                designs=np.zeros((2, 14)),
                corners=(typical_corner(),),
                mismatch=np.zeros((2, 20)),
                axis="designs",
            )

    def test_jobs_are_immutable(self):
        job = self.make_job()
        with pytest.raises((ValueError, RuntimeError)):
            job.designs[0, 0] = 1.0
        with pytest.raises((ValueError, RuntimeError)):
            job.mismatch[0, 0] = 1.0


# ----------------------------------------------------------------------
# Budget charging + caching
# ----------------------------------------------------------------------
class TestBudgetIdempotentCharge:
    def test_plain_charges_accumulate(self):
        budget = SimulationBudget()
        budget.charge(SimulationPhase.VERIFICATION, 3)
        budget.charge(SimulationPhase.VERIFICATION, 3)
        assert budget.total == 6

    def test_idempotent_charges_are_per_phase(self, strongarm):
        """Re-simulating the same block in another phase is still charged."""
        from dataclasses import replace

        service = SimulationService(strongarm)
        x = np.full(strongarm.dimension, 0.5)
        job = SimJob.conditions(
            strongarm.name,
            x,
            (typical_corner(),),
            None,
            SimulationPhase.OPTIMIZATION,
        )
        service.run(job)
        service.run(replace(job, phase=SimulationPhase.VERIFICATION))
        snapshot = service.budget.snapshot()
        assert snapshot["optimization"] == 1
        assert snapshot["verification"] == 1


class ScriptedBackend(BatchedBackend):
    """The batched engine, failing attempts as scripted.

    ``script`` holds one step per call: ``"raise"`` raises an engine
    error, an int ``k`` tags the first ``k`` rows of every metric
    FAILURE_NAN (0, and every call past the script, is clean).  ``seen``
    records the service's budget total at each call."""

    def __init__(self, script=()):
        self.script = list(script)
        self.seen = []
        self.service = None

    def evaluate(self, circuit, job):
        self.seen.append(self.service.budget.total)
        step = self.script.pop(0) if self.script else 0
        if step == "raise":
            raise NgspiceError("scripted engine failure")
        metrics = super().evaluate(circuit, job)
        for values in metrics.values():
            values[:step] = FAILURE_NAN
        return metrics


def scripted_service(circuit, script=(), retry=None):
    backend = ScriptedBackend(script)
    service = SimulationService(circuit, backend=backend, retry=retry)
    backend.service = service
    return service, backend


#: The two ways to resolve a job; both share one accounting path.
RESOLVE = {
    "run": lambda service, job: service.run(job),
    "submit": lambda service, job: service.submit(job).result(),
}


class TestChargeOnMetrics:
    """A job counts once, when an attempt returned metrics."""

    def test_backend_sees_the_pre_job_total(self, strongarm, conditions_job):
        """The charge lands after the evaluation, on ``run`` and on
        ``submit(...).result()`` alike."""
        service, backend = scripted_service(strongarm)
        with service:
            service.run(conditions_job(strongarm, rows=4))
            service.submit(conditions_job(strongarm, rows=3, seed=1)).result()
        assert backend.seen == [0, 4]
        assert service.budget.total == 7

    @pytest.mark.parametrize("entry", sorted(RESOLVE))
    @pytest.mark.parametrize("failed_rows, charged", [(1, 4), (4, 0)])
    def test_failure_nan_rows_without_a_policy(
        self, strongarm, conditions_job, failed_rows, charged, entry
    ):
        """A block with any engine-produced row is charged in full; a block
        of nothing but FAILURE_NAN rows is not charged at all."""
        service, _ = scripted_service(strongarm, script=[failed_rows])
        with service:
            result = RESOLVE[entry](service, conditions_job(strongarm, rows=4))
        assert int(failed_row_mask(result.metrics).sum()) == failed_rows
        assert service.budget.total == charged

    @pytest.mark.parametrize("failure", ["raise", 1, 4])
    def test_retried_attempt_is_never_charged(
        self, strongarm, conditions_job, failure
    ):
        service, backend = scripted_service(
            strongarm,
            script=[failure],
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
        )
        with service:
            result = service.run(conditions_job(strongarm, rows=4))
        assert not failed_row_mask(result.metrics).any()
        assert backend.seen == [0, 0]  # the failed attempt charged nothing
        assert service.budget.total == 4

    @pytest.mark.parametrize("failed_rows, charged", [(1, 4), (4, 0)])
    def test_exhausted_policy_charges_the_last_block_by_the_rule(
        self, strongarm, conditions_job, failed_rows, charged
    ):
        service, backend = scripted_service(
            strongarm,
            script=[failed_rows, failed_rows],
            retry=RetryPolicy(max_attempts=2, backoff=0.0),
        )
        with service:
            result = service.run(conditions_job(strongarm, rows=4))
        assert int(failed_row_mask(result.metrics).sum()) == failed_rows
        assert backend.seen == [0, 0]
        assert service.budget.total == charged


class TestCachingBackend:
    def test_hit_charges_zero_budget(self, strongarm, seeded_mismatch):
        service = SimulationService(strongarm, cache=True)
        x = np.full(strongarm.dimension, 0.4)
        mismatch = seeded_mismatch(strongarm, x, 6)
        job = SimJob.conditions(
            strongarm.name, x, (typical_corner(),), mismatch.samples
        )
        first = service.run(job)
        assert not first.cached
        assert service.budget.total == 6
        second = service.run(job)
        assert second.cached
        assert service.budget.total == 6  # hit = zero charge
        assert service.cache.hits == 1
        assert service.cache.misses == 1
        for name in strongarm.metric_names:
            assert np.array_equal(first.metrics[name], second.metrics[name])

    def test_hit_returns_fresh_arrays(self, strongarm):
        cache = CachingBackend(BatchedBackend())
        x = np.full(strongarm.dimension, 0.4)
        job = SimJob.conditions(strongarm.name, x, (typical_corner(),), None)
        first = cache.run(strongarm, job)
        first.metrics[strongarm.metric_names[0]][0] = -1.0
        second = cache.run(strongarm, job)
        assert second.metrics[strongarm.metric_names[0]][0] != -1.0

    def test_distinct_jobs_miss(self, strongarm):
        service = SimulationService(strongarm, cache=True)
        x = np.full(strongarm.dimension, 0.4)
        service.run(SimJob.conditions(strongarm.name, x, (typical_corner(),), None))
        service.run(
            SimJob.conditions(
                strongarm.name, x, (PVTCorner(ProcessCorner.FF, 0.8, 80.0),), None
            )
        )
        assert service.cache.misses == 2
        assert service.budget.total == 2

    def test_mismatched_circuit_rejected(self, strongarm):
        service = SimulationService(strongarm)
        job = SimJob.conditions(
            "floating_inverter_amplifier", np.zeros(6), (typical_corner(),), None
        )
        with pytest.raises(ValueError, match="targets circuit"):
            service.run(job)


# ----------------------------------------------------------------------
# Backend equivalence + sharding
# ----------------------------------------------------------------------
class TestScalarVsBatchedBackend:
    def simulators(self, circuit):
        return (
            CircuitSimulator(circuit, backend="batched"),
            CircuitSimulator(circuit, backend="scalar"),
        )

    def test_mismatch_set_equivalent(self, paper_circuit, seeded_mismatch):
        circuit = paper_circuit
        batched, scalar = self.simulators(circuit)
        x = np.full(circuit.dimension, 0.55)
        mismatch = seeded_mismatch(circuit, x, 8)
        fast = batched.simulate_mismatch_set(x, typical_corner(), mismatch)
        slow = scalar.simulate_mismatch_set(x, typical_corner(), mismatch)
        assert batched.budget.total == scalar.budget.total == 8
        for name in circuit.metric_names:
            assert fast[name].shape == slow[name].shape == (8,)
            np.testing.assert_allclose(fast[name], slow[name], rtol=0, atol=1e-12)

    def test_corner_sweep_equivalent(self, paper_circuit):
        circuit = paper_circuit
        batched, scalar = self.simulators(circuit)
        x = np.full(circuit.dimension, 0.45)
        corners = full_corner_set()
        fast = batched.simulate_corners(x, corners)
        slow = scalar.simulate_corners(x, corners)
        for name in circuit.metric_names:
            assert fast[name].shape == slow[name].shape == (len(corners),)
            np.testing.assert_allclose(fast[name], slow[name], rtol=0, atol=1e-12)

    def test_design_batch_equivalent(self, paper_circuit):
        circuit = paper_circuit
        batched, scalar = self.simulators(circuit)
        designs = np.random.default_rng(11).uniform(
            0.2, 0.8, size=(5, circuit.dimension)
        )
        fast = batched.simulate_designs(designs)
        slow = scalar.simulate_designs(designs)
        for name in circuit.metric_names:
            assert fast[name].shape == slow[name].shape == (5,)
            np.testing.assert_allclose(fast[name], slow[name], rtol=0, atol=1e-12)


class TestDesignAxisSharding:
    def test_sharded_design_batch_identical(self, strongarm, pool_submissions):
        designs = np.random.default_rng(7).uniform(
            0.2, 0.8, size=(8, strongarm.dimension)
        )
        single = CircuitSimulator(strongarm, workers=1).simulate_designs(designs)
        # scalar shards; the vectorized batched engine would stay in-process.
        with CircuitSimulator(strongarm, backend="scalar", workers=2) as sharded_sim:
            sharded = sharded_sim.simulate_designs(designs)
            assert pool_submissions  # the shards really ran on the pool
            assert sharded_sim.budget.total == 8
        for name in strongarm.metric_names:
            assert np.array_equal(sharded[name], single[name])

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown simulation backend"):
            resolve_backend("hspice")


# ----------------------------------------------------------------------
# Registry redesign
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_and_aliases(self):
        assert available_circuits() == [
            "strongarm_latch",
            "floating_inverter_amplifier",
            "dram_core_ocsa",
        ]
        assert isinstance(get_circuit("sal"), StrongArmLatch)
        assert isinstance(get_circuit("DRAM"), DramCoreSenseAmp)
        assert registered_class("strongarm_latch") is StrongArmLatch
        assert registered_class("nonexistent") is None

    def test_duplicate_name_rejected(self):
        class Impostor(StrongArmLatch):
            name = "impostor"

        with pytest.raises(ValueError, match="already registered"):
            register_circuit(Impostor, aliases=("sal",))
        # Validated before inserting: the rejected class left no key behind.
        assert registered_class("impostor") is None

    def test_unknown_circuit_error_lists_options(self):
        with pytest.raises(KeyError, match="strongarm_latch"):
            get_circuit("no_such_circuit")


# ----------------------------------------------------------------------
# Experiment facade
# ----------------------------------------------------------------------
class TestExperimentConfig:
    def test_json_round_trip(self):
        from repro.api import ExperimentConfig

        config = ExperimentConfig(
            circuit="fia",
            method="C-MCL",
            algorithm="pvtsizing",
            seeds=(0, 1),
            max_iterations=12,
            verification_samples=4,
            backend="scalar",
            workers=2,
            cache_simulations=True,
            overrides={"use_reordering": False},
        )
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config
        assert clone.to_dict() == config.to_dict()
        assert json.loads(config.to_json())["seeds"] == [0, 1]
        # Frozen value object: usable as a dict key (overrides excluded
        # from the generated hash).
        assert {config: "report"}[clone] == "report"

    def test_rejects_unknown_fields_and_values(self):
        from repro.api import ExperimentConfig

        with pytest.raises(ValueError, match="unknown ExperimentConfig fields"):
            ExperimentConfig.from_dict({"circus": "sal"})
        with pytest.raises(ValueError, match="verification method"):
            ExperimentConfig(method="corner-ish")
        with pytest.raises(ValueError, match="algorithm"):
            ExperimentConfig(algorithm="gradient_descent")
        with pytest.raises(ValueError, match="sizing circuit"):
            ExperimentConfig(circuit="no_such_circuit")
        with pytest.raises(ValueError, match="at least one seed"):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError, match=r"non-negative, got \[-1\]"):
            ExperimentConfig(seeds=(-1,))
        # Not only the first seed: a later one would fail mid-sweep.
        with pytest.raises(ValueError, match=r"non-negative, got \[-2, -5\]"):
            ExperimentConfig(seeds=(0, -2, 3, -5))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ExperimentConfig(overrides={"seed": -1})

    @pytest.mark.parametrize(
        "seeds", ["12", [1.5], [True]], ids=["string", "float", "bool"]
    )
    def test_rejects_seeds_that_are_not_integers(self, seeds, tmp_path, capsys):
        """A string is not iterated into digit seeds, and a float or a
        bool is not silently turned into seed 1."""
        from repro.__main__ import main
        from repro.api import ExperimentConfig

        with pytest.raises(ValueError, match="seeds must be"):
            ExperimentConfig.from_dict({"circuit": "sal", "seeds": seeds})
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps({"circuit": "sal", "seeds": seeds}))
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(config_path), "--dry-run"])
        assert exit_info.value.code == 2
        assert "seeds must be" in capsys.readouterr().err

    def test_numpy_integer_seeds_are_accepted(self):
        from repro.api import ExperimentConfig

        config = ExperimentConfig(seeds=(np.int64(3), np.uint8(1), 0))
        assert config.seeds == (3, 1, 0)
        assert all(type(seed) is int for seed in config.seeds)

    @pytest.mark.parametrize(
        "field",
        ["ensemble_size", "batch_size", "hidden_size", "gradient_steps_per_iteration"],
    )
    def test_rejects_nonpositive_agent_override_at_construction(self, field):
        from repro.api import ExperimentConfig

        with pytest.raises(ValueError, match=field):
            ExperimentConfig(circuit="sal", method="C", overrides={field: 0})

    @pytest.mark.parametrize(
        "field, method",
        [
            ("workers", "C"),
            ("verification_chunk", "C"),
            ("optimization_samples", "C-MCL"),
            ("initial_samples", "C"),
        ],
    )
    def test_rejects_zero_count_at_construction(self, field, method):
        from repro.api import ExperimentConfig

        with pytest.raises(ValueError, match=field):
            ExperimentConfig(circuit="sal", method=method, **{field: 0})

    def test_rejects_unknown_override_at_construction(self):
        from repro.api import ExperimentConfig

        with pytest.raises(TypeError, match="no_such_knob"):
            ExperimentConfig(overrides={"no_such_knob": 1})

    def test_schedule_is_not_configurable(self):
        """The control loop has one schedule: a config that still carries
        ``pipeline`` fails like any unknown field, at every surface."""
        from repro.api import ExperimentConfig
        from repro.core.config import (
            GlovaConfig,
            VerificationMethod,
            operational_config,
        )

        payload = ExperimentConfig().to_dict()
        assert "pipeline" not in payload
        payload["pipeline"] = False
        with pytest.raises(
            ValueError,
            match=re.escape("unknown ExperimentConfig fields: ['pipeline']"),
        ):
            ExperimentConfig.from_dict(payload)
        with pytest.raises(TypeError, match="pipeline"):
            ExperimentConfig(overrides={"pipeline": False})
        with pytest.raises(TypeError, match="pipeline"):
            GlovaConfig(pipeline=False)
        with pytest.raises(TypeError, match="pipeline"):
            operational_config(VerificationMethod.CORNER, pipeline=False)

    def test_glova_config_plumbs_service_knobs(self):
        from repro.api import ExperimentConfig

        config = ExperimentConfig(
            circuit="sal",
            workers=3,
            backend="scalar",
            cache_simulations=True,
            overrides={"use_mu_sigma": False},  # a Table-III ablation
        )
        glova = config.glova_config(seed=0)
        assert glova.use_mu_sigma is False
        optimizer = ALGORITHMS["glova"](config.build_circuit(), glova)
        with optimizer.simulator:
            service = optimizer.simulator.service
            assert service.workers == 3
            assert service.backend_name == "scalar"
            assert service.cache is not None
        assert optimizer.verifier.use_mu_sigma is False

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_service_settings_reach_every_algorithm(self, algorithm, tmp_path):
        """Results are bit-identical across backends, worker counts and
        caches, so a dropped setting would move no digest or table: the
        check is on the service each algorithm builds."""
        policy = RetryPolicy(max_attempts=4, backoff=0.0, jitter=0.0)
        cache_dir = tmp_path / "cache"
        config = GlovaConfig(
            backend="scalar",
            workers=2,
            cache_dir=str(cache_dir),
            retry=policy.to_dict(),
            seed=0,
        )
        optimizer = ALGORITHMS[algorithm](StrongArmLatch(), config)
        with optimizer.simulator:
            service = optimizer.simulator.service
            assert service.backend_name == "scalar"
            assert service.pool is not None and service.pool.workers == 2
            assert service.cache.spill_dir == str(cache_dir)
            assert service.retry == policy

    def test_run_baseline_requires_baseline(self):
        from repro.api import ExperimentConfig, run_baseline

        with pytest.raises(ValueError, match="baseline algorithm"):
            run_baseline(ExperimentConfig(algorithm="glova"))


class TestFacadeRuns:
    def test_random_search_report_is_serializable(self):
        from repro.api import ExperimentConfig, run_baseline

        config = ExperimentConfig(
            circuit="sal",
            method="C",
            algorithm="random_search",
            seeds=(0,),
            max_iterations=2,
        )
        report = run_baseline(config)
        assert len(report.runs) == 1
        payload = json.loads(report.to_json())
        assert payload["config"]["circuit"] == "sal"
        assert payload["runs"][0]["simulations"]["total"] > 0
        assert report.total_simulations == payload["runs"][0]["simulations"]["total"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCommandLine:
    def run_cli(self, *argv):
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )

    def test_dry_run_smoke(self):
        result = self.run_cli("--circuit", "sal", "--method", "C", "--dry-run")
        assert result.returncode == 0, result.stderr
        assert "dry run" in result.stdout
        assert "strongarm_latch" in result.stdout
        assert "Predefined corners:   30" in result.stdout
        assert "pipeline" not in result.stdout

    @pytest.mark.parametrize("flag", ["--pipeline", "--no-pipeline"])
    def test_schedule_flags_are_rejected(self, flag):
        result = self.run_cli("--circuit", "sal", flag, "--dry-run")
        assert result.returncode == 2
        assert f"unrecognized arguments: {flag}" in result.stderr

    def test_list_circuits(self):
        result = self.run_cli("--list-circuits")
        assert result.returncode == 0, result.stderr
        assert "strongarm_latch" in result.stdout

    def test_unknown_sizing_circuit_rejected(self):
        result = self.run_cli("--circuit", "nosuch", "--dry-run")
        assert result.returncode == 2
        assert "unknown sizing circuit 'nosuch'" in result.stderr

    def test_negative_seed_rejected_before_any_run(self):
        result = self.run_cli("--circuit", "sal", "--seeds", "0,-1", "--dry-run")
        assert result.returncode == 2
        assert "seeds must be non-negative, got [-1]" in result.stderr

    def test_infinite_retry_backoff_rejected(self):
        result = self.run_cli(
            "--circuit", "sal", "--retries", "2", "--retry-backoff", "inf",
            "--dry-run",
        )
        assert result.returncode == 2
        assert "backoff must be finite, got inf" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [["--retry-backoff", "0.2"], ["--retries", "0", "--retry-backoff", "0.2"]],
        ids=["alone", "retries-0"],
    )
    def test_retry_backoff_alone_is_a_usage_error(self, argv, capsys):
        """``--retry-backoff`` does not turn retries on by itself."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--circuit", "sal", "--method", "C", *argv, "--dry-run"])
        assert exit_info.value.code == 2
        assert "--retry-backoff needs retries on" in capsys.readouterr().err

    def test_retry_backoff_sets_the_backoff_of_retries(self, capsys):
        from repro.__main__ import main

        argv = ["--circuit", "sal", "--method", "C", "--retries", "2",
                "--retry-backoff", "0.2", "--dry-run"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Retry policy:         up to 3 attempts/job" in out
        assert '"backoff": 0.2,' in out

    def test_retry_backoff_sets_the_backoff_of_a_config_policy(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        config_path = tmp_path / "experiment.json"
        config_path.write_text(
            json.dumps({"circuit": "sal", "retry": {"max_attempts": 5}})
        )
        argv = ["--config", str(config_path), "--retry-backoff", "0.2", "--dry-run"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Retry policy:         up to 5 attempts/job" in out
        assert '"backoff": 0.2,' in out

    def test_no_cache_flag_overrides_config_file(self, tmp_path):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(
            json.dumps({"circuit": "sal", "cache_simulations": True})
        )
        result = self.run_cli(
            "--config", str(config_path), "--no-cache", "--dry-run"
        )
        assert result.returncode == 0, result.stderr
        assert "cache=off" in result.stdout
