"""The fault-tolerant simulation fabric, end to end.

Covers the retry policy (budget-safe accounting, deterministic backoff,
failure classification), the chaos harness (scripted fault schedules
through the ``"chaos"`` backend), the self-healing worker pool
(worker-death-mid-shard through a *real* pool, re-dispatch of only the
lost shards, heal caps), the shard watchdog (hung shards degrade to
FAILURE_NAN and re-simulate), checkpoint/resume (interrupted sweeps,
a SIGKILLed one included, replay completed seeds with zero
re-simulation) and the atomic writer behind it, the spill-store
maintenance utilities, and the process-group kill in the ngspice runner.

The chaos-equivalence tests pin the PR's acceptance criterion: under
injected worker-kill, hang, and flaky-engine schedules, a retrying run
completes with metrics and budget counts bit-identical to the fault-free
run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import repro.api as api
from repro.api import ExperimentConfig, run_experiment
from repro.core.optimizer import GlovaOptimizer
from repro.simulation import (
    BatchedBackend,
    ChaosFault,
    FailureKind,
    FaultInjectingBackend,
    FaultSchedule,
    NgspiceError,
    ReferenceScalarBackend,
    RetryPolicy,
    ShardWatchdog,
    SimulationBudget,
    WorkerPool,
    classify_failure,
    clear_spill_store,
    prune_spill_store,
    spill_store_stats,
)
from repro.simulation.service import (
    CachingBackend,
    failed_row_mask,
    resolve_retry,
)
from repro.simulation.sharding import dispatch_job_sharded, plan_chunk_bounds
from repro.simulation.ngspice import NgspiceRunner

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")


def assert_metrics_equal(circuit, metrics, reference):
    for name in circuit.metric_names:
        np.testing.assert_array_equal(metrics[name], reference[name])


def chaos_env(monkeypatch, schedule: FaultSchedule, inner: str = "batched"):
    """Publish a chaos schedule through monkeypatch (auto-undone)."""
    for key, value in schedule.to_env(inner).items():
        monkeypatch.setenv(key, value)


#: Fast, jitter-free policy used throughout (tests must not sleep).
FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.0)


# ----------------------------------------------------------------------
# RetryPolicy unit behaviour
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_on=frozenset({"not-a-kind"}))
        # inf would make the first retry's sleep raise; NaN would make
        # every delay NaN, which sleep skips.
        for name in ("backoff", "backoff_factor", "jitter"):
            for value in (float("inf"), float("nan")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    RetryPolicy(**{name: value})
        with pytest.raises(ValueError, match="backoff must be finite"):
            RetryPolicy.from_dict({"backoff": float("inf")})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("watchdog_floor", float("nan")),
            ("watchdog_floor", float("inf")),
            ("watchdog_floor", -1.0),
            ("watchdog_seconds_per_row", float("nan")),
            ("watchdog_seconds_per_row", float("inf")),
            ("watchdog_seconds_per_row", -0.5),
            ("watchdog_seconds_per_row", 0.0),
            ("max_attempts", 2.5),
            ("max_attempts", True),
            ("max_attempts", 0),
        ],
    )
    def test_refuses_bad_watchdog_and_attempt_values(
        self, field, value, tmp_path, capsys
    ):
        """A NaN floor would time every shard out at once, a NaN or
        negative per-row grace would silently become the floor, and a
        fractional attempt count is no count."""
        from repro.__main__ import main

        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})
        with pytest.raises(ValueError, match=field):
            RetryPolicy.from_dict({field: value})
        config_path = tmp_path / "experiment.json"
        config_path.write_text(
            json.dumps({"circuit": "sal", "retry": {field: value}})
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["--config", str(config_path), "--dry-run"])
        assert exit_info.value.code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [
            {"watchdog_seconds_per_row": 0.2, "watchdog_floor": 1.0},
            {"watchdog_seconds_per_row": 2.0, "watchdog_floor": 5.0},
            {"watchdog_seconds_per_row": None, "watchdog_floor": 0.0},
            {"max_attempts": 1},
            {"max_attempts": np.int64(4)},
        ],
    )
    def test_accepts_the_values_in_use(self, fields):
        RetryPolicy(**fields)

    def test_should_retry_respects_attempts_and_kinds(self):
        policy = RetryPolicy(max_attempts=2)
        assert policy.should_retry(FailureKind.WORKER_DEATH, 1)
        assert not policy.should_retry(FailureKind.WORKER_DEATH, 2)
        assert not policy.should_retry(FailureKind.OTHER, 1)

    def test_string_kinds_are_normalized(self):
        policy = RetryPolicy(retry_on=frozenset({"engine"}))
        assert policy.retry_on == frozenset({FailureKind.ENGINE})
        assert policy.should_retry(FailureKind.ENGINE, 1)
        assert not policy.should_retry(FailureKind.TIMEOUT, 1)

    def test_backoff_is_exponential_and_deterministic(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0, jitter=0.5)
        job_id = "ab" * 32
        first = policy.delay(job_id, 1)
        second = policy.delay(job_id, 2)
        # Exponential growth survives the bounded jitter (factor 2 vs
        # jitter at most 1.5x).
        assert second > first
        assert first == policy.delay(job_id, 1)  # seeded, reproducible
        other = RetryPolicy(
            backoff=0.1, backoff_factor=2.0, jitter=0.5, seed=99
        )
        assert other.delay(job_id, 1) != first  # seed moves the jitter

    def test_zero_backoff_never_sleeps(self):
        start = time.monotonic()
        FAST_RETRY.sleep("00" * 32, 5)
        assert time.monotonic() - start < 0.05

    def test_dict_round_trip(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff=0.25,
            jitter=0.0,
            retry_on=frozenset({FailureKind.ENGINE, FailureKind.TIMEOUT}),
            watchdog_seconds_per_row=2.0,
        )
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError, match="unknown RetryPolicy"):
            RetryPolicy.from_dict({"max_attempts": 2, "bogus": 1})

    def test_resolve_retry(self):
        assert resolve_retry(None) is None
        policy = RetryPolicy(max_attempts=2)
        assert resolve_retry(policy) is policy
        assert resolve_retry({"max_attempts": 2}).max_attempts == 2

    def test_watchdog_construction(self):
        assert RetryPolicy().watchdog() is None
        watchdog = RetryPolicy(
            watchdog_seconds_per_row=1.5, watchdog_floor=4.0
        ).watchdog()
        assert watchdog == ShardWatchdog(seconds_per_row=1.5, floor=4.0)
        assert watchdog.deadline(1) == 4.0  # floored
        assert watchdog.deadline(10) == 15.0


class TestClassifyFailure:
    def test_classification_table(self):
        assert (
            classify_failure(BrokenProcessPool("dead"))
            is FailureKind.WORKER_DEATH
        )
        assert classify_failure(TimeoutError()) is FailureKind.TIMEOUT
        assert (
            classify_failure(subprocess.TimeoutExpired("ngspice", 1.0))
            is FailureKind.TIMEOUT
        )
        assert classify_failure(NgspiceError("exit 3")) is FailureKind.ENGINE
        assert classify_failure(ChaosFault("injected")) is FailureKind.ENGINE
        assert classify_failure(RuntimeError("bug")) is FailureKind.OTHER
        assert classify_failure(ValueError("bug")) is FailureKind.OTHER


# ----------------------------------------------------------------------
# Chaos harness (in-process)
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown chaos mode"):
            FaultSchedule(mode="explode")

    def test_env_round_trip(self, monkeypatch):
        schedule = FaultSchedule(
            mode="nan",
            faults=4,
            ticket_dir="/tmp/tickets",
            hang_seconds=2.5,
            probability=0.25,
            seed=7,
        )
        chaos_env(monkeypatch, schedule, inner="scalar")
        assert FaultSchedule.from_env() == schedule
        assert os.environ["REPRO_CHAOS_INNER"] == "scalar"

    def test_tickets_are_consumed_exactly_once(self, tmp_path):
        schedule = FaultSchedule(
            mode="raise", faults=2, ticket_dir=str(tmp_path / "t")
        )
        assert schedule.arm() == 2
        assert schedule.tickets_left() == 2
        assert schedule._claim_ticket()
        assert schedule._claim_ticket()
        assert not schedule._claim_ticket()
        assert schedule.tickets_left() == 0

    def test_seeded_targeting_is_deterministic(self, strongarm, conditions_job):
        schedule = FaultSchedule(probability=0.5, seed=3)
        jobs = [conditions_job(strongarm, rows=2, seed=s) for s in range(32)]
        draws = [schedule.eligible(job) for job in jobs]
        assert draws == [schedule.eligible(job) for job in jobs]
        assert any(draws) and not all(draws)  # actually splits the jobs

    def test_probability_none_targets_everything(self, strongarm, conditions_job):
        schedule = FaultSchedule()
        assert schedule.eligible(conditions_job(strongarm, rows=2))


class TestChaosBackendInProcess:
    def test_flaky_then_succeed_with_retries(
        self, strongarm, service_factory, monkeypatch, conditions_job
    ):
        """The flaky-engine schedule: two injected failures, then clean.
        A 3-attempt policy rides them out; metrics and budget are
        bit-identical to the fault-free run."""
        chaos_env(monkeypatch, FaultSchedule(mode="raise", faults=2))
        service = service_factory(
            strongarm,
            backend="chaos",
            retry=FAST_RETRY,
        )
        job = conditions_job(strongarm, rows=6)
        result = service.run(job)
        reference = BatchedBackend().evaluate(strongarm, job)
        assert_metrics_equal(strongarm, result.metrics, reference)
        assert service.budget.total == 6  # charged exactly once
        assert service.backend.injected == 2

    def test_nan_block_schedule_retries_and_recovers(
        self, strongarm, service_factory, monkeypatch, conditions_job
    ):
        chaos_env(monkeypatch, FaultSchedule(mode="nan", faults=1))
        service = service_factory(
            strongarm, backend="chaos", retry=FAST_RETRY
        )
        job = conditions_job(strongarm, rows=5)
        result = service.run(job)
        reference = BatchedBackend().evaluate(strongarm, job)
        assert_metrics_equal(strongarm, result.metrics, reference)
        assert np.isfinite(
            result.metrics[strongarm.metric_names[0]]
        ).all()
        assert service.budget.total == 5

    def test_without_policy_chaos_fault_surfaces_refunded(
        self, strongarm, service_factory, monkeypatch, conditions_job
    ):
        chaos_env(monkeypatch, FaultSchedule(mode="raise", faults=1))
        service = service_factory(strongarm, backend="chaos")
        with pytest.raises(ChaosFault):
            service.run(conditions_job(strongarm, rows=4))
        assert service.budget.total == 0

    def test_retries_exhausted_surfaces_last_fault(
        self, strongarm, service_factory, monkeypatch, conditions_job
    ):
        chaos_env(monkeypatch, FaultSchedule(mode="raise", faults=None))
        service = service_factory(
            strongarm, backend="chaos", retry=FAST_RETRY
        )
        with pytest.raises(ChaosFault):
            service.run(conditions_job(strongarm, rows=4))
        assert service.budget.total == 0  # no attempt was charged

    def test_kill_mode_downgrades_to_raise_in_main_process(
        self, strongarm, monkeypatch, conditions_job
    ):
        """A mis-scripted kill schedule must never take down the driver
        (or the test runner): outside a pool worker it raises instead."""
        chaos_env(monkeypatch, FaultSchedule(mode="kill", faults=1))
        backend = FaultInjectingBackend()
        with pytest.raises(ChaosFault, match="kill"):
            backend.evaluate(strongarm, conditions_job(strongarm, rows=2))

    def test_async_resolution_retries_identically(
        self, strongarm, service_factory, monkeypatch, conditions_job
    ):
        """submit()/result() runs the same retry accounting as run()."""
        jobs = [conditions_job(strongarm, rows=4, seed=s) for s in range(3)]
        chaos_env(monkeypatch, FaultSchedule(mode="raise", faults=2))
        chaotic = service_factory(
            strongarm,
            backend="chaos",
            retry=FAST_RETRY,
        )
        futures = [chaotic.submit(job) for job in jobs]
        chaos_results = [future.result() for future in futures]

        clean = service_factory(strongarm)
        for job, chaos_result in zip(jobs, chaos_results):
            assert_metrics_equal(
                strongarm, chaos_result.metrics, clean.run(job).metrics
            )
        assert chaotic.budget.snapshot() == clean.budget.snapshot()


# ----------------------------------------------------------------------
# Self-healing WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPoolHealing:
    """Pool paths run on ``scalar``: the vectorized ``batched`` engine never
    shards."""

    def test_heal_rebuilds_a_working_executor(
        self, strongarm, pool_submissions, conditions_job
    ):
        with WorkerPool(
            2, circuit_names=(strongarm.name,), backend_names=("scalar",)
        ) as pool:
            job = conditions_job(strongarm, rows=8)
            before = dispatch_job_sharded(
                strongarm, ReferenceScalarBackend(), job, pool
            ).result()
            assert pool.heal(reason="test")
            assert pool.heals == 1
            assert pool.generation == 1
            assert not pool.poisoned
            submitted = len(pool_submissions)
            after = dispatch_job_sharded(
                strongarm, ReferenceScalarBackend(), job, pool
            ).result()
            assert len(pool_submissions) > submitted  # the healed pool ran it
            assert_metrics_equal(strongarm, after, before)

    def test_heal_cap_poisons_the_pool(self, strongarm, conditions_job):
        with WorkerPool(2, max_heals=0, eager=False) as pool:
            with pytest.warns(RuntimeWarning, match="poisoned"):
                assert not pool.heal(reason="test")
            assert pool.poisoned
            # Dispatchers refuse a poisoned pool: in-process fallback.
            assert (
                dispatch_job_sharded(
                    strongarm,
                    ReferenceScalarBackend(),
                    conditions_job(strongarm, rows=8),
                    pool,
                )
                is None
            )
            with pytest.raises(RuntimeError, match="poisoned"):
                pool.submit(sorted, ())

    def test_heal_broken_is_generation_guarded(self, strongarm):
        with WorkerPool(2, eager=False) as pool:
            assert pool.heal_broken(0)  # current generation: heals
            assert pool.heals == 1
            # A sibling shard reporting the same dead generation is a
            # no-op: the rebuild already happened.
            assert pool.heal_broken(0)
            assert pool.heals == 1

    def test_worker_death_mid_shard_heals_and_redispatches(
        self, strongarm, service_factory, monkeypatch, tmp_path, conditions_job
    ):
        """THE worker-death acceptance test: a chaos ``kill`` schedule
        makes one real pool worker ``os._exit`` mid-shard.  The pool
        heals, only the lost shards re-dispatch (one fleet-wide ticket =
        one death), and the final metrics and budget are bit-identical to
        the fault-free run."""
        schedule = FaultSchedule(
            mode="kill", faults=1, ticket_dir=str(tmp_path / "tickets")
        )
        chaos_env(monkeypatch, schedule, inner="scalar")
        schedule.arm()
        service = service_factory(
            strongarm,
            backend="chaos",
            workers=3,
            retry=FAST_RETRY,
        )
        job = conditions_job(strongarm, rows=12)
        result = service.run(job)

        reference = BatchedBackend().evaluate(strongarm, job)
        assert_metrics_equal(strongarm, result.metrics, reference)
        assert service.budget.total == 12
        assert schedule.tickets_left() == 0  # the fault really fired
        assert service.pool.heals >= 1  # the pool really died and healed
        assert not service.pool.poisoned
        # The healed pool keeps serving later jobs.
        second = conditions_job(strongarm, rows=12, seed=1)
        assert_metrics_equal(
            strongarm,
            service.run(second).metrics,
            BatchedBackend().evaluate(strongarm, second),
        )
        assert service.budget.total == 24


# ----------------------------------------------------------------------
# Shard watchdog
# ----------------------------------------------------------------------
class TestShardWatchdog:
    @staticmethod
    def hung_service(strongarm, service_factory, monkeypatch, tmp_path):
        """A 3-worker chaos service over ``scalar`` whose first shard
        hangs 120 s, far past its 1 s watchdog deadline."""
        schedule = FaultSchedule(
            mode="hang",
            faults=1,
            hang_seconds=120.0,
            ticket_dir=str(tmp_path / "tickets"),
        )
        chaos_env(monkeypatch, schedule, inner="scalar")
        schedule.arm()
        retry = RetryPolicy(
            max_attempts=3,
            backoff=0.0,
            watchdog_seconds_per_row=0.2,
            watchdog_floor=1.0,
        )
        service = service_factory(
            strongarm,
            backend="chaos",
            workers=3,
            retry=retry,
        )
        return service, schedule

    def test_deadline_scales_with_rows_and_floors(self):
        watchdog = ShardWatchdog(seconds_per_row=2.0, floor=5.0)
        assert watchdog.deadline(1) == 5.0
        assert watchdog.deadline(100) == 200.0

    def test_hung_shard_degrades_and_retry_recovers(
        self, strongarm, service_factory, monkeypatch, tmp_path, conditions_job
    ):
        """A chaos ``hang`` schedule wedges one shard far past its
        watchdog deadline.  The shard degrades to FAILURE_NAN instead of
        wedging the run, the hung worker is reclaimed by a heal, and the
        retry re-simulates the job — final metrics and budget identical
        to fault-free."""
        service, _ = self.hung_service(
            strongarm, service_factory, monkeypatch, tmp_path
        )
        job = conditions_job(strongarm, rows=12)
        start = time.monotonic()
        with pytest.warns(RuntimeWarning, match="watchdog"):
            result = service.run(job)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0  # nowhere near the 120s hang
        reference = BatchedBackend().evaluate(strongarm, job)
        assert_metrics_equal(strongarm, result.metrics, reference)
        assert service.budget.total == 12
        assert service.pool.heals >= 1

    def test_hung_shard_rows_have_nan_seconds(
        self, strongarm, service_factory, monkeypatch, tmp_path, conditions_job
    ):
        """On the shard handle, the rows of a shard that blew its
        watchdog deadline never ran: NaN in ``row_seconds`` and
        FAILURE_NAN in the metrics for exactly those rows, finite
        seconds and the reference metrics everywhere else."""
        service, schedule = self.hung_service(
            strongarm, service_factory, monkeypatch, tmp_path
        )
        job = conditions_job(strongarm, rows=12)
        handle = service.backend.dispatch(strongarm, job)
        with pytest.warns(RuntimeWarning, match="watchdog"):
            metrics = handle.result()
        assert schedule.tickets_left() == 0  # the hang really fired
        assert handle.timed_out_shards
        bounds = plan_chunk_bounds(job.batch, workers=3)
        hung = np.zeros(job.batch, dtype=bool)
        for index in handle.timed_out_shards:
            lo, hi = bounds[index]
            hung[lo:hi] = True
        np.testing.assert_array_equal(np.isnan(handle.row_seconds), hung)
        assert (handle.row_seconds[~hung] >= 0).all()
        np.testing.assert_array_equal(failed_row_mask(metrics), hung)
        reference = BatchedBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(
                metrics[name][~hung], reference[name][~hung]
            )


# ----------------------------------------------------------------------
# run_experiment chaos equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
def _fast_config(**kwargs) -> ExperimentConfig:
    base = dict(
        circuit="sal",
        method="C",
        algorithm="random_search",
        seeds=(0,),
        max_iterations=2,
        initial_samples=4,
        verification_samples=1,
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def _comparable(report) -> list:
    return [run.to_dict() for run in report.runs]


class TestChaosEquivalence:
    @pytest.fixture()
    def baseline(self):
        return run_experiment(_fast_config())

    def test_flaky_engine_equivalence(self, baseline, monkeypatch):
        # faults < max_attempts: even back-to-back faults on one job stay
        # inside its retry budget.
        chaos_env(monkeypatch, FaultSchedule(mode="raise", faults=2))
        chaotic = run_experiment(
            _fast_config(
                backend="chaos", retry={"max_attempts": 3, "backoff": 0.0}
            )
        )
        assert _comparable(chaotic) == _comparable(baseline)

    def test_nan_block_equivalence(self, baseline, monkeypatch):
        chaos_env(monkeypatch, FaultSchedule(mode="nan", faults=2))
        chaotic = run_experiment(
            _fast_config(
                backend="chaos", retry={"max_attempts": 3, "backoff": 0.0}
            )
        )
        assert _comparable(chaotic) == _comparable(baseline)

    def test_nan_block_without_retry_keeps_replay_buffer_finite(
        self, strongarm, monkeypatch
    ):
        """Unretried NaN blocks reach the reward boundary as the maximal
        violation, and the GLOVA run still finishes on a finite buffer."""
        chaos_env(
            monkeypatch, FaultSchedule(mode="nan", faults=6, probability=0.5)
        )
        config = ExperimentConfig(
            circuit="sal",
            method="C-MCL",
            max_iterations=8,
            initial_samples=6,
            verification_samples=4,
            backend="chaos",
        ).glova_config(seed=0)
        optimizer = GlovaOptimizer(strongarm, config)
        optimizer.run()
        rewards = optimizer.agent.buffer.all_rewards()
        assert np.isfinite(rewards).all()
        assert np.isfinite(optimizer.agent.buffer.all_designs()).all()
        # The schedule fired: a NaN block stored the maximal violation.
        assert -float(len(strongarm.metric_names)) in rewards

    def test_worker_kill_equivalence(self, monkeypatch, tmp_path):
        """Sharded fault-free vs sharded chaos-kill: same report.

        The chaos run wraps ``scalar``, an engine that shards, so the kill
        lands in a real pool worker (over the vectorized ``batched`` engine
        it would downgrade to an in-process raise)."""
        baseline = run_experiment(_fast_config(workers=3))
        schedule = FaultSchedule(
            mode="kill", faults=1, ticket_dir=str(tmp_path / "tickets")
        )
        chaos_env(monkeypatch, schedule, inner="scalar")
        schedule.arm()
        heals = []
        original_heal = WorkerPool.heal

        def counting_heal(pool, *args, **kwargs):
            heals.append(pool)
            return original_heal(pool, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "heal", counting_heal)
        chaotic = run_experiment(
            _fast_config(
                backend="chaos",
                workers=3,
                retry={"max_attempts": 3, "backoff": 0.0},
            )
        )
        assert schedule.tickets_left() == 0
        assert heals  # a pool worker really died and the pool healed
        assert _comparable(chaotic) == _comparable(baseline)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_fingerprint_ignores_seeds_and_checkpoint_dir(self):
        config = _fast_config(checkpoint_dir="/tmp/a")
        same = _fast_config(seeds=(5, 6), checkpoint_dir="/tmp/b")
        assert api._config_fingerprint(config) == api._config_fingerprint(
            same
        )
        changed = _fast_config(max_iterations=3)
        assert api._config_fingerprint(config) != api._config_fingerprint(
            changed
        )

    def test_interrupted_sweep_resumes_with_zero_resimulation(
        self, tmp_path, monkeypatch
    ):
        config = _fast_config(seeds=(0, 1), checkpoint_dir=str(tmp_path))
        first = run_experiment(config)

        calls = []
        original = api._run_seed

        def counting(config, seed):
            calls.append(seed)
            return original(config, seed)

        monkeypatch.setattr(api, "_run_seed", counting)
        resumed = run_experiment(config)
        assert calls == []  # zero re-simulation of completed seeds
        assert _comparable(resumed) == _comparable(first)
        # Downstream aggregation still works off rehydrated results.
        assert len(resumed.results) == 2
        assert resumed.results[0].simulations == first.results[0].simulations

        # Widening the sweep only simulates the new seed.
        wider = run_experiment(config.with_overrides(seeds=(0, 1, 2)))
        assert calls == [2]
        assert _comparable(wider)[:2] == _comparable(first)

    def test_config_change_invalidates_checkpoints(
        self, tmp_path, monkeypatch
    ):
        config = _fast_config(checkpoint_dir=str(tmp_path))
        run_experiment(config)
        calls = []
        original = api._run_seed

        def counting(config, seed):
            calls.append(seed)
            return original(config, seed)

        monkeypatch.setattr(api, "_run_seed", counting)
        run_experiment(config.with_overrides(max_iterations=3))
        assert calls == [0]  # fingerprint mismatch: re-simulated

    def test_corrupt_checkpoint_reruns_the_seed(self, tmp_path, monkeypatch):
        config = _fast_config(checkpoint_dir=str(tmp_path))
        first = run_experiment(config)
        path = api._checkpoint_path(
            str(tmp_path), api._config_fingerprint(config), 0
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{corrupt")
        calls = []
        original = api._run_seed

        def counting(config, seed):
            calls.append(seed)
            return original(config, seed)

        monkeypatch.setattr(api, "_run_seed", counting)
        again = run_experiment(config)
        assert calls == [0]
        assert _comparable(again) == _comparable(first)

    def test_run_report_result_round_trip(self):
        report = run_experiment(_fast_config())
        run = report.runs[0]
        rehydrated = run.to_result()
        assert api.RunReport.from_result(run.seed, rehydrated).to_dict() == (
            run.to_dict()
        )

    def test_sigkilled_sweep_resumes_bit_identically(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL a two-seed sweep the moment seed 0's checkpoint lands
        (seed 1 in flight); re-running the config replays seed 0 from
        disk, simulates only seed 1, and reports exactly what an
        uninterrupted run does."""
        checkpoint_dir = tmp_path / "checkpoints"
        config = _fast_config(seeds=(0, 1), checkpoint_dir=str(checkpoint_dir))
        reference = run_experiment(config.with_overrides(checkpoint_dir=None))
        # The child's seed 1 never finishes, so the kill is always
        # mid-sweep whatever the host's speed.
        code = """
import json, sys, time
from repro import api
run_seed = api._run_seed
def stalled(config, seed):
    if seed == 1:
        time.sleep(600)
    return run_seed(config, seed)
api._run_seed = stalled
api.run_experiment(api.ExperimentConfig.from_dict(json.loads(sys.argv[1])))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code, json.dumps(config.to_dict())],
            env=env,
        )
        seed0 = api._checkpoint_path(
            str(checkpoint_dir), api._config_fingerprint(config), 0
        )
        try:
            deadline = time.monotonic() + 60.0
            while not os.path.exists(seed0) and time.monotonic() < deadline:
                assert proc.poll() is None, "sweep exited before the kill"
                time.sleep(0.01)
            assert os.path.exists(seed0), "seed 0 checkpoint never landed"
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert os.listdir(os.path.dirname(seed0)) == ["seed-0.json"]

        calls = []
        original = api._run_seed

        def counting(config, seed):
            calls.append(seed)
            return original(config, seed)

        monkeypatch.setattr(api, "_run_seed", counting)
        resumed = run_experiment(config)
        assert calls == [1]
        assert _comparable(resumed) == _comparable(reference)


class TestAtomicWrite:
    """The one writer behind checkpoints and the disk cache spill."""

    def test_text_lands_as_utf8_in_a_new_directory(self, tmp_path):
        from repro.simulation.atomic import atomic_write

        path = tmp_path / "new" / "dir" / "record.json"
        atomic_write(str(path), '{"circuit": "Ω"}')
        assert path.read_bytes() == '{"circuit": "Ω"}'.encode("utf-8")

    def test_replacement_leaves_no_temp_files(self, tmp_path):
        from repro.simulation.atomic import atomic_write

        path = tmp_path / "record.bin"
        atomic_write(str(path), b"first")
        atomic_write(str(path), b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(tmp_path) == ["record.bin"]

    def test_failed_replace_keeps_the_old_record(self, tmp_path, monkeypatch):
        from repro.simulation.atomic import atomic_write

        path = tmp_path / "record.bin"
        atomic_write(str(path), b"intact")

        def interrupted(source, target):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            atomic_write(str(path), b"partial")
        assert path.read_bytes() == b"intact"
        assert os.listdir(tmp_path) == ["record.bin"]


# ----------------------------------------------------------------------
# Spill-store maintenance (the `repro cache` CLI)
# ----------------------------------------------------------------------
class TestSpillStoreMaintenance:
    def _populated_store(self, circuit, tmp_path, conditions_job, jobs=4):
        spill_dir = str(tmp_path / "store")
        cache = CachingBackend(BatchedBackend(), spill_dir=spill_dir)
        for seed in range(jobs):
            job = conditions_job(circuit, rows=3, seed=seed)
            cache.run(circuit, job)
        return spill_dir

    def test_stats_counts_entries_and_bytes(self, strongarm, tmp_path, conditions_job):
        spill_dir = self._populated_store(strongarm, tmp_path, conditions_job, jobs=4)
        stats = spill_store_stats(spill_dir)
        assert stats["entries"] == 4
        assert stats["total_bytes"] > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]
        assert spill_store_stats(str(tmp_path / "missing"))["entries"] == 0

    def test_prune_evicts_oldest_first(self, strongarm, tmp_path, conditions_job):
        spill_dir = self._populated_store(strongarm, tmp_path, conditions_job, jobs=4)
        records = sorted(
            (os.stat(path).st_mtime, path)
            for path in [
                os.path.join(root, name)
                for root, _dirs, names in os.walk(spill_dir)
                for name in names
            ]
        )
        # Make the eviction order unambiguous.
        for offset, (_mtime, path) in enumerate(records):
            os.utime(path, (offset, offset))
        survivor_budget = sum(
            os.stat(path).st_size for _mtime, path in records[-2:]
        )
        outcome = prune_spill_store(spill_dir, survivor_budget)
        assert outcome["removed_files"] == 2
        assert outcome["remaining_files"] == 2
        remaining = {
            name
            for _root, _dirs, names in os.walk(spill_dir)
            for name in names
        }
        newest = {os.path.basename(path) for _mtime, path in records[-2:]}
        assert remaining == newest

    def test_clear_empties_the_store(self, strongarm, tmp_path, conditions_job):
        spill_dir = self._populated_store(strongarm, tmp_path, conditions_job, jobs=3)
        assert clear_spill_store(spill_dir) == 3
        assert spill_store_stats(spill_dir)["entries"] == 0
        assert clear_spill_store(spill_dir) == 0  # idempotent

    def test_cache_cli_subcommand(self, strongarm, tmp_path, conditions_job):
        spill_dir = self._populated_store(strongarm, tmp_path, conditions_job, jobs=2)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "stats", spill_dir],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        stats = json.loads(completed.stdout)
        assert stats["entries"] == 2
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "clear", spill_dir],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout)["removed_files"] == 2


# ----------------------------------------------------------------------
# NgspiceRunner process-group kill
# ----------------------------------------------------------------------
@pytest.mark.skipif(os.name != "posix", reason="process groups are POSIX")
class TestNgspiceProcessGroupKill:
    def test_timeout_kills_the_whole_process_group(self, tmp_path):
        """A hung engine that spawned its own child: the timeout must
        reap *both* — the old ``subprocess.run`` path killed only the
        direct child and leaked the grandchild."""
        pid_file = tmp_path / "child.pid"
        engine = tmp_path / "hanging_engine.py"
        engine.write_text(
            "#!/usr/bin/env python3\n"
            "import subprocess, sys, time\n"
            f"child = subprocess.Popen(['sleep', '120'])\n"
            f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
            "time.sleep(120)\n"
        )
        engine.chmod(0o755)
        wrapper = tmp_path / "engine.sh"
        wrapper.write_text(
            f"#!/bin/sh\nexec {sys.executable} {engine} \"$@\"\n"
        )
        wrapper.chmod(0o755)
        runner = NgspiceRunner(executable=str(wrapper), timeout=1.0)

        run = runner.run_deck("* dummy deck\n.end\n", tag="hang")
        assert run.timed_out
        assert run.returncode is None

        assert pid_file.exists(), "engine never started its child"
        child_pid = int(pid_file.read_text())
        # SIGKILL to the group is immediate; allow a short reaping grace.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.kill(child_pid, 0)
            except ProcessLookupError:
                break  # the grandchild is gone: the group kill worked
            time.sleep(0.05)
        else:
            os.kill(child_pid, 9)  # clean up before failing
            pytest.fail("grandchild survived the process-group kill")
