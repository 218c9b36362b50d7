"""Async service path: determinism, accounting, pools, disk cache.

The futures-based execution path (``SimulationService.submit`` →
:class:`SimFuture`) promises that *pipelined* control loops are
**bit-identical** to their sequential twins — metrics, seeded streams,
budget totals, uncharged failures — because all accounting happens at
resolution time, in resolution order.  This suite pins that
contract down:

* ``submit``/``result`` vs ``run`` equivalence on all three paper
  circuits (and through a real worker pool);
* resolution-time accounting: memoized single-shot resolution, cancelled
  futures charge nothing, cache hits at submission, raising workers and
  graceful all-failure blocks left uncharged;
* double-buffered verification and the overlapped seed phase replaying
  the sequential schedule bit-for-bit (including on abort paths).  The
  reference is the control loop's own ``iter_resolved`` loop patched to
  lookahead 0 (:func:`lookahead_zero`), one job submitted and resolved
  at a time; no config field selects it;
* the persistent warm :class:`WorkerPool` lifecycle — explicit
  ``close()``, context managers, in-process fallback after close — the
  rule that ``vectorized`` engines never shard (no pool at any worker
  count), and the ngspice per-row fan-out (``row_parallel``);
* the cross-run disk cache: atomic spill, version stamping, corruption
  and failure-block refusal, and a full ``run_experiment`` replay with
  zero backend invocations and zero budget charged.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import CancelledError
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import StrongArmLatch
from repro.circuits.base import (
    AnalogCircuit,
    DeviceKind,
    DeviceSpec,
    SizingParameter,
)
from repro.core import optimizer
from repro.core.config import GlovaConfig, VerificationMethod, operational_config
from repro.core.optimizer import GlovaOptimizer
from repro.core.replay import LastWorstCaseBuffer
from repro.core.spec import DesignSpec
from repro.core.verification import Verifier
from repro.simulation import (
    BACKENDS,
    BatchedBackend,
    CachingBackend,
    FaultInjectingBackend,
    FaultSchedule,
    NgspiceError,
    ReferenceScalarBackend,
    SimJob,
    SimulationService,
    WorkerPool,
)
from repro.simulation import service as service_module
from repro.simulation.ngspice import (
    NgspiceBackend,
    PAYLOAD_AWARE_ENV,
    STRICT_ENV,
)
from repro.simulation.sharding import MIN_ROWS_PER_WORKER, can_shard, shardable
from repro.simulation.service import (
    CACHE_FORMAT_VERSION,
    _CACHE_VERSION_KEY,
    iter_resolved,
)
from repro.spice.deck import FAILURE_NAN
from repro.variation.corners import typical_corner


class PerRowBatchedBackend(BatchedBackend):
    """The batched engine declaring per-row cost, as paced test backends
    and one-deck-per-row external engines do."""

    name = "per_row_batched"
    row_parallel = True


BACKENDS[PerRowBatchedBackend.name] = PerRowBatchedBackend


# ----------------------------------------------------------------------
# submit / result equivalence
# ----------------------------------------------------------------------
class TestSubmitEquivalence:
    def test_submit_matches_run_all_circuits(self, paper_circuit, conditions_job):
        job = conditions_job(paper_circuit, rows=8)
        with SimulationService(paper_circuit) as sync_service:
            expected = sync_service.run(job)
        with SimulationService(paper_circuit) as async_service:
            result = async_service.submit(job).result()
        for name in paper_circuit.metric_names:
            np.testing.assert_array_equal(
                result.metrics[name], expected.metrics[name]
            )
        assert result.job.job_id == expected.job.job_id

    def test_submit_matches_run_through_pool(
        self, strongarm, pool_submissions, conditions_job
    ):
        job = conditions_job(strongarm, rows=12)
        with SimulationService(strongarm) as reference:
            expected = reference.run(job)
        with SimulationService(strongarm, backend="scalar", workers=3) as service:
            future = service.submit(job)
            result = future.result()
        assert pool_submissions  # the shards really ran on the pool
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(
                result.metrics[name], expected.metrics[name]
            )
        assert service.budget.total == 12

    def test_design_axis_submit(self, strongarm):
        rng = np.random.default_rng(3)
        designs = rng.uniform(0.2, 0.8, (6, strongarm.dimension))
        job = SimJob.design_batch(strongarm.name, designs, typical_corner())
        with SimulationService(strongarm) as service:
            sync = service.run(job)
            async_result = service.submit(job).result()
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(
                async_result.metrics[name], sync.metrics[name]
            )

    def test_interleaved_submissions_resolve_in_order(self, strongarm, conditions_job):
        """Several futures in flight; resolving in submission order gives
        the synchronous budget trajectory."""
        with SimulationService(strongarm) as service:
            jobs = [conditions_job(strongarm, rows=4, seed=s) for s in range(4)]
            futures = [service.submit(job) for job in jobs]
            assert service.budget.total == 0  # nothing charged until resolved
            totals = []
            for future in futures:
                future.result()
                totals.append(service.budget.total)
        assert totals == [4, 8, 12, 16]


# ----------------------------------------------------------------------
# Resolution-time accounting
# ----------------------------------------------------------------------
class TestResolutionAccounting:
    def test_result_is_memoized_and_charges_once(self, strongarm, conditions_job):
        with SimulationService(strongarm) as service:
            future = service.submit(conditions_job(strongarm, rows=5))
            first = future.result()
            second = future.result()
        assert first is second
        assert service.budget.total == 5

    def test_cancel_before_resolve_charges_nothing(self, strongarm, conditions_job):
        calls = []

        class CountingBackend(BatchedBackend):
            def evaluate(self, circuit, job):
                calls.append(job.batch)
                return super().evaluate(circuit, job)

        with SimulationService(strongarm, backend=CountingBackend()) as service:
            future = service.submit(conditions_job(strongarm, rows=5))
            assert future.cancel()
            with pytest.raises(CancelledError):
                future.result()
        assert service.budget.total == 0
        assert calls == []  # the lazy thunk never even evaluated

    def test_cancel_after_resolve_is_refused(self, strongarm, conditions_job):
        with SimulationService(strongarm) as service:
            future = service.submit(conditions_job(strongarm, rows=3))
            future.result()
            assert not future.cancel()
        assert service.budget.total == 3

    def test_cache_hit_at_submission(self, strongarm, conditions_job):
        with SimulationService(strongarm, cache=True) as service:
            job = conditions_job(strongarm, rows=4)
            service.run(job)
            assert service.budget.total == 4
            future = service.submit(job)
            assert future.cached
            result = future.result()
        assert result.cached
        assert service.budget.total == 4  # the hit charged zero

    def test_raising_backend_refunds_at_resolution(self, strongarm, conditions_job):
        class Exploding(BatchedBackend):
            def evaluate(self, circuit, job):
                raise RuntimeError("mid-flight explosion")

        with SimulationService(strongarm, backend=Exploding()) as service:
            future = service.submit(conditions_job(strongarm, rows=5))
            with pytest.raises(RuntimeError, match="mid-flight"):
                future.result()
            assert service.budget.total == 0
            with pytest.raises(RuntimeError, match="mid-flight"):
                future.result()  # memoized, still no charge
            assert service.budget.total == 0

    def test_worker_raising_mid_flight_refunds_and_retries(
        self, strongarm, fake_ngspice, tmp_path, monkeypatch, conditions_job
    ):
        """The async twin of the sync mid-shard rollback test: one real
        worker process fails its shard of an in-flight future (one-shot
        marker, strict mode); resolution surfaces the error uncharged, and
        resubmitting the identical job charges exactly once."""
        marker = tmp_path / "fail-once"
        marker.write_text("arm")
        monkeypatch.setenv("FAKE_NGSPICE_FAIL_ONCE", str(marker))
        monkeypatch.setenv(STRICT_ENV, "1")
        with SimulationService(
            strongarm, backend="ngspice", workers=4
        ) as service:
            job = conditions_job(strongarm, rows=8)
            future = service.submit(job)
            with pytest.raises(NgspiceError, match="exit 3"):
                future.result()
            assert service.budget.total == 0
            assert not marker.exists()

            retry = service.submit(job)
            result = retry.result()
            assert service.budget.total == 8
            reference = BatchedBackend().evaluate(strongarm, job)
            for name in strongarm.metric_names:
                np.testing.assert_allclose(
                    result.metrics[name], reference[name], rtol=1e-12, atol=0
                )

    def test_graceful_failure_block_refunds_at_resolution(
        self, strongarm, fake_ngspice, monkeypatch, conditions_job
    ):
        """A non-raising whole-block failure (engine exits 3, non-strict →
        FAILURE_NAN degradation) is left uncharged at resolution like the
        sync path, and never cached."""
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "exit3")
        with SimulationService(strongarm, backend="ngspice", cache=True) as service:
            future = service.submit(conditions_job(strongarm, rows=3))
            with pytest.warns(RuntimeWarning, match="NaN metrics"):
                result = future.result()
            assert np.isnan(result.metrics[strongarm.metric_names[0]]).all()
        assert service.budget.total == 0
        assert len(service.cache) == 0


# ----------------------------------------------------------------------
# Double-buffered verification ≡ sequential schedule
# ----------------------------------------------------------------------
class FullMCProbeCircuit(AnalogCircuit):
    """Synthetic testbench tuned so full-MC aborts actually happen.

    Mirrors the mismatch probe of ``test_verification_chunked``: the one
    metric tracks the sampled vth shift with ~1% of draws pushing the
    margin past its bound, so screening usually passes and the chunked
    full pass usually aborts mid-corner — exactly the path where a leaked
    speculative chunk would inflate the budget.
    """

    name = "async_fullmc_probe"

    def _build_parameters(self):
        return [SizingParameter("w", 1.0, 2.0, unit="um")]

    def _build_constraints(self):
        return {"margin": 1.0}

    def _build_devices(self):
        return [
            DeviceSpec(
                "D",
                DeviceKind.NMOS,
                width_of=lambda x: 0.04,
                length_of=lambda x: 0.03,
            )
        ]

    def _evaluate_physical_batch(self, x, corner, mismatch):
        vth = np.asarray(mismatch["D"]["vth"], dtype=float)
        return {"margin": 0.9 + 0.74 * vth}


@contextlib.contextmanager
def lookahead_zero():
    """Run the verifier and the seed phase one job at a time.

    Both loops call ``iter_resolved`` at its default lookahead of 1 (the
    verifier's full pass through ``SimulationService.scan``); this patch
    pins ``ahead=0`` where the two look it up, so every job is submitted
    only after the previous one resolved — the sequential reference."""
    sequential = functools.partial(iter_resolved, ahead=0)
    with mock.patch.object(service_module, "iter_resolved", sequential):
        with mock.patch.object(optimizer, "iter_resolved", sequential):
            yield


def _probe_verify(seed, chunk=3):
    """The probe's verification outcome and the service budget total read
    after ``verify`` returned, i.e. after the chunk stream was closed."""
    circuit = FullMCProbeCircuit()
    from repro.simulation import CircuitSimulator

    with CircuitSimulator(circuit) as simulator:
        operational = operational_config(
            VerificationMethod.CORNER_LOCAL_MC,
            optimization_samples=3,
            verification_samples=11,
            verification_chunk=chunk,
        )
        verifier = Verifier(
            simulator,
            DesignSpec.from_circuit(circuit),
            operational,
            use_mu_sigma=False,  # reach pass 2 instead of the Eq.-7 screen
            rng=np.random.default_rng(seed),
        )
        outcome = verifier.verify(
            np.full(circuit.dimension, 0.5),
            LastWorstCaseBuffer(operational.corners),
        )
        return outcome, simulator.budget.total


def _verify_once(circuit, design_seed, workers=1, chunk=4, backend="batched"):
    spec = DesignSpec.from_circuit(circuit)
    operational = operational_config(
        VerificationMethod.CORNER_LOCAL_MC,
        optimization_samples=3,
        verification_samples=11,
        verification_chunk=chunk,
    )
    from repro.simulation import CircuitSimulator

    with CircuitSimulator(circuit, workers=workers, backend=backend) as simulator:
        verifier = Verifier(
            simulator,
            spec,
            operational,
            use_mu_sigma=False,
            rng=np.random.default_rng(7),
        )
        rng = np.random.default_rng(design_seed)
        design = np.clip(circuit.random_sizing(rng) + 0.1, 0.0, 1.0)
        outcome = verifier.verify(
            design, LastWorstCaseBuffer(operational.corners)
        )
        # The verifier's stream position afterwards is part of the
        # contract: the optimizer keeps drawing from the same generator.
        stream_probe = float(verifier.rng.standard_normal())
        return outcome, simulator.budget.total, stream_probe


class TestDoubleBufferedVerification:
    @pytest.mark.parametrize("design_seed", [0, 1, 2, 3, 11])
    def test_bit_identical_to_sequential(self, paper_circuit, design_seed):
        """Pass/fail, failed corner, failure stage, worst reward, charged
        budget and the post-verify RNG stream all match the sequential
        schedule — across seeds that exercise both pass and abort paths."""
        with lookahead_zero():
            sequential = _verify_once(paper_circuit, design_seed)
        pipelined = _verify_once(paper_circuit, design_seed)
        for field in ("passed", "failed_corner", "failure_stage"):
            assert getattr(pipelined[0], field) == getattr(
                sequential[0], field
            )
        assert pipelined[0].worst_reward == sequential[0].worst_reward
        assert pipelined[0].simulations == sequential[0].simulations
        assert pipelined[1] == sequential[1]  # budget totals
        assert pipelined[2] == sequential[2]  # seeded stream position

    def test_bit_identical_through_pool(self, strongarm, pool_submissions):
        # Design seed 9604 passes screening, so pass 2's 8-row chunks reach
        # the pool (the N' = 3 screening jobs sit under the 4-row floor).
        with lookahead_zero():
            sequential = _verify_once(strongarm, 9604, chunk=8)
        pipelined = _verify_once(
            strongarm, 9604, workers=2, chunk=8, backend="scalar"
        )
        assert pool_submissions  # the shards really ran on the pool
        assert pipelined[0].passed == sequential[0].passed
        assert pipelined[0].worst_reward == sequential[0].worst_reward
        assert pipelined[0].simulations == sequential[0].simulations
        assert pipelined[1] == sequential[1]
        assert pipelined[2] == sequential[2]

    def test_speculative_chunk_is_never_charged(self):
        """On a full-MC abort the in-flight speculative chunk is cancelled:
        the charged budget equals the sequential chunk-rounded prefix (the
        pipelined path would charge one chunk more if the cancel leaked).
        ``simulations`` is read before the chunk stream closes, so the
        budget total is also compared after ``verify`` returned: cleanup
        that resolved the pending chunk instead of cancelling it shows up
        only there.  Uses a synthetic probe whose sample-level failure
        probability makes full-MC aborts common (the paper circuits fail
        at screening first, cf. ``test_verification_chunked``)."""
        full_mc_aborts = 0
        for seed in range(12):
            with lookahead_zero():
                sequential, sequential_total = _probe_verify(seed)
            pipelined, pipelined_total = _probe_verify(seed)
            assert pipelined.passed == sequential.passed
            assert pipelined.failed_corner == sequential.failed_corner
            assert pipelined.failure_stage == sequential.failure_stage
            assert pipelined.worst_reward == sequential.worst_reward
            assert pipelined.simulations == sequential.simulations
            assert pipelined_total == sequential_total
            if sequential.failure_stage == "full_mc":
                full_mc_aborts += 1
        # The probe is tuned so the abort path is actually exercised.
        assert full_mc_aborts >= 2


# ----------------------------------------------------------------------
# Pipelined optimizer ≡ sequential optimizer
# ----------------------------------------------------------------------
class TestPipelinedOptimizer:
    @pytest.mark.parametrize(
        "method",
        [VerificationMethod.CORNER, VerificationMethod.CORNER_LOCAL_MC],
    )
    def test_full_trajectory_identical(self, strongarm, method):
        """End-to-end GLOVA runs (seed phase + optimization + verification)
        are bit-identical at lookahead 1 and 0 — designs, rewards, budgets
        and iteration counts — for both the MC and the pure-corner seed
        schedules."""

        def run():
            config = GlovaConfig(
                verification=method,
                seed=5,
                max_iterations=6,
                initial_samples=16,
                verification_samples=6,
            )
            glova = GlovaOptimizer(strongarm, config)
            try:
                return glova.run()
            finally:
                glova.simulator.close()

        with lookahead_zero():
            sequential = run()
        pipelined = run()
        assert pipelined.success == sequential.success
        assert pipelined.iterations == sequential.iterations
        assert pipelined.simulations == sequential.simulations
        for a, b in zip(sequential.history, pipelined.history):
            np.testing.assert_array_equal(a.design, b.design)
            assert a.worst_reward == b.worst_reward
            assert a.corner_name == b.corner_name


# ----------------------------------------------------------------------
# Pool lifecycle
# ----------------------------------------------------------------------
class TestPoolLifecycle:
    """Pool ownership on ``scalar``, an engine that shards (the vectorized
    ``batched`` engine gets no pool)."""

    def test_service_close_shuts_down_pool(self, strongarm):
        service = SimulationService(strongarm, backend="scalar", workers=2)
        pool = service.pool
        assert pool is not None and not pool.closed
        service.close()
        assert pool.closed
        service.close()  # idempotent

    def test_closed_service_still_evaluates_in_process(
        self, strongarm, pool_submissions, conditions_job
    ):
        service = SimulationService(strongarm, backend="scalar", workers=2)
        job = conditions_job(strongarm, rows=8)
        expected = service.run(job)
        assert pool_submissions  # the shards really ran on the pool
        service.close()
        submitted = len(pool_submissions)
        again = service.run(job)
        assert len(pool_submissions) == submitted
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(
                again.metrics[name], expected.metrics[name]
            )

    def test_context_manager(self, strongarm):
        with SimulationService(strongarm, backend="scalar", workers=2) as service:
            assert not service.pool.closed
        assert service.pool.closed and service.closed

    def test_worker_pool_eager_and_warm(self):
        with WorkerPool(2, circuit_names=("sal",), backend_names=("batched",)) as pool:
            pids = {pool.submit(os.getpid).result() for _ in range(8)}
            assert 1 <= len(pids) <= 2
            assert all(pid != os.getpid() for pid in pids)
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(os.getpid)


# ----------------------------------------------------------------------
# Vectorized engines never shard
# ----------------------------------------------------------------------
_SAL = StrongArmLatch()


class TestVectorizedEnginesStayInProcess:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.integers(1, 65_536), workers=st.integers(2, 8))
    def test_shardable_rule(self, batch, workers):
        schedule = FaultSchedule()
        for backend in (
            BatchedBackend(),
            FaultInjectingBackend("batched", schedule),
        ):
            assert not can_shard(backend)
            assert not shardable(_SAL, backend, workers, batch)
        # Unchanged for engines whose cost grows with the row count.
        for backend in (
            ReferenceScalarBackend(),
            FaultInjectingBackend("scalar", schedule),
        ):
            floor = MIN_ROWS_PER_WORKER * workers
            assert shardable(_SAL, backend, workers, batch) == (batch >= floor)
        for backend in (
            PerRowBatchedBackend(),
            FaultInjectingBackend(PerRowBatchedBackend(), schedule),
        ):
            assert shardable(_SAL, backend, workers, batch) == (batch >= 2)

    def test_workers2_batched_service_matches_workers1(
        self, paper_circuit, pool_submissions, conditions_job
    ):
        """No pool, lazy in-process futures, and the workers=1 metrics and
        resolve-in-order budget trajectory."""
        jobs = [conditions_job(paper_circuit, rows=12, seed=s) for s in range(3)]
        jobs.append(
            SimJob.design_batch(
                paper_circuit.name,
                np.random.default_rng(3).uniform(
                    0.2, 0.8, (8, paper_circuit.dimension)
                ),
                typical_corner(),
            )
        )
        trajectories = []
        for workers in (1, 2):
            with SimulationService(paper_circuit, workers=workers) as service:
                assert service.pool is None
                assert service.backend.name == "batched"
                futures = [service.submit(job) for job in jobs]
                trajectory = []
                for future in futures:
                    metrics = future.result().metrics
                    trajectory.append((metrics, service.budget.snapshot()))
            trajectories.append(trajectory)
        assert pool_submissions == []
        for (expected, budget), (actual, actual_budget) in zip(*trajectories):
            assert actual_budget == budget
            for name in paper_circuit.metric_names:
                np.testing.assert_array_equal(actual[name], expected[name])

    def test_job_daemon_spawns_no_pool_for_batched(self):
        from repro.simulation.server import SimulationServer

        server = SimulationServer(backend="batched", workers=4, port=0)
        assert server._pool is None
        assert server._engine is server._terminal


# ----------------------------------------------------------------------
# ngspice row fan-out
# ----------------------------------------------------------------------
class TestNgspiceRowParallel:
    def test_row_parallel_flag_follows_payload_awareness(self):
        assert NgspiceBackend(payload_aware=False).row_parallel
        assert not NgspiceBackend(payload_aware=True).row_parallel

    def test_row_parallel_lowers_shard_threshold(self, strongarm, monkeypatch):
        monkeypatch.delenv(PAYLOAD_AWARE_ENV, raising=False)
        per_row = NgspiceBackend()  # env-configured: not payload-aware
        # A 2-row job is 2 subprocess runs: worth fanning out even though
        # it is far below the in-process rows-per-worker threshold.
        assert shardable(strongarm, per_row, workers=4, batch=2)
        assert not shardable(strongarm, per_row, workers=4, batch=1)
        monkeypatch.setenv(PAYLOAD_AWARE_ENV, "1")
        payload_aware = NgspiceBackend()  # one deck per batch: normal floor
        assert not shardable(strongarm, payload_aware, workers=4, batch=2)

    def test_constructor_configured_backend_refuses_to_shard(self, strongarm):
        """An instance a worker's zero-argument rebuild could not reproduce
        (explicit executable/timeout/strictness) must never shard — its
        shards would silently run on a differently-configured twin."""
        configured = NgspiceBackend(executable="/opt/custom-sim")
        assert not configured.worker_reconstructible
        assert not shardable(strongarm, configured, workers=4, batch=32)
        assert NgspiceBackend().worker_reconstructible

    def test_per_row_decks_fan_out_through_pool(
        self, strongarm, fake_ngspice, monkeypatch, conditions_job
    ):
        """Non-payload-aware engines (one deck per row) run their rows
        concurrently through the warm pool, bit-equal to the analytic
        reference."""
        monkeypatch.delenv("REPRO_NGSPICE_PAYLOAD_AWARE", raising=False)
        job = conditions_job(strongarm, rows=3)
        with SimulationService(strongarm, backend="ngspice", workers=3) as service:
            assert shardable(
                strongarm, service._terminal, workers=3, batch=job.batch
            )
            result = service.submit(job).result()
        reference = BatchedBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            np.testing.assert_allclose(
                result.metrics[name], reference[name], rtol=1e-12, atol=0
            )
        assert service.budget.total == 3


# ----------------------------------------------------------------------
# Cross-run disk cache
# ----------------------------------------------------------------------
class TestDiskCache:
    def test_spill_and_reload_across_services(
        self, strongarm, tmp_path, conditions_job
    ):
        cache_dir = str(tmp_path / "simcache")
        job = conditions_job(strongarm, rows=6)
        with SimulationService(strongarm, cache_dir=cache_dir) as first:
            expected = first.run(job)
            assert first.budget.total == 6
        # A brand-new service (fresh process in production) replays from
        # disk: zero budget, no backend invocation.
        calls = []

        class Counting(BatchedBackend):
            def evaluate(self, circuit, job):
                calls.append(job.job_id)
                return super().evaluate(circuit, job)

        with SimulationService(
            strongarm, backend=Counting(), cache_dir=cache_dir
        ) as second:
            replayed = second.run(job)
            assert replayed.cached
            assert second.budget.total == 0
            assert second.cache.disk_hits == 1
        assert calls == []
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(
                replayed.metrics[name], expected.metrics[name]
            )

    def test_clear_resets_every_counter(self, strongarm, tmp_path, conditions_job):
        """Disk hits are a subset of hits, so ``clear()`` zeroes both."""
        cache_dir = str(tmp_path / "simcache")
        job = conditions_job(strongarm, rows=4)
        with SimulationService(strongarm, cache_dir=cache_dir) as first:
            first.run(job)
        with SimulationService(strongarm, cache_dir=cache_dir) as second:
            assert second.run(job).cached
            cache = second.cache
            assert (cache.hits, cache.disk_hits) == (1, 1)
            cache.clear()
            assert (cache.hits, cache.misses, cache.disk_hits) == (0, 0, 0)
            assert len(cache) == 0

    def test_cache_dir_implies_caching(self, strongarm, tmp_path):
        service = SimulationService(strongarm, cache_dir=str(tmp_path / "c"))
        assert service.cache is not None
        assert service.cache.spill_dir is not None
        service.close()

    def test_version_mismatch_is_a_miss(self, strongarm, tmp_path, conditions_job):
        cache_dir = str(tmp_path / "simcache")
        job = conditions_job(strongarm, rows=4)
        with SimulationService(strongarm, cache_dir=cache_dir) as service:
            service.run(job)
            path = service.cache._spill_path(job.job_id)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload[_CACHE_VERSION_KEY] = np.array(CACHE_FORMAT_VERSION + 1)
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        with SimulationService(strongarm, cache_dir=cache_dir) as fresh:
            result = fresh.run(job)
            assert not result.cached
            assert fresh.budget.total == 4

    def test_corrupt_spill_is_a_miss(self, strongarm, tmp_path, conditions_job):
        cache_dir = str(tmp_path / "simcache")
        job = conditions_job(strongarm, rows=4)
        with SimulationService(strongarm, cache_dir=cache_dir) as service:
            service.run(job)
            path = service.cache._spill_path(job.job_id)
        with open(path, "wb") as handle:
            handle.write(b"not a zip file")
        with SimulationService(strongarm, cache_dir=cache_dir) as fresh:
            result = fresh.run(job)
            assert not result.cached
            assert fresh.budget.total == 4

    def test_failure_tagged_spill_is_refused(self, strongarm, tmp_path, conditions_job):
        """A stale on-disk block carrying FAILURE_NAN rows (written by a
        hypothetical older build) is re-simulated, exactly like the
        in-memory admission rule."""
        cache_dir = str(tmp_path / "simcache")
        job = conditions_job(strongarm, rows=3)
        cache = CachingBackend(BatchedBackend(), spill_dir=cache_dir)
        poisoned = {
            name: np.full(3, FAILURE_NAN) for name in strongarm.metric_names
        }
        cache._spill(job.job_id, poisoned)  # bypass store()'s refusal
        assert cache.lookup(job) is None
        # And store() itself refuses to spill such a block at all.
        cache.store(job, poisoned)
        assert not os.path.exists(cache._spill_path(job.job_id)) or (
            cache.lookup(job) is None
        )

    def test_spill_write_is_atomic(self, strongarm, tmp_path, conditions_job):
        cache_dir = str(tmp_path / "simcache")
        job = conditions_job(strongarm, rows=2)
        cache = CachingBackend(BatchedBackend(), spill_dir=cache_dir)
        metrics = BatchedBackend().evaluate(strongarm, job)
        cache.store(job, metrics)
        directory = os.path.dirname(cache._spill_path(job.job_id))
        leftovers = [f for f in os.listdir(directory) if f.endswith(".tmp")]
        assert leftovers == []

    def test_repeated_experiment_replays_from_disk(self, tmp_path):
        """The acceptance scenario: a repeated ``run_experiment`` with
        ``cache_dir`` set replays entirely from disk — zero backend
        invocations, zero budget charged on the second run."""
        from repro import api
        from repro.simulation import service as service_module

        config = api.ExperimentConfig(
            circuit="sal",
            method="C-MCL",
            seeds=(0,),
            max_iterations=4,
            initial_samples=12,
            verification_samples=6,
            cache_dir=str(tmp_path / "expcache"),
        )
        first = api.run_experiment(config)
        assert first.total_simulations > 0

        calls = []
        original = BatchedBackend.evaluate

        def counting(self, circuit, job):
            calls.append(job.job_id)
            return original(self, circuit, job)

        BatchedBackend.evaluate = counting
        try:
            second = api.run_experiment(config)
        finally:
            BatchedBackend.evaluate = original
        assert calls == []  # every job replayed from the disk store
        assert second.total_simulations == 0
        # Identical outcome, replayed or simulated.
        assert second.runs[0].success == first.runs[0].success
        assert second.runs[0].iterations == first.runs[0].iterations

