"""Work-stealing shard scheduler + the cancellation/accounting bugfixes.

Covers this PR's contract from both ends:

* **Planning** — :func:`plan_chunk_bounds` tiles the batch in row order
  with equal-size chunks (sizes differ by at most one row) and
  oversubscribes the pool; a plan depends only on rows, workers and
  ``row_parallel``, so a service that has already timed earlier jobs
  still cuts and submits equal chunks in row order.
* **Timing** — pool workers time their rows and the
  :class:`~repro.simulation.sharding.ShardHandle` reports it as
  ``row_seconds``; metrics blocks, the cache and a ``cache_dir`` hold
  only metrics.
* **Bit-identity** — stealing at workers=2 and the workers=1 reference
  produce identical metrics and identical resolve-in-order budget
  trajectories on all three paper circuits: the scheduler may only
  change wall-clock.
* **The bugfix batch** — ``SimFuture.cancel`` returns immediately while
  another thread is mid-resolve (the resolve no longer holds the lock),
  with net-zero accounting; ``iter_resolved`` cleanup cancels every
  pending future even when one ``cancel()`` raises.
* **Stragglers** — on a paced ``row_parallel`` backend with one heavy
  row, the stealing schedule keeps the pool's measured idle fraction
  bounded (one uniform slice per worker would strand a whole worker
  behind the straggler).
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import straggler_idle_fraction
from repro.simulation import (
    BACKENDS,
    BatchedBackend,
    SimJob,
    ReferenceScalarBackend,
    ShardedDispatcher,
    SimulationService,
    plan_chunk_bounds,
)
from repro.simulation.service import iter_resolved
from repro.variation.corners import typical_corner


# ----------------------------------------------------------------------
# Chunk planning
# ----------------------------------------------------------------------
class TestPlanChunkBounds:
    def assert_tiles(self, bounds, batch):
        """Chunks tile [0, batch) contiguously in row order."""
        assert bounds[0][0] == 0 and bounds[-1][1] == batch
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        assert all(lo < hi for lo, hi in bounds)

    def test_uniform_costs_oversubscribe_the_pool(self):
        bounds = plan_chunk_bounds(64, workers=4)
        self.assert_tiles(bounds, 64)
        assert len(bounds) == 16  # 4 chunks per worker
        sizes = {hi - lo for lo, hi in bounds}
        assert sizes == {4}

    def test_chunk_count_respects_min_rows(self):
        # 12 rows / 2-row floor = at most 6 chunks even at workers=4.
        bounds = plan_chunk_bounds(12, workers=4)
        self.assert_tiles(bounds, 12)
        assert len(bounds) == 6

    def test_row_parallel_chunks_down_to_single_rows(self):
        bounds = plan_chunk_bounds(6, workers=4, row_parallel=True)
        self.assert_tiles(bounds, 6)
        assert len(bounds) == 6  # one external subprocess per chunk
        assert plan_chunk_bounds(6, workers=4) != bounds

    def test_degenerate_batches(self):
        assert plan_chunk_bounds(0, workers=4) == []
        assert plan_chunk_bounds(1, workers=4) == [(0, 1)]
        assert plan_chunk_bounds(3, workers=8) == [(0, 1), (1, 2), (2, 3)]

    def test_cuts_sit_at_rounded_up_even_shares(self):
        # 10 rows on one worker: 4 chunks, cut k at ceil(10 * k / 4).
        assert plan_chunk_bounds(10, workers=1) == [
            (0, 3), (3, 5), (5, 8), (8, 10)
        ]

    @pytest.mark.parametrize(
        "retired",
        [{"costs": np.ones(16)}, {"chunks_per_worker": 2}],
        ids=["costs", "chunks_per_worker"],
    )
    def test_plan_takes_no_cost_inputs(self, retired):
        """A plan depends only on rows, workers and ``row_parallel``."""
        with pytest.raises(TypeError):
            plan_chunk_bounds(16, workers=2, **retired)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 4096),
        workers=st.integers(1, 8),
        row_parallel=st.booleans(),
    )
    def test_equal_chunks_tile_rows_in_order(self, rows, workers, row_parallel):
        bounds = plan_chunk_bounds(
            rows, workers=workers, row_parallel=row_parallel
        )
        min_rows = 1 if row_parallel else 2
        assert len(bounds) == min(
            rows, 4 * workers, max(workers, rows // min_rows)
        )
        if rows == 0:
            return
        self.assert_tiles(bounds, rows)
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------
# Per-row timing on the shard handle
# ----------------------------------------------------------------------
class TestRowSecondsPlumbing:
    def test_cache_never_stores_timing(self, strongarm, tmp_path, conditions_job):
        cache_dir = str(tmp_path / "simcache")
        job = conditions_job(strongarm, rows=4)
        with SimulationService(strongarm, cache_dir=cache_dir) as service:
            first = service.run(job)
            replayed = service.run(job)
        assert not first.cached and replayed.cached
        # Miss and hit blocks hold exactly the circuit's metrics.
        assert set(first.metrics) == set(strongarm.metric_names)
        assert set(replayed.metrics) == set(strongarm.metric_names)
        # The cache_dir holds the one spill record and nothing else.
        assert not os.path.exists(os.path.join(cache_dir, "costs"))
        files = [name for _, _, names in os.walk(cache_dir) for name in names]
        assert len(files) == 1 and files[0].endswith(".npz")

    def test_sharded_result_carries_row_seconds(
        self, strongarm, pool_submissions, conditions_job
    ):
        """Pool workers time their own rows; the handle puts one finite
        value per row into ``row_seconds`` and returns the metrics alone."""
        with SimulationService(strongarm, backend="scalar", workers=2) as service:
            handle = service.backend.dispatch(
                strongarm, conditions_job(strongarm, rows=12)
            )
            metrics = handle.result()
        assert pool_submissions  # the rows really ran on the pool
        assert handle.row_seconds.shape == (12,)
        assert np.isfinite(handle.row_seconds).all()
        assert (handle.row_seconds >= 0).all()
        assert set(metrics) == set(strongarm.metric_names)

    def test_sharded_cache_dir_holds_only_spill_records(
        self, strongarm, tmp_path, pool_submissions, conditions_job
    ):
        cache_dir = str(tmp_path / "simcache")
        with SimulationService(
            strongarm, backend="scalar", workers=2, cache_dir=cache_dir
        ) as service:
            for seed in range(3):
                service.run(conditions_job(strongarm, rows=8, seed=seed))
        assert pool_submissions
        files = [name for _, _, names in os.walk(cache_dir) for name in names]
        assert len(files) == 3
        assert all(name.endswith(".npz") for name in files)


class TestNoCostModel:
    """No learned row-cost model, and no stand-in for one."""

    def test_cost_module_is_gone(self):
        import repro.simulation as simulation

        assert not hasattr(simulation, "RowCostModel")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.simulation.costs")

    def test_service_and_dispatcher_keep_no_cost_model(self, strongarm):
        with SimulationService(strongarm, backend="scalar", workers=2) as service:
            assert service.pool is not None
            assert not hasattr(service, "cost_model")
        with pytest.raises(TypeError):
            ShardedDispatcher(ReferenceScalarBackend(), 2, cost_model=None)


# ----------------------------------------------------------------------
# Bit-identity: the scheduler may only change wall-clock
# ----------------------------------------------------------------------
class TestSchedulerBitIdentity:
    """On ``scalar``, an engine that shards (``batched`` never does)."""

    def _trajectory(self, circuit, jobs, workers, pool_submissions):
        """Metrics plus the resolve-in-order budget trajectory."""
        del pool_submissions[:]
        with SimulationService(
            circuit, backend="scalar", workers=workers
        ) as service:
            futures = [service.submit(job) for job in jobs]
            # Submission dispatched the workers=2 shards to the pool;
            # the workers=1 futures are lazy in-process thunks.
            assert bool(pool_submissions) == (workers > 1)
            metrics, totals = [], []
            for future in futures:
                metrics.append(future.result().metrics)
                totals.append(service.budget.total)
        return metrics, totals

    def test_stealing_matches_sequential(
        self, paper_circuit, pool_submissions, conditions_job
    ):
        jobs = [conditions_job(paper_circuit, rows=12, seed=s) for s in range(3)]
        reference = self._trajectory(paper_circuit, jobs, 1, pool_submissions)
        stealing = self._trajectory(paper_circuit, jobs, 2, pool_submissions)
        assert stealing[1] == reference[1] == [12, 24, 36]
        for expected, actual in zip(reference[0], stealing[0]):
            for name in paper_circuit.metric_names:
                np.testing.assert_array_equal(expected[name], actual[name])


class TestEqualChunkDispatch:
    """A shard plan depends only on rows, workers and ``row_parallel``."""

    def test_timed_service_still_cuts_equal_chunks_in_row_order(
        self, strongarm, pool_submissions, conditions_job
    ):
        """On ``scalar`` at workers=2, after sixteen timed warm-up jobs,
        every 8-, 16- and 24-row job is cut into chunks whose sizes differ
        by at most one row, submitted in row order: no earlier timing
        moves a cut."""
        with SimulationService(strongarm, backend="scalar", workers=2) as service:
            for seed in range(16):
                service.run(conditions_job(strongarm, rows=8, seed=100 + seed))
            for seed, rows in enumerate((8, 16, 24) * 3):
                job = conditions_job(strongarm, rows=rows, seed=seed)
                del pool_submissions[:]
                service.run(job)
                sizes = [shard.batch for shard in pool_submissions]
                assert len(sizes) == len(plan_chunk_bounds(rows, workers=2))
                assert max(sizes) - min(sizes) <= 1
                np.testing.assert_array_equal(
                    np.concatenate(
                        [shard.mismatch for shard in pool_submissions]
                    ),
                    job.mismatch,
                )


# ----------------------------------------------------------------------
# Bugfix: cancel() no longer blocks behind a concurrent resolve
# ----------------------------------------------------------------------
class TestConcurrentCancel:
    def test_cancel_during_resolve_returns_promptly(self, strongarm, conditions_job):
        started = threading.Event()
        release = threading.Event()

        class Gated(BatchedBackend):
            def evaluate(self, circuit, job):
                started.set()
                assert release.wait(30), "test deadlock: release never set"
                return super().evaluate(circuit, job)

        with SimulationService(strongarm, backend=Gated()) as service:
            future = service.submit(conditions_job(strongarm, rows=4))
            outcome = {}

            def resolve():
                try:
                    future.result()
                    outcome["error"] = None
                except BaseException as error:  # noqa: BLE001
                    outcome["error"] = error

            resolver = threading.Thread(target=resolve)
            resolver.start()
            assert started.wait(30)
            # The regression: cancel() used to block here until the
            # evaluation finished because result() held the lock across
            # the whole blocking resolve.
            begin = time.perf_counter()
            assert future.cancel()
            cancel_seconds = time.perf_counter() - begin
            release.set()
            resolver.join(timeout=30)
            assert not resolver.is_alive()
        assert cancel_seconds < 5.0  # prompt, not serialized behind the work
        assert isinstance(outcome["error"], CancelledError)
        assert service.budget.total == 0  # a cancelled resolve is never charged
        # The cancellation is memoized like any resolution outcome.
        with pytest.raises(CancelledError):
            future.result()
        assert future.cancelled()

    def test_cancel_refuses_once_committed(self, strongarm, conditions_job):
        """After the commit checkpoint passes, a racing cancel returns
        False — an accounted job cannot be un-issued."""
        with SimulationService(strongarm) as service:
            future = service.submit(conditions_job(strongarm, rows=3))
            future.result()
            assert not future.cancel()
        assert service.budget.total == 3

    def test_concurrent_resolvers_agree(self, strongarm, conditions_job):
        """Racing result() calls from many threads all see the one
        memoized outcome and charge exactly once."""
        with SimulationService(strongarm) as service:
            future = service.submit(conditions_job(strongarm, rows=5))
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(future.result())
                )
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert len(results) == 4
        assert all(result is results[0] for result in results)
        assert service.budget.total == 5


# ----------------------------------------------------------------------
# Bugfix: iter_resolved cleanup survives a raising cancel()
# ----------------------------------------------------------------------
class TestIterResolvedCleanup:
    class FakeFuture:
        def __init__(self, fail_cancel=False):
            self.fail_cancel = fail_cancel
            self.cancelled = False

        def result(self):
            return "resolved"

        def cancel(self):
            if self.fail_cancel:
                raise RuntimeError("torn-down pool")
            self.cancelled = True
            return True

    def test_one_raising_cancel_does_not_strand_the_rest(self):
        futures = [
            self.FakeFuture(),
            self.FakeFuture(fail_cancel=True),
            self.FakeFuture(),
        ]
        generator = iter_resolved(
            [0, 1, 2], lambda item: futures[item], ahead=2
        )
        assert next(generator) == (0, "resolved")
        # Aborting the loop cancels both pending futures; the raising
        # one is contained (a warning) instead of stranding the last.
        with pytest.warns(RuntimeWarning, match="failed to cancel"):
            generator.close()
        assert futures[2].cancelled

    def test_clean_abort_cancels_all_pending(self):
        futures = [self.FakeFuture() for _ in range(3)]
        generator = iter_resolved(
            [0, 1, 2], lambda item: futures[item], ahead=2
        )
        next(generator)
        generator.close()
        assert not futures[0].cancelled  # already resolved
        assert futures[1].cancelled and futures[2].cancelled


# ----------------------------------------------------------------------
# Straggler scheduling on a paced backend
# ----------------------------------------------------------------------
#: Base modelled cost per row (seconds) and the straggler multiplier.
#: Small enough to keep tier-1 fast, large enough that scheduling —
#: not IPC noise — dominates the measured walls.
STRAGGLER_ROW_SECONDS = 0.02
STRAGGLER_FACTOR = 15
STRAGGLER_ROWS = 16
#: Shards only see their own rows (no batch offsets), so the heavy row
#: is marked *in its data*: a mismatch draw beyond this threshold.
STRAGGLER_SENTINEL = 4.0


def straggler_job(circuit, rows=STRAGGLER_ROWS, seed=0):
    """A conditions job whose first row carries the straggler sentinel."""
    rng = np.random.default_rng(seed)
    mismatch = np.clip(
        rng.standard_normal((rows, circuit.mismatch_dimension)), -3.0, 3.0
    )
    mismatch[0, 0] = STRAGGLER_SENTINEL + 1.0
    return SimJob.conditions(
        circuit.name,
        rng.uniform(0.2, 0.8, circuit.dimension),
        (typical_corner(),),
        mismatch,
    )


class StragglerPacedBackend(BatchedBackend):
    """The batched engine plus a modelled per-row cost with one heavy row.

    ``row_parallel = True`` mirrors real external engines (one subprocess
    per row), so shards chunk down to single rows; rows carrying the
    :data:`STRAGGLER_SENTINEL` mismatch marker cost
    :data:`STRAGGLER_FACTOR`× their siblings — the pathological
    straggler a one-slice-per-worker plan strands a worker behind.
    Metrics are bit-identical to ``batched``.
    """

    name = "straggler_paced"
    row_parallel = True

    def evaluate(self, circuit, job):
        metrics = super().evaluate(circuit, job)
        heavy = (
            int((job.mismatch[:, 0] > STRAGGLER_SENTINEL).sum())
            if job.mismatch is not None
            else 0
        )
        time.sleep(
            STRAGGLER_ROW_SECONDS
            * (job.batch + heavy * (STRAGGLER_FACTOR - 1))
        )
        return metrics


BACKENDS[StragglerPacedBackend.name] = StragglerPacedBackend

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) != "fork",
    reason="pool workers must inherit the paced-backend registration",
)


@fork_only
class TestStragglerScheduling:
    def test_stealing_bounds_straggler_idle_time(self, strongarm, conditions_job):
        job = straggler_job(strongarm)
        with SimulationService(
            strongarm, workers=2, backend=StragglerPacedBackend()
        ) as service:
            # Warm-up dispatch: worker spin-up must not count as idle time.
            service.run(conditions_job(strongarm, rows=4, seed=7))
            start = time.perf_counter()
            handle = service.backend.dispatch(strongarm, job)
            stealing = handle.result()
            wall = time.perf_counter() - start
        # The sentinel row lies outside the model's physical range, so
        # its metrics are NaN (equal to themselves under assert_array_equal).
        with np.errstate(invalid="ignore"):
            reference = BatchedBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(stealing[name], reference[name])
        assert handle.row_seconds is not None
        idle = straggler_idle_fraction(
            handle.row_seconds, workers=2, wall_seconds=wall
        )
        # Ideal stealing idle here is ~7% (the heavy chunk finishes just
        # after the drained queue); one uniform slice per worker idles
        # ~35%.  The bound leaves generous room for scheduler noise while
        # still failing if the straggler strands a worker for a
        # half-batch.
        assert idle < 0.30, (
            f"stealing idle fraction {idle:.2f} (wall {wall:.2f}s)"
        )
