"""Persistent warm worker pools, job-axis sharding, and pool self-healing.

This module shards the row axis of one
:class:`~repro.simulation.service.SimJob` across a
``concurrent.futures.ProcessPoolExecutor`` when the service is configured
with ``workers > 1`` — modelling the paper's 3-way / 30-way simulation
parallelism with real OS-level concurrency.  Because the *job* is what gets
sliced, every batch axis shards the same way: mismatch rows, corner rows
and design rows alike.

Every engine shards except a ``vectorized`` one
(:func:`~repro.simulation.service.can_shard`):
``row_parallel`` engines (one external-engine run per row), row loops such
as the ``scalar`` reference, and an env-configured ``remote`` client
whose workers fan shards out over the fleet.  A ``vectorized`` engine —
the default ``batched`` one — costs about the same per call at 8 rows as
at 1,024, so cutting its job into shards multiplies that cost and adds a
round trip per shard; its jobs evaluate in-process at any worker count and
the service spawns no pool for it.

Two things changed with the async service redesign:

* **Pools are persistent, warm and owned.**  :class:`WorkerPool` wraps one
  executor whose workers are spawned *eagerly at construction* and warmed
  by an initializer that pins the BLAS thread count to one
  (``OMP_NUM_THREADS=1`` etc., so B-axis shards never oversubscribe cores),
  pre-imports the backend modules and pre-builds the registry circuits the
  pool will evaluate — the per-interpreter circuit rebuild that used to
  land on the first sharded job now happens before any job is submitted.
  Pools are owned by a :class:`~repro.simulation.service.SimulationService`
  (``service.close()`` / the context-manager protocol shuts them down) and
  every live pool is registered for interpreter-exit cleanup, fixing the
  executor leak of the old module-level per-worker-count cache.
* **Dispatch can be non-blocking.**  :func:`dispatch_job_sharded` submits a
  job's shards and returns a :class:`ShardHandle` immediately; the caller
  assembles the concatenated metrics block later (or cancels the handle to
  abandon speculative work).
* **Scheduling is work-stealing.**  Instead of one uniform
  slice per worker, a job is cut into more, smaller chunks than workers
  (:func:`plan_chunk_bounds`: equal-size, in row order) and the
  executor's shared queue does the stealing: whichever worker finishes
  its chunk pulls the next, so a heavy-tailed row (an ngspice deck
  blowing its transient budget) idles at most one worker for one chunk
  instead of stranding the pool behind a fat uniform slice.  Pool
  workers time their rows, and :attr:`ShardHandle.row_seconds` reports
  it; a metrics block carries only metrics.

Fault tolerance (the simulation-fabric layer):

* **Self-healing pools.**  A worker process dying mid-shard (segfault,
  OOM-kill, a chaos-injected ``os._exit``) breaks the whole
  ``ProcessPoolExecutor`` — every in-flight future raises
  ``BrokenProcessPool``.  :meth:`WorkerPool.heal` tears the broken executor
  down (terminating any survivors) and rebuilds it through the same warm-up
  barrier as construction; :class:`ShardHandle` drives the heal and
  **re-dispatches only the lost shards** — completed shard results are
  kept, so a single worker death costs one shard's work, not the job's.
  Heals are capped per pool (:attr:`WorkerPool.max_heals`); past the cap
  the pool declares itself :attr:`~WorkerPool.poisoned` and every
  dispatcher falls back to in-process evaluation instead of feeding a
  crash loop.
* **Shard watchdogs.**  With a :class:`ShardWatchdog`, every shard gets a
  wall-clock deadline derived from its row count (``seconds_per_row ×
  rows``, floored at :attr:`ShardWatchdog.floor`).  A shard that blows its
  deadline — a hung engine the per-deck timeout never fired on — degrades
  to :data:`~repro.simulation.service.FAILURE_NAN` rows instead of
  wedging the control loop, and the pool is healed (the hung worker
  terminated) so later shards land on live workers.  The FAILURE_NAN rows make the block
  uncacheable and, under a retry policy, trigger a re-simulation; only
  the attempt that succeeds is charged — see
  :mod:`repro.simulation.service`.

Design constraints (unchanged):

* **Seeded-stream identical** — sampling happens *before* a job is built
  (evaluation consumes no randomness), and shard results are concatenated
  in row order (however the batch was chunked, and in whatever order the
  chunks were submitted or finished), so a sharded run returns
  bit-identical metric arrays to the single-process run.  Healing
  preserves this: a re-dispatch
  evaluates the *same* frozen shard job, and watchdog degradation only
  produces FAILURE_NAN rows that a retrying service re-simulates.
* **No circuit or backend pickling** — circuit instances carry closures
  (the :class:`DeviceSpec` sizing lambdas) and cannot cross a process
  boundary.  Workers receive the job's *registry* circuit name and the
  terminal backend's registry name instead, constructing and caching their
  own instances for the life of the process.  Jobs whose circuit is not
  registered (or whose backend is not a named terminal backend) silently
  run single-process.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import time
import warnings
import weakref
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.simulation.service import FAILURE_NAN, can_shard, resolve_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.service import SimJob, SimulationBackend

#: Shard only batches at least this many times the worker count; smaller
#: batches are not worth the serialization round trip.  Backends that
#: declare ``row_parallel = True`` (one expensive external-simulator
#: subprocess per row, e.g. the non-payload-aware ngspice path) opt into a
#: floor of one row per worker instead: any multi-row job fans its rows out
#: across the pool rather than running them serially in one process.
#: ``vectorized`` backends never shard (see
#: :func:`~repro.simulation.service.can_shard`).
MIN_ROWS_PER_WORKER = 2

#: Work-stealing oversubscription: target chunk count per worker.  More
#: chunks mean finer-grained stealing (a straggler chunk strands less
#: sibling work behind it) at the price of more serialization round
#: trips; 4 bounds straggler idle time at ~1/4 of a uniform slice.
STEAL_CHUNKS_PER_WORKER = 4

#: Floor on mean rows per work-stealing chunk for in-process backends —
#: caps the chunk *count* so tiny chunks never drown the evaluation in
#: IPC.  ``row_parallel`` backends (one external subprocess per row)
#: chunk down to single rows instead.
MIN_STEAL_ROWS = 2

#: Environment variables pinned to ``1`` inside every pool worker so a
#: B-axis shard never spawns a BLAS thread team of its own — ``workers``
#: processes × ``cores`` BLAS threads oversubscribes the machine and runs
#: *slower* than single-process.  Set in the worker initializer (effective
#: for libraries that read them lazily) and enforced through
#: ``threadpoolctl`` when installed, else through the ctypes fallback
#: below (required for fork-started workers whose BLAS was already
#: initialized in the parent — an initialized BLAS never re-reads its
#: environment).
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``set_num_threads``-style entry points probed by the ctypes fallback.
#: Covers stock OpenBLAS (plain and 64-bit-index suffixed), the
#: ``scipy_openblas`` builds vendored inside numpy/scipy wheels, GotoBLAS
#: heritage aliases, and BLIS.  Every symbol takes one plain C ``int``.
_BLAS_SET_THREADS_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "goto_set_num_threads",
    "bli_thread_set_num_threads",
)

#: MKL's entry point (takes one C ``int`` by value).
_MKL_SET_THREADS_SYMBOL = "MKL_Set_Num_Threads"

#: How long an eagerly spawned worker waits for its siblings before giving
#: up on the all-workers-up barrier (the pool still works; it is merely
#: less uniformly warm).
WARM_BARRIER_TIMEOUT = 10.0

#: Default cap on executor rebuilds per :class:`WorkerPool` before the
#: pool declares itself poisoned (a worker crash loop should fail over to
#: in-process evaluation, not heal forever).
DEFAULT_MAX_HEALS = 3

# Per-worker-process caches, keyed by registry name.
_WORKER_CIRCUITS: Dict[str, AnalogCircuit] = {}
_WORKER_BACKENDS: Dict[str, "SimulationBackend"] = {}

# Keeps the threadpoolctl limiter alive for the worker's lifetime.
_WORKER_BLAS_LIMITER = None

#: Every live pool, for interpreter-exit cleanup.  A WeakSet, so explicit
#: ``close()`` (or garbage collection) drops the reference and the atexit
#: sweep only touches pools that were genuinely leaked.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _shutdown_live_pools() -> None:  # pragma: no cover - interpreter teardown
    for pool in list(_LIVE_POOLS):
        pool.shutdown(wait=False)


def _pin_blas_threads() -> None:
    """Pin this process's BLAS/OpenMP thread pools to a single thread.

    Environment variables alone are not enough under the ``fork`` start
    method: a parent that already ran a matmul has an *initialized* BLAS
    whose thread team survives the fork and never re-reads the
    environment, so every worker would run a full-width team and
    oversubscribe the machine ``workers``-fold.  ``threadpoolctl`` fixes
    that when installed; otherwise :func:`_ctypes_pin_blas_threads` calls
    the loaded library's ``*_set_num_threads`` entry point directly.
    (The ``spawn`` start method side-steps the problem entirely — children
    start with a fresh, uninitialized BLAS that honours the env vars — at
    the cost of losing fork's warm copy-on-write memory; prefer it on
    platforms where fork is unavailable anyway.)
    """
    global _WORKER_BLAS_LIMITER
    for name in BLAS_ENV_VARS:
        os.environ[name] = "1"
    try:  # pragma: no cover - optional dependency
        import threadpoolctl

        _WORKER_BLAS_LIMITER = threadpoolctl.threadpool_limits(limits=1)
        return
    except ImportError:
        pass
    _ctypes_pin_blas_threads(1)


def _blas_library_candidates() -> List[str]:
    """Paths of BLAS shared objects bundled with the loaded numpy/scipy wheels.

    Wheels vendor their OpenBLAS under ``<site-packages>/numpy.libs`` /
    ``scipy.libs`` (Linux) or ``numpy/.libs`` (older layouts) and load it
    ``RTLD_LOCAL`` — its symbols are *not* visible through
    ``ctypes.CDLL(None)``, so the fallback must dlopen the file itself
    (dlopen of an already-loaded object returns the same handle, so the
    thread-count call reaches the live instance).  ``src/`` needs numpy
    alone, so scipy's library is a candidate only when something already
    imported scipy: importing it here would load a BLAS nothing calls.
    """
    import glob

    candidates: List[str] = []
    for module_name in ("numpy", "scipy"):
        module = sys.modules.get(module_name)
        if module is None:
            continue
        package_dir = os.path.dirname(os.path.abspath(module.__file__))
        site_dir = os.path.dirname(package_dir)
        for libs_dir in (
            os.path.join(site_dir, f"{module_name}.libs"),
            os.path.join(package_dir, ".libs"),
        ):
            for pattern in ("*openblas*", "*mkl_rt*", "*blis*"):
                candidates.extend(
                    sorted(glob.glob(os.path.join(libs_dir, pattern)))
                )
    return candidates


def _ctypes_pin_blas_threads(count: int) -> List[str]:
    """Best-effort ctypes fallback for :func:`_pin_blas_threads`.

    Probes the process-global symbol namespace and the BLAS libraries
    vendored by the loaded numpy (and scipy, if imported) for a
    ``set_num_threads`` entry point and pins each one found.  Returns the
    symbols that were actually called (the test suite asserts numpy's
    vendored OpenBLAS is reached, with scipy left unimported).
    Failures are silent by design: a worker that cannot pin is merely
    slower, never wrong.
    """
    import ctypes

    pinned: List[str] = []
    libraries = []
    try:
        libraries.append(ctypes.CDLL(None))
    except (OSError, TypeError):  # pragma: no cover - exotic platforms
        pass
    for path in _blas_library_candidates():
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:  # pragma: no cover - unloadable stray file
            continue
    seen = set()
    for library in libraries:
        for symbol in _BLAS_SET_THREADS_SYMBOLS + (_MKL_SET_THREADS_SYMBOL,):
            if symbol in seen:
                continue
            entry = getattr(library, symbol, None)
            if entry is None:
                continue
            try:
                entry.argtypes = [ctypes.c_int]
                entry.restype = None
                entry(int(count))
            except (ctypes.ArgumentError, OSError):  # pragma: no cover
                continue
            seen.add(symbol)
            pinned.append(symbol)
    return pinned


def _warm_worker(
    circuit_names: Tuple[str, ...],
    backend_names: Tuple[str, ...],
    barrier,
) -> None:
    """Worker initializer: pin BLAS, pre-build, then rendezvous.

    Runs exactly once per worker interpreter.  The circuit and backend
    pre-builds populate the process-level caches, so the first real shard
    pays no construction cost; resolving a built-in backend's name imports
    (and so registers) its module, and nothing else is imported for it.
    The optional barrier forces the executor to actually spawn all of its
    workers during :class:`WorkerPool` construction instead of lazily on
    first submit.
    """
    _pin_blas_threads()
    for name in backend_names:
        try:
            _worker_backend(name)
        except KeyError:  # pragma: no cover - unregistered custom backend
            pass
    for name in circuit_names:
        try:
            _worker_circuit(name)
        except (KeyError, ValueError):  # pragma: no cover - unregistered
            pass
    if barrier is not None:
        try:
            barrier.wait(timeout=WARM_BARRIER_TIMEOUT)
        except Exception:  # pragma: no cover - best-effort rendezvous
            pass


def _worker_circuit(name: str) -> AnalogCircuit:
    circuit = _WORKER_CIRCUITS.get(name)
    if circuit is None:
        from repro.circuits.registry import get_circuit

        circuit = get_circuit(name)
        _WORKER_CIRCUITS[name] = circuit
    return circuit


def _worker_backend(name: str) -> "SimulationBackend":
    backend = _WORKER_BACKENDS.get(name)
    if backend is None:
        backend = resolve_backend(name)
        _WORKER_BACKENDS[name] = backend
    return backend


def _evaluate_job_shard(
    backend_name: str, job: "SimJob"
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Worker-side: evaluate one shard job on process-cached objects.

    Returns the metrics block and the per-row wall clock: exact for
    one-row shards, a uniform split of the shard's elapsed time
    otherwise.
    """
    circuit = _worker_circuit(job.circuit_name)
    started = time.perf_counter()
    metrics = _worker_backend(backend_name).evaluate(circuit, job)
    rows = max(job.batch, 1)
    return metrics, np.full(rows, (time.perf_counter() - started) / rows)


def _noop() -> None:
    """Warm-up task: its only job is forcing a worker to spawn."""


@dataclass(frozen=True)
class ShardWatchdog:
    """Wall-clock deadline policy for in-flight shards.

    ``deadline(rows)`` is the grace a shard of that many rows gets before
    :meth:`ShardHandle.result` gives up on it: ``seconds_per_row × rows``,
    floored at ``floor`` so one-row shards are not starved by scheduling
    noise.  An expired shard degrades to
    :data:`~repro.simulation.service.FAILURE_NAN` rows (uncacheable; retried
    uncharged by a service with a :class:`~repro.simulation.service
    .RetryPolicy`) and the pool is healed so the hung worker is reclaimed.
    This sits *above* any per-deck engine timeout — it is the backstop for
    hangs the engine-level timeout cannot see (a stuck worker interpreter,
    an engine ignoring its own limit).
    """

    seconds_per_row: float = 30.0
    floor: float = 5.0

    def deadline(self, rows: int) -> float:
        return max(float(self.floor), float(self.seconds_per_row) * max(rows, 1))


class WorkerPool:
    """A persistent, warm, explicitly owned, self-healing process pool.

    Parameters
    ----------
    workers:
        Process count.
    circuit_names / backend_names:
        Registry names pre-built inside every worker by the initializer, so
        the first sharded job finds its circuit and backend already
        constructed (the old lazy pools rebuilt circuits per interpreter on
        the first shard they received).
    eager:
        Spawn and warm every worker at construction.  Under the ``fork``
        start method a barrier guarantees all ``workers`` processes come up
        before the constructor returns; other start methods fall back to a
        best-effort warm-up (synchronization primitives cannot be pickled
        to spawned children).
    max_heals:
        Executor rebuilds allowed before the pool declares itself
        :attr:`poisoned` (see :meth:`heal`).

    The pool registers itself for interpreter-exit shutdown, but callers
    should prefer the explicit lifecycle — ``pool.shutdown()``, the context
    manager, or the owning service's ``close()`` — so executors never
    accumulate across worker-count changes.

    Ownership trade-off: pools are per-service (a multi-seed sweep spawns
    and releases one pool per seed) rather than process-cached like the
    old module-level executors.  Under the ``fork`` start method a warm
    spawn costs tens of milliseconds — noise against a seed run — and in
    exchange no executor can ever outlive its owner unnoticed.
    """

    def __init__(
        self,
        workers: int,
        circuit_names: Sequence[str] = (),
        backend_names: Sequence[str] = (),
        eager: bool = True,
        max_heals: int = DEFAULT_MAX_HEALS,
    ):
        self.workers = max(1, int(workers))
        self.max_heals = max(0, int(max_heals))
        self._circuit_names = tuple(circuit_names)
        self._backend_names = tuple(backend_names)
        self._eager = bool(eager)
        self._closed = False
        self._poisoned = False
        #: Executor rebuilds performed so far (observable; tests assert it).
        self.heals = 0
        #: Monotonic rebuild counter.  Shard handles record the generation
        #: their futures were submitted under; on ``BrokenProcessPool`` they
        #: pass it to :meth:`heal_broken` so several handles discovering the
        #: same dead executor trigger exactly one rebuild.
        self.generation = 0
        self._executor = self._spawn_executor()
        # Register for the interpreter-exit sweep *before* the warm-up:
        # a warm-up failure (worker died, timeout on a loaded machine)
        # must not leak the already-spawned executor.
        _LIVE_POOLS.add(self)
        if self._eager:
            try:
                self._warm_up(self._executor)
            except BaseException:
                self.shutdown(wait=False)
                raise

    # ------------------------------------------------------------------
    def _spawn_executor(self) -> ProcessPoolExecutor:
        barrier = None
        if (
            self._eager
            and multiprocessing.get_start_method(allow_none=False) == "fork"
        ):
            barrier = multiprocessing.get_context("fork").Barrier(self.workers)
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_warm_worker,
            initargs=(self._circuit_names, self._backend_names, barrier),
        )

    def _warm_up(self, executor: ProcessPoolExecutor) -> None:
        # One no-op per worker: each submit sees no idle worker (the
        # previous ones are blocked on the barrier inside the initializer)
        # and forces a fresh spawn, so all `workers` interpreters exist —
        # warm — before any real job arrives.
        for future in [executor.submit(_noop) for _ in range(self.workers)]:
            future.result(timeout=WARM_BARRIER_TIMEOUT + 30.0)

    @staticmethod
    def _terminate_workers(executor: ProcessPoolExecutor) -> None:
        """Best-effort SIGTERM to an executor's worker processes.

        Used when retiring a broken or hung executor: ``shutdown`` alone
        never kills a *running* worker, so a hung engine would keep its
        process (and its memory) alive indefinitely.  Reaches into the
        executor's process table — private API, guarded accordingly.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def poisoned(self) -> bool:
        """True once the heal cap is spent: dispatchers must stop feeding
        this pool (they fall back to in-process evaluation instead)."""
        return self._poisoned

    def submit(self, fn, /, *args) -> Future:
        if self._closed:
            raise RuntimeError("cannot submit to a closed WorkerPool")
        if self._poisoned:
            raise RuntimeError("cannot submit to a poisoned WorkerPool")
        return self._executor.submit(fn, *args)

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def heal(self, reason: str = "worker death") -> bool:
        """Replace the executor with a freshly warmed one.

        Terminates whatever worker processes remain (a broken executor may
        still hold live siblings; a hung executor holds the stuck worker),
        shuts the old executor down without waiting, and spawns a new one
        through the same warm-up barrier as construction.  Each heal
        increments :attr:`generation`; once :attr:`max_heals` rebuilds have
        been spent the pool flips to :attr:`poisoned` and returns ``False``
        — the caller must fail over (in-process evaluation) rather than
        retry into a crash loop.  Returns ``True`` when the pool is usable
        again.
        """
        if self._closed or self._poisoned:
            return False
        if self.heals >= self.max_heals:
            self._poisoned = True
            warnings.warn(
                f"WorkerPool poisoned after {self.heals} heals "
                f"(last failure: {reason}); falling back to in-process "
                f"evaluation",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        self.heals += 1
        self.generation += 1
        old = self._executor
        self._terminate_workers(old)
        old.shutdown(wait=False, cancel_futures=True)
        self._executor = self._spawn_executor()
        if self._eager:
            try:
                self._warm_up(self._executor)
            except BaseException:
                self._poisoned = True
                self._executor.shutdown(wait=False, cancel_futures=True)
                raise
        return True

    def heal_broken(self, generation: int, reason: str = "worker death") -> bool:
        """Heal only if the executor from ``generation`` is still current.

        When one worker dies, *every* in-flight future raises
        ``BrokenProcessPool``; the first shard handle to notice heals the
        pool, and this guard turns the siblings' heal requests into no-ops
        (their executor is already gone and replaced).  Returns whether
        the pool is usable.
        """
        if generation != self.generation:
            return not (self._closed or self._poisoned)
        return self.heal(reason=reason)

    def shutdown(self, wait: bool = True) -> None:
        """Idempotent shutdown; cancels work that has not started."""
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        self._executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _failure_block(
    job: "SimJob", metric_names: Sequence[str]
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """An all-:data:`FAILURE_NAN` metrics block for one shard job, with
    NaN row seconds (the rows never ran)."""
    block = {
        name: np.full(job.batch, FAILURE_NAN) for name in metric_names
    }
    return block, np.full(job.batch, np.nan)


class _Shard:
    """One in-flight shard: the frozen sub-job plus its current future."""

    __slots__ = ("job", "future", "generation")

    def __init__(self, job: "SimJob", future: Future, generation: int):
        self.job = job
        self.future = future
        self.generation = generation


class ShardHandle:
    """An in-flight sharded evaluation: shard futures plus assembly.

    ``result()`` blocks until every shard finishes and concatenates the
    metric blocks in shard (= row) order — bit-identical to the in-process
    evaluation regardless of how the batch was chunked or in what order
    the chunks were submitted.  ``cancel()`` abandons the handle: shards
    that have not started are cancelled outright, already-running shards
    finish in the pool but their results are dropped, and a ``result()``
    call racing the cancel raises ``CancelledError`` at the next shard
    boundary instead of assembling dropped work.  The service never
    charges budget for a cancelled handle, which is what makes
    speculative double-buffered submission safe.

    Timing: each worker returns its shard's per-row wall clock beside
    the metrics; ``result()`` concatenates it into :attr:`row_seconds`
    (row order, NaN for watchdog-degraded rows) and returns the metrics
    alone.

    Fault handling inside ``result()``:

    * a shard whose worker died (``BrokenProcessPool``) triggers
      :meth:`WorkerPool.heal_broken` and is **re-dispatched** on the healed
      pool — only the lost shard re-runs; sibling results are kept.  When
      the pool refuses (poisoned / closed), the lost shard is evaluated
      *in-process* so the job still completes deterministically.
    * with a :class:`ShardWatchdog`, a shard that outlives its deadline
      degrades to :data:`~repro.simulation.service.FAILURE_NAN` rows (the
      never-produced signature: uncacheable, retried uncharged under a
      service retry policy) and the pool is healed to reclaim the hung
      worker.
    """

    def __init__(
        self,
        jobs: List["SimJob"],
        futures: List[Future],
        pool: WorkerPool,
        backend_name: str,
        metric_names: Sequence[str],
        watchdog: Optional[ShardWatchdog] = None,
    ):
        self._shards = [
            _Shard(shard_job, future, pool.generation)
            for shard_job, future in zip(jobs, futures)
        ]
        self._pool = pool
        self._backend_name = backend_name
        self._metric_names = tuple(metric_names)
        self._watchdog = watchdog
        self._cancelled = False
        #: Per-row wall-clock seconds in row order, set by ``result()``.
        self.row_seconds: Optional[np.ndarray] = None
        #: Shard indices degraded to FAILURE_NAN by the watchdog (observable).
        self.timed_out_shards: List[int] = []
        #: Shard indices re-dispatched after a worker death (observable).
        self.redispatched_shards: List[int] = []

    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        # Flag first: a result() call racing this cancel must see the
        # deliberate abandonment and raise, not mistake its shards'
        # CancelledError for a pool heal and re-dispatch the work.
        self._cancelled = True
        for shard in self._shards:
            shard.future.cancel()

    # ------------------------------------------------------------------
    def _recover_lost_shard(self, index: int, shard: _Shard) -> None:
        """Re-dispatch one shard whose worker died; in-process fallback
        when the pool cannot heal."""
        self.redispatched_shards.append(index)
        pool = self._pool
        if pool.heal_broken(shard.generation):
            shard.generation = pool.generation
            shard.future = pool.submit(
                _evaluate_job_shard, self._backend_name, shard.job
            )
            return
        # Last resort: evaluate the lost shard in this process.  A future
        # is still used so the assembly loop below stays uniform.
        fallback: Future = Future()
        try:
            fallback.set_result(
                _evaluate_job_shard(self._backend_name, shard.job)
            )
        except BaseException as error:  # pragma: no cover - engine bug
            fallback.set_exception(error)
        shard.future = fallback

    def result(self) -> Dict[str, np.ndarray]:
        blocks: List[Optional[Tuple[Dict[str, np.ndarray], np.ndarray]]]
        blocks = [None] * len(self._shards)
        for index, shard in enumerate(self._shards):
            deadline = None
            if self._watchdog is not None:
                deadline = self._watchdog.deadline(shard.job.batch)
            attempts = 0
            while blocks[index] is None:
                if self._cancelled:
                    raise CancelledError(
                        "ShardHandle was cancelled; dropping its shards"
                    )
                try:
                    blocks[index] = shard.future.result(deadline)
                except (BrokenProcessPool, CancelledError) as error:
                    if self._cancelled and isinstance(error, CancelledError):
                        # Deliberate abandonment (handle.cancel()), not a
                        # lost worker: propagate instead of re-dispatching
                        # work nobody will consume.
                        raise
                    # A dead worker breaks every in-flight future; a heal
                    # (triggered by a sibling shard or a watchdog) cancels
                    # the old executor's queued ones.  Both mean the same
                    # thing here: this shard's work was lost — recover it.
                    attempts += 1
                    # One recovery per heal budget: the in-process fallback
                    # inside _recover_lost_shard is terminal, so this loop
                    # can only spin while the pool keeps healing — which
                    # max_heals bounds.
                    if attempts > self._pool.max_heals + 1:
                        raise
                    self._recover_lost_shard(index, shard)
                except FuturesTimeoutError:
                    # Watchdog expiry: degrade to never-produced rows and
                    # reclaim the hung worker.  The FAILURE_NAN signature
                    # keeps the block uncacheable and lets a retrying
                    # service re-simulate it uncharged.
                    self.timed_out_shards.append(index)
                    warnings.warn(
                        f"shard {index} ({shard.job.batch} rows) exceeded "
                        f"its {deadline:.1f}s watchdog deadline; degrading "
                        f"to FAILURE_NAN rows and healing the pool",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    blocks[index] = _failure_block(
                        shard.job, self._metric_names
                    )
                    self._pool.heal(reason="hung shard")
        results = [block for block, _ in blocks]
        self.row_seconds = np.concatenate([seconds for _, seconds in blocks])
        return {
            metric: np.concatenate([result[metric] for result in results])
            for metric in results[0]
            if all(metric in result for result in results)
        }


def _registered_circuit(circuit: AnalogCircuit) -> bool:
    """True when the circuit's registry name rebuilds this exact class."""
    from repro.circuits.registry import registered_class

    return registered_class(circuit.name) is type(circuit)


def shardable(
    circuit: AnalogCircuit,
    backend: "SimulationBackend",
    workers: int,
    batch: int,
) -> bool:
    """True when a batch of this size is worth splitting across workers.

    Backends whose rows are individually expensive (``row_parallel = True``,
    e.g. one external-simulator subprocess per row) shard any multi-row
    batch; other backends that :func:`~repro.simulation.service.can_shard`
    require :data:`MIN_ROWS_PER_WORKER` rows per worker before the
    serialization round trip pays off.
    """
    if workers <= 1 or not can_shard(backend):
        return False
    if backend.row_parallel:
        enough = batch >= 2  # any multi-row job beats a serial row loop
    else:
        enough = batch >= MIN_ROWS_PER_WORKER * workers
    return enough and _registered_circuit(circuit)


def plan_chunk_bounds(
    batch: int,
    workers: int,
    row_parallel: bool = False,
) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` work-stealing chunks of equal size.

    The batch is cut into :data:`STEAL_CHUNKS_PER_WORKER` chunks per
    worker, so the executor's shared queue can hand a free worker the
    next chunk while another is stuck on a straggler.  Chunk *count* is
    capped by :data:`MIN_STEAL_ROWS` mean rows per chunk for in-process
    backends (``row_parallel`` engines chunk down to single rows) so IPC
    overhead stays bounded.  Chunk sizes differ by at most one row.

    Row order is preserved (chunks tile ``[0, batch)`` in order), which
    is what keeps concatenated results bit-identical to the in-process
    evaluation regardless of chunking.
    """
    batch = int(batch)
    workers = max(1, int(workers))
    if batch <= 0:
        return []
    min_rows = 1 if row_parallel else MIN_STEAL_ROWS
    chunks = min(
        batch,
        workers * STEAL_CHUNKS_PER_WORKER,
        max(workers, batch // min_rows),
    )
    # Cut k sits at ceil(k * batch / chunks).
    cuts = [-(-k * batch // chunks) for k in range(chunks + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def dispatch_job_sharded(
    circuit: AnalogCircuit,
    backend: "SimulationBackend",
    job: "SimJob",
    pool: Optional[WorkerPool],
    watchdog: Optional[ShardWatchdog] = None,
) -> Optional[ShardHandle]:
    """Submit one job's row shards to ``pool`` without blocking.

    Returns a :class:`ShardHandle`, or ``None`` whenever sharding is not
    applicable (no pool, closed or poisoned pool, vectorized engine, small
    batch, unregistered circuit, non-terminal backend) so the caller
    evaluates in-process instead.

    The batch is cut into more equal-size chunks than workers
    (:func:`plan_chunk_bounds`), submitted in row order, and the
    executor's shared queue does the stealing: whichever worker finishes
    pulls the next chunk, so a straggler row idles at most one worker for
    one chunk.  Shard results assemble in row order — bit-identical
    metrics and, because the service accounts at resolution time,
    bit-identical budget trajectories.
    """
    if pool is None or pool.closed or pool.poisoned:
        return None
    if not shardable(circuit, backend, pool.workers, job.batch):
        return None
    shard_jobs = [
        job.shard(lo, hi)
        for lo, hi in plan_chunk_bounds(
            job.batch, pool.workers, row_parallel=backend.row_parallel
        )
    ]

    def _submit_all(slots: List[Optional[Future]]) -> None:
        for i, shard_job in enumerate(shard_jobs):
            slots[i] = pool.submit(_evaluate_job_shard, backend.name, shard_job)

    futures: List[Optional[Future]] = [None] * len(shard_jobs)
    try:
        _submit_all(futures)
    except BrokenProcessPool:
        # A previous job's worker death is discovered here, at submit
        # time: the executor broke after its last result was consumed,
        # so no ShardHandle ever saw the breakage.  Heal once and
        # restart the dispatch on the fresh executor; if the pool
        # refuses (cap spent), fall back in-process.
        if not pool.heal_broken(pool.generation, reason="broken at submit"):
            return None
        for stale in futures:
            if stale is not None:
                stale.cancel()
        futures = [None] * len(shard_jobs)
        try:
            _submit_all(futures)
        except (BrokenProcessPool, RuntimeError):
            return None  # freshly healed pool broke again: give up
    return ShardHandle(
        shard_jobs,
        futures,
        pool,
        backend.name,
        circuit.metric_names,
        watchdog=watchdog,
    )
