"""Backend-pluggable simulation service.

The optimizer, the verifier and the baselines all consume one abstract
oracle — "simulate (design, corner, mismatch)" — but before this module
that oracle was five ad-hoc ``CircuitSimulator`` entry points, each with its
own batching axis, budget charge and sharding branch.  The service layer
turns every simulation request into a single value object and a single
call:

* :class:`SimJob` — a frozen request: a design block × a corner block × a
  mismatch block plus a phase tag.  Jobs carry a deterministic content hash
  (:attr:`SimJob.job_id`) so identical requests can be recognised across
  caching, retries and process boundaries.
* :class:`SimResult` — the response: one ``(B,)`` array per metric, plus
  per-row :class:`SimulationRecord` views for consumers that want dicts.
* :class:`SimulationBackend` — the engine boundary.  Two terminal backends
  ship in this module: :class:`BatchedMNABackend` (the vectorized engine,
  one ``evaluate_batch`` pass per job) and :class:`ReferenceScalarBackend`
  (the bit-exact scalar path, one ``evaluate`` call per row).  Other
  engines (the ngspice adapter, the remote client) plug in here without
  touching the control loop.
* :class:`CachingBackend` — a decorator backend memoizing results by job
  hash; a hit costs zero budget (configurable on the service).  With a
  ``spill_dir`` it also persists result blocks to an on-disk store keyed by
  the same hash, so repeated experiment sweeps replay across processes.
* :class:`ShardedDispatcher` — a decorator backend splitting any job's
  batch axis — mismatch rows, corner rows *and* design rows alike — across
  a persistent warm :class:`~repro.simulation.sharding.WorkerPool` it is
  handed (the service owns it), for engines that can shard (never
  ``batched``).
* :class:`SimulationService` — owns the circuit, the budget, the backend
  chain and the worker pool; ``service.run(job)`` is the one synchronous
  call everything routes through, and ``service.submit(job)`` is its
  futures-based twin (see below).

Above the job layer sits the experiment front end
(:mod:`repro.simulation.frontend`): a ``repro serve --mode experiment``
daemon that owns *whole sizing runs* — journaled for crash recovery and
admission-controlled per tenant via
:class:`~repro.simulation.budget.TenantBudgetLedger` — while every
simulation it triggers still flows through this service layer.

Budget accounting is charged at the service, not in the backends, so cache
hits and retried shards can never inflate the paper's "# Simulation"
column (see :meth:`repro.simulation.budget.SimulationBudget.charge`), and a
backend failure *refunds* the charge — a job that never produced metrics is
never counted (see :meth:`SimulationService.run`).

Async execution path
--------------------
``service.submit(job)`` returns a :class:`SimFuture` immediately.  When the
job shards across the service's worker pool, its shards are dispatched
right away and evaluate in the background; otherwise the evaluation is
deferred into the future itself (lazy thunk) and runs when the caller
resolves it.  *All* budget accounting — the charge, the idempotency key,
the failure refund and the cache store — happens at **resolution time**
(:meth:`SimFuture.result`), in the caller's thread, in resolution order:

* resolving futures in submission order reproduces the synchronous
  schedule's budget trajectory exactly (same totals, same
  ``max_simulations`` abort point, same idempotency keys);
* a future that is *cancelled* (or simply never resolved) charges nothing
  and stores nothing — which is what makes speculative double-buffered
  submission safe: work the sequential schedule would never have issued is
  never accounted, and with the lazy thunk it is never even evaluated.

The control loop always runs this way, through :func:`iter_resolved` one
submission ahead (``core/verification.py`` double-buffers full-MC chunks;
the optimizer seed phase overlaps its corner mega-batches).  There is no
blocking variant to switch to: the sequential reference is the same loop
at lookahead 0, whose results, streams and budgets are bit-identical.
On the default ``batched`` engine every future is a lazy thunk, so both
lookaheads evaluate the same jobs in the same order; only a pool-backed
engine overlaps work.  There, too, the verifier's chunk futures of one
corner share one lazy evaluation of the corner's whole ranked remainder
(:meth:`SimulationService.chunk_submitter`); each chunk is still its own
job at resolution.

Writing a backend
-----------------
A terminal backend is a class with a unique ``name`` and one method::

    class MyBackend(SimulationBackend):
        name = "mine"

        def evaluate(self, circuit, job):  # -> {metric: (B,) array}
            ...

    BACKENDS[MyBackend.name] = MyBackend

Contract, in order of importance:

1. Return one ``(job.batch,)`` float array per ``circuit.metric_names``
   entry, rows aligned with ``job.row_corners`` / ``job.mismatch`` (or
   ``job.designs`` for design-axis jobs).  Use NaN for rows the engine
   could not evaluate — the reward pipeline treats NaN as a constraint
   violation, so partial failures degrade instead of crashing.
2. Never touch the budget; the service owns all accounting.
3. The zero-argument constructor must build a working instance (worker
   processes rebuild backends from :data:`BACKENDS` by name; pull
   configuration from the environment the way
   :class:`repro.simulation.ngspice.NgspiceBackend` resolves its
   executable).
4. Raise for deployment errors, degrade (NaN) for simulation errors.
   Raising aborts the job and refunds its budget charge.
5. Declare the cost shape: ``vectorized = True`` when one call costs
   about the same at any row count (its jobs then never shard, and the
   verifier's full-MC chunks of one corner share one call over the
   whole ranked remainder, see :meth:`SimulationService.chunk_submitter`),
   or ``row_parallel = True`` when every row is its own external run (any
   multi-row job fans out across the pool, and every chunk is evaluated
   alone).

Registered names are automatically selectable from
``ExperimentConfig(backend=...)`` and ``python -m repro --backend ...``,
and compose with :class:`CachingBackend` / :class:`ShardedDispatcher`
without further wiring.  See :mod:`repro.simulation.ngspice` for a complete
external-process example.
"""

from __future__ import annotations

import hashlib
import io
import os
import threading
import time
import warnings
import zipfile
from collections import deque
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from enum import Enum
from subprocess import TimeoutExpired
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.simulation.atomic import atomic_write
from repro.simulation.budget import SimulationBudget, SimulationPhase
from repro.simulation.sharding import (
    ROW_SECONDS_KEY,
    ShardHandle,
    ShardWatchdog,
    WorkerPool,
    can_shard,
    dispatch_job_sharded,
    is_reserved_metric,
    strip_reserved_metrics,
)
from repro.variation.corners import CornerBatch, PVTCorner


#: Batch axes a job can fan out over.
CONDITION_AXIS = "conditions"  # one design × B (corner, mismatch) rows
DESIGN_AXIS = "designs"  # M designs × one corner at nominal mismatch


def failed_row_mask(metrics: Dict[str, np.ndarray]) -> np.ndarray:
    """``(B,)`` mask of rows the engine never produced.

    Failure is marked explicitly by the backend with
    :data:`repro.spice.deck.FAILURE_NAN` — a payload-tagged NaN written
    only for cells the engine never evaluated (subprocess crash/timeout,
    cell absent from the measure log).  A row is failed when *every* metric
    carries the tag.  Plain NaN — a measure the engine *reported* as
    failed, or an analytic backend's unconverged row — is a genuine result
    and is never mistaken for infrastructure failure, so legitimately
    all-NaN results stay charged and cacheable.  Reserved bookkeeping
    keys (``__``-prefixed, e.g. the per-row timing block) are not
    metrics and never participate in failure detection."""
    from repro.spice.deck import failure_nan_mask

    blocks = [
        np.asarray(block)
        for name, block in metrics.items()
        if not is_reserved_metric(name)
    ]
    if not blocks:
        return np.zeros(0, dtype=bool)
    return np.logical_and.reduce([failure_nan_mask(block) for block in blocks])


def is_failure_block(metrics: Dict[str, np.ndarray]) -> bool:
    """Whether a metrics block is the degradation signature of a whole-job
    infrastructure failure: every cell of every metric tagged
    :data:`~repro.spice.deck.FAILURE_NAN`.  The service refunds the budget
    charge for such blocks, mirroring the raise path — a job the engine
    never evaluated is never counted.  The cache is stricter still: it
    refuses any block containing a failed *row* (:func:`failed_row_mask`),
    so a transient per-row flake is re-simulated rather than memoized
    forever."""
    mask = failed_row_mask(metrics)
    return mask.size > 0 and bool(mask.all())


def _readonly(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if array is None:
        return None
    # Always copy: freezing a view (or the caller's own array) in place
    # would leak the job's immutability back into e.g. a MismatchSet's
    # shared samples matrix.
    array = np.array(array, dtype=float, order="C")
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class SimJob:
    """One immutable simulation request.

    Attributes
    ----------
    circuit_name:
        Registry name of the circuit the job targets (jobs must be
        self-describing so they can cross process boundaries).
    designs:
        ``(M, p)`` block of normalised sizing vectors.  ``M == 1`` for
        condition-axis jobs (the design is broadcast over the rows).
    corners:
        Corner block: a tuple of length 1 (broadcast over the batch) or of
        length ``B`` (one corner per row).
    mismatch:
        ``(B, r)`` mismatch block, or ``None`` for nominal devices.
    phase:
        Which phase of the framework is paying for the job.
    axis:
        ``"conditions"`` (one design, many corner/mismatch rows) or
        ``"designs"`` (many designs, one corner, nominal mismatch).
    """

    circuit_name: str
    designs: np.ndarray
    corners: Tuple[PVTCorner, ...]
    mismatch: Optional[np.ndarray]
    phase: SimulationPhase = SimulationPhase.OPTIMIZATION
    axis: str = CONDITION_AXIS

    def __post_init__(self) -> None:
        designs = _readonly(np.atleast_2d(self.designs))
        object.__setattr__(self, "designs", designs)
        object.__setattr__(self, "corners", tuple(self.corners))
        object.__setattr__(self, "mismatch", _readonly(self.mismatch))
        if not self.corners:
            raise ValueError("a SimJob needs at least one corner")
        if self.axis not in (CONDITION_AXIS, DESIGN_AXIS):
            raise ValueError(f"unknown job axis {self.axis!r}")
        if self.axis == DESIGN_AXIS:
            if self.mismatch is not None:
                raise ValueError("design-axis jobs run at nominal mismatch")
            if len(self.corners) != 1:
                raise ValueError("design-axis jobs take a single corner")
        else:
            if self.designs.shape[0] != 1:
                raise ValueError(
                    "condition-axis jobs take a single design; use the "
                    "design axis for design batches"
                )
            if self.mismatch is not None:
                if self.mismatch.ndim != 2:
                    raise ValueError("mismatch block must be 2-D (B, r)")
                rows = self.mismatch.shape[0]
                if len(self.corners) not in (1, rows):
                    raise ValueError(
                        f"corner block ({len(self.corners)}) and mismatch "
                        f"block ({rows}) lengths differ"
                    )

    # ------------------------------------------------------------------
    @classmethod
    def conditions(
        cls,
        circuit_name: str,
        x_normalized: np.ndarray,
        corners: Sequence[PVTCorner],
        mismatch: Optional[np.ndarray] = None,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> "SimJob":
        """One design across a block of (corner, mismatch) conditions."""
        return cls(
            circuit_name=circuit_name,
            designs=np.asarray(x_normalized, dtype=float)[None, :],
            corners=tuple(corners),
            mismatch=mismatch,
            phase=phase,
            axis=CONDITION_AXIS,
        )

    @classmethod
    def design_batch(
        cls,
        circuit_name: str,
        designs: np.ndarray,
        corner: PVTCorner,
        phase: SimulationPhase = SimulationPhase.INITIAL_SAMPLING,
    ) -> "SimJob":
        """Many designs at one corner and nominal mismatch."""
        return cls(
            circuit_name=circuit_name,
            designs=np.atleast_2d(np.asarray(designs, dtype=float)),
            corners=(corner,),
            mismatch=None,
            phase=phase,
            axis=DESIGN_AXIS,
        )

    # ------------------------------------------------------------------
    @property
    def batch(self) -> int:
        """Number of rows the job evaluates (= simulations charged)."""
        if self.axis == DESIGN_AXIS:
            return int(self.designs.shape[0])
        if self.mismatch is not None:
            return int(self.mismatch.shape[0])
        return len(self.corners)

    @property
    def cost(self) -> int:
        """Simulations the budget charges for this job (the paper counts
        one per evaluated row, batched or not)."""
        return self.batch

    @property
    def row_corners(self) -> Tuple[PVTCorner, ...]:
        """One corner per row (broadcasting a length-1 corner block)."""
        if len(self.corners) == self.batch:
            return self.corners
        return self.corners * self.batch

    @property
    def job_id(self) -> str:
        """Deterministic content hash of the request.

        Stable across processes and sessions: it digests the circuit name,
        the axis, the design/mismatch bytes and the corner names — not
        object identities — so equal requests always collide.
        """
        cached = self.__dict__.get("_job_id")
        if cached is None:
            digest = hashlib.sha256()
            digest.update(self.circuit_name.encode())
            digest.update(self.axis.encode())
            digest.update(str(self.designs.shape).encode())
            digest.update(self.designs.tobytes())
            # Raw corner floats, not display names: PVTCorner.name rounds
            # vdd/temperature for readability, which would collide
            # physically different corners.
            for corner in self.corners:
                digest.update(corner.process.value.encode())
                digest.update(np.float64(corner.vdd).tobytes())
                digest.update(np.float64(corner.temperature).tobytes())
            if self.mismatch is None:
                digest.update(b"nominal")
            else:
                digest.update(str(self.mismatch.shape).encode())
                digest.update(self.mismatch.tobytes())
            cached = digest.hexdigest()
            object.__setattr__(self, "_job_id", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimJob):
            return NotImplemented
        return self.job_id == other.job_id and self.phase is other.phase

    def __hash__(self) -> int:
        return hash(self.job_id)

    def shard(self, lo: int, hi: int) -> "SimJob":
        """The sub-job covering rows ``[lo, hi)`` of the batch axis."""
        if self.axis == DESIGN_AXIS:
            return replace(self, designs=self.designs[lo:hi])
        corners = self.corners
        if len(corners) > 1:
            corners = corners[lo:hi]
        mismatch = None if self.mismatch is None else self.mismatch[lo:hi]
        return replace(self, corners=corners, mismatch=mismatch)


@dataclass
class SimResult:
    """Metrics tensor plus per-row record views for one :class:`SimJob`."""

    job: SimJob
    metrics: Dict[str, np.ndarray]
    cached: bool = False
    backend: str = ""
    #: Measured wall-clock seconds per row (``(B,)``), or ``None`` when
    #: the evaluation was not timed (cache hits, remote replies).  NaN
    #: rows never ran (watchdog-degraded shards).
    row_seconds: Optional[np.ndarray] = None

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """``(B, len(names))`` metric matrix in the requested column order."""
        return np.column_stack(
            [np.asarray(self.metrics[name], dtype=float) for name in names]
        )

    def to_records(self, names: Sequence[str]) -> List["SimulationRecord"]:
        """Per-row :class:`SimulationRecord` views (cached metric vectors)."""
        names = tuple(names)
        matrix = self.matrix(names)
        corners = self.job.row_corners
        mismatch = self.job.mismatch
        seconds = self.row_seconds
        return [
            SimulationRecord(
                metrics=dict(zip(names, row.tolist())),
                corner=corners[index],
                mismatch=None if mismatch is None else mismatch[index],
                vector=row,
                vector_names=names,
                seconds=(
                    None
                    if seconds is None or not np.isfinite(seconds[index])
                    else float(seconds[index])
                ),
            )
            for index, row in enumerate(matrix)
        ]


@dataclass(frozen=True)
class SimulationRecord:
    """One simulation outcome: the metrics for ``(x, corner, h)``.

    Records produced by a batched sweep carry a precomputed metric vector
    (one row of the batch matrix), so stacking many records back into a
    matrix needs no per-record dict traffic.
    """

    metrics: Dict[str, float]
    corner: PVTCorner
    mismatch: Optional[np.ndarray]
    vector: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    vector_names: Optional[Tuple[str, ...]] = field(
        default=None, repr=False, compare=False
    )
    #: Measured wall-clock seconds for this row, when the evaluation was
    #: timed (``None`` for cache hits and untimed paths).  Excluded from
    #: equality: two runs of the same row are the same result.
    seconds: Optional[float] = field(default=None, repr=False, compare=False)

    def metric_vector(self, names: Sequence[str]) -> np.ndarray:
        if self.vector is not None and tuple(names) == self.vector_names:
            # Copy so callers can mutate the result without corrupting the
            # record (scalar records always return a fresh array).
            return self.vector.copy()
        return np.array([self.metrics[name] for name in names])


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class SimulationBackend:
    """The engine boundary: evaluates a :class:`SimJob` on a circuit.

    Terminal backends (ones that actually simulate) are registered in
    :data:`BACKENDS` under a short name so worker processes can rebuild
    them; decorator backends (caching, sharding) wrap another backend and
    are composed by :class:`SimulationService`.
    """

    #: Registry name ("" for decorator backends that never cross a
    #: process boundary themselves).
    name: str = ""

    #: Whether every row is individually expensive (one external-engine
    #: run per row): any multi-row job fans out across the worker pool.
    row_parallel: bool = False

    #: Whether one ``evaluate`` call costs about the same at any row count
    #: (one vectorized pass).  Sharding such a job pays that cost once per
    #: shard plus a process round trip, so its jobs never shard unless the
    #: backend also declares ``row_parallel``.
    vectorized: bool = False

    @property
    def worker_reconstructible(self) -> bool:
        """Whether ``BACKENDS[self.name]()`` inside a worker process
        rebuilds an instance equivalent to this one.

        True by default (terminal backends pull configuration from the
        environment, per the backend contract).  Backends configured
        through *constructor arguments* the zero-argument rebuild cannot
        reproduce — e.g. an :class:`~repro.simulation.ngspice.NgspiceBackend`
        with an explicit executable — must return False so the sharded
        dispatcher keeps their jobs in-process instead of silently running
        shards on a differently-configured twin.
        """
        return True

    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        """Return ``{metric: (B,) array}`` for the job's batch."""
        raise NotImplementedError

    def run(self, circuit: AnalogCircuit, job: SimJob) -> SimResult:
        """Evaluate and wrap into a :class:`SimResult`."""
        return SimResult(
            job=job, metrics=self.evaluate(circuit, job), backend=self.name
        )


class BatchedMNABackend(SimulationBackend):
    """The production engine: one vectorized pass per job.

    Condition-axis jobs run through :meth:`AnalogCircuit.evaluate_batch`
    (corner axis carried by a :class:`CornerBatch` when the block has more
    than one corner); design-axis jobs run through
    :meth:`AnalogCircuit.evaluate_design_batch`.  Both hand the whole
    block to the circuit's closed-form ``_evaluate_physical_batch`` model
    in one call (no MNA solve, despite the name).  One pass costs nearly
    the same at 8 rows as at 1,024, so it is :attr:`vectorized`: its jobs
    never shard.
    """

    name = "batched"
    vectorized = True

    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        if job.axis == DESIGN_AXIS:
            return circuit.evaluate_design_batch(job.designs, job.corners[0])
        corner: Union[PVTCorner, CornerBatch]
        if len(job.corners) > 1:
            corner = CornerBatch.from_corners(job.corners)
        else:
            corner = job.corners[0]
        return circuit.evaluate_batch(job.designs[0], corner, job.mismatch)


class ReferenceScalarBackend(SimulationBackend):
    """The bit-exact scalar reference path, one row at a time.

    Calls :meth:`AnalogCircuit.evaluate` (a batch of one) per row — the
    debugging / cross-validation twin of :class:`BatchedMNABackend`, and
    an engine whose cost grows with rows, so its jobs shard at
    ``workers > 1``.
    """

    name = "scalar"

    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        if job.axis == DESIGN_AXIS:
            rows = [
                circuit.evaluate(design, job.corners[0])
                for design in job.designs
            ]
        else:
            design = job.designs[0]
            corners = job.row_corners
            rows = [
                circuit.evaluate(
                    design,
                    corners[index],
                    None if job.mismatch is None else job.mismatch[index],
                )
                for index in range(job.batch)
            ]
        return {
            name: np.array([row[name] for row in rows])
            for name in circuit.metric_names
        }


#: Terminal backends reconstructible by name inside worker processes.
BACKENDS: Dict[str, type] = {
    BatchedMNABackend.name: BatchedMNABackend,
    ReferenceScalarBackend.name: ReferenceScalarBackend,
}


# The ngspice adapter lives in its own module (subprocess plumbing the
# in-process backends never need) and registers itself into BACKENDS when
# repro/simulation/__init__.py imports it — which Python guarantees has
# happened before any repro.simulation.* submodule finishes importing, so
# resolve_backend("ngspice") works everywhere, including inside sharded
# worker processes.


def available_backends() -> List[str]:
    """Sorted registry names of every terminal backend."""
    return sorted(BACKENDS)


def resolve_backend(backend: Union[str, SimulationBackend]) -> SimulationBackend:
    """A backend instance from a registry name (or pass one through)."""
    if isinstance(backend, SimulationBackend):
        return backend
    try:
        return BACKENDS[backend]()
    except KeyError:
        raise KeyError(
            f"unknown simulation backend {backend!r}; "
            f"available: {sorted(BACKENDS)}"
        ) from None


# ----------------------------------------------------------------------
# Failure classification and retry policy
# ----------------------------------------------------------------------
class FailureKind(Enum):
    """Why one evaluation attempt produced no usable metrics.

    The retry policy keys on this classification, not on exception types:
    infrastructure failures (a dead worker, a hung engine, a flaky
    license) are transient and worth re-simulating; anything unclassified
    is :attr:`OTHER` — most likely a code bug — and is never retried by
    default, because re-running a deterministic bug burns budgeted
    wall-clock to reproduce the same crash.
    """

    #: A pool worker died (``BrokenProcessPool``): segfault, OOM-kill,
    #: chaos ``kill``.
    WORKER_DEATH = "worker_death"
    #: A deadline fired: futures timeout, subprocess timeout, watchdog.
    TIMEOUT = "timeout"
    #: The external engine failed (:class:`~repro.simulation.ngspice
    #: .NgspiceError`, including injected :class:`~repro.simulation.faults
    #: .ChaosFault`).
    ENGINE = "engine"
    #: No exception, but the metrics carry
    #: :data:`~repro.spice.deck.FAILURE_NAN` rows — the engine never
    #: produced those rows (graceful-degradation paths: non-strict
    #: ngspice, watchdog-degraded shards, chaos ``nan``).
    FAILURE_NAN = "failure_nan"
    #: Everything else; not retried by default.
    OTHER = "other"


def classify_failure(error: BaseException) -> FailureKind:
    """Map one raised exception onto a :class:`FailureKind`."""
    if isinstance(error, BrokenProcessPool):
        return FailureKind.WORKER_DEATH
    if isinstance(error, (FuturesTimeoutError, TimeoutError, TimeoutExpired)):
        return FailureKind.TIMEOUT
    try:  # lazy: ngspice.py imports this module
        from repro.simulation.ngspice import NgspiceError
    except ImportError:  # pragma: no cover - circular-import fallback
        NgspiceError = ()  # type: ignore[assignment]
    if isinstance(error, NgspiceError):
        return FailureKind.ENGINE
    return FailureKind.OTHER


#: Failure kinds retried by default: every *transient infrastructure*
#: class, never :attr:`FailureKind.OTHER`.
DEFAULT_RETRY_ON = frozenset(
    {
        FailureKind.WORKER_DEATH,
        FailureKind.TIMEOUT,
        FailureKind.ENGINE,
        FailureKind.FAILURE_NAN,
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """Budget-safe retry policy for one :class:`SimulationService`.

    ``max_attempts`` is the *total* evaluation attempts per job (1 = no
    retries).  Between attempts the service sleeps an exponential backoff
    with **deterministic seeded jitter**: attempt ``k`` (1-based) waits
    ``backoff · factor^(k-1) · (1 + jitter·u)`` where ``u ∈ [0, 1)`` is
    drawn from ``default_rng([seed, job_hash, k])`` — a pure function of
    the policy seed, the job's content hash and the attempt index, so a
    rerun of the same faulty schedule waits the same delays (no shared RNG
    stream is consumed; the experiment's seeded sampling streams are
    untouched by retries).

    Budget safety is the service's side of the contract: every failed
    attempt is refunded (charge + idempotency key) *before* the retry
    charges again, so a job that eventually succeeds is counted exactly
    once and a job that exhausts its attempts is counted zero times —
    bit-identical to the fault-free trajectory.

    The optional watchdog fields configure the per-shard deadline
    (:class:`~repro.simulation.sharding.ShardWatchdog`) the service arms
    on its sharded dispatcher: ``watchdog_seconds_per_row × rows``,
    floored at ``watchdog_floor``.  ``None`` leaves hung shards to the
    engine-level timeouts.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: frozenset = DEFAULT_RETRY_ON
    watchdog_seconds_per_row: Optional[float] = None
    watchdog_floor: float = 5.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff < 0 or self.jitter < 0:
            raise ValueError("backoff and jitter must be non-negative")
        normalized = frozenset(
            FailureKind(kind) if not isinstance(kind, FailureKind) else kind
            for kind in self.retry_on
        )
        object.__setattr__(self, "retry_on", normalized)

    # ------------------------------------------------------------------
    def should_retry(self, kind: FailureKind, attempt: int) -> bool:
        """Whether attempt ``attempt`` (1-based) failing as ``kind`` gets
        another try."""
        return attempt < self.max_attempts and kind in self.retry_on

    def delay(self, job_id: str, attempt: int) -> float:
        """The deterministic backoff before the attempt after ``attempt``."""
        if self.backoff <= 0:
            return 0.0
        base = self.backoff * self.backoff_factor ** max(attempt - 1, 0)
        if self.jitter <= 0:
            return base
        key = int(job_id[:16], 16) % (2**32) if job_id else 0
        u = np.random.default_rng([self.seed, key, attempt]).random()
        return base * (1.0 + self.jitter * u)

    def sleep(self, job_id: str, attempt: int) -> None:
        delay = self.delay(job_id, attempt)
        if delay > 0:
            time.sleep(delay)

    def watchdog(self) -> Optional[ShardWatchdog]:
        """The shard watchdog this policy configures (``None`` = off)."""
        if self.watchdog_seconds_per_row is None:
            return None
        return ShardWatchdog(
            seconds_per_row=float(self.watchdog_seconds_per_row),
            floor=float(self.watchdog_floor),
        )

    # ------------------------------------------------------------------
    # Config round trip (ExperimentConfig / CLI)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "jitter": self.jitter,
            "seed": self.seed,
            "retry_on": sorted(kind.value for kind in self.retry_on),
            "watchdog_seconds_per_row": self.watchdog_seconds_per_row,
            "watchdog_floor": self.watchdog_floor,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RetryPolicy":
        known = {
            "max_attempts",
            "backoff",
            "backoff_factor",
            "jitter",
            "seed",
            "retry_on",
            "watchdog_seconds_per_row",
            "watchdog_floor",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown RetryPolicy fields: {sorted(unknown)}")
        data = dict(payload)
        if "retry_on" in data:
            data["retry_on"] = frozenset(
                FailureKind(kind) for kind in data["retry_on"]
            )
        return cls(**data)  # type: ignore[arg-type]


def resolve_retry(
    retry: Union[None, RetryPolicy, Dict[str, object]]
) -> Optional[RetryPolicy]:
    """A :class:`RetryPolicy` from ``None`` / an instance / a dict."""
    if retry is None or isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy.from_dict(retry)


#: On-disk cache layout version: bumped whenever the spilled ``.npz``
#: payload changes shape, so stale stores from older builds are ignored
#: (treated as misses) instead of misread.  Version 2 spills with
#: ``np.savez_compressed`` (deflate — metric blocks of repeated spec
#: values compress well on fleet-shared stores); the *logical* payload is
#: unchanged, so version-1 uncompressed records remain loadable.
CACHE_FORMAT_VERSION = 2

#: Disk records stamped with any of these versions decode with the
#: current loader (``np.load`` is transparent to per-entry compression).
_COMPATIBLE_CACHE_VERSIONS = frozenset({1, 2})

#: Reserved key carrying the format stamp inside each spilled ``.npz``.
_CACHE_VERSION_KEY = "__cache_version__"


class CachingBackend(SimulationBackend):
    """Memoizes an inner backend's results by job content hash.

    A hit returns copies of the stored metric arrays and marks the result
    ``cached`` so :class:`SimulationService` can charge zero budget for it
    (the configurable paper-accounting default).  The in-memory cache is
    unbounded — jobs are a few kilobytes of metrics each — and can be
    dropped with :meth:`clear`.

    With ``spill_dir`` the cache is also **persistent across processes**:
    every stored block is written to ``spill_dir/<hash[:2]>/<hash>.npz``
    (atomic ``os.replace`` of a same-directory temp file, deflate-
    compressed, stamped with :data:`CACHE_FORMAT_VERSION`; uncompressed
    stores from older builds keep loading), and a memory miss falls back
    to the disk store before running the inner backend.  Disk loads apply exactly the
    same admission rule as stores: any block carrying a
    :data:`~repro.spice.deck.FAILURE_NAN`-tagged row — the signature of a
    run the engine never produced — is refused and re-simulated, so a stale
    or tampered spill can never resurrect an infrastructure failure.
    Repeated experiment sweeps (Table II/III regeneration) with the same
    ``cache_dir`` therefore replay entirely from disk: zero backend
    invocations, zero budget charged.
    """

    def __init__(
        self,
        inner: SimulationBackend,
        spill_dir: Optional[str] = None,
    ):
        self.inner = inner
        self._cache: Dict[str, Dict[str, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0
        #: Memory misses satisfied by the on-disk store (a subset of hits).
        self.disk_hits = 0
        self.spill_dir: Optional[str] = None
        if spill_dir is not None:
            self.spill_dir = os.path.abspath(os.fspath(spill_dir))
            os.makedirs(self.spill_dir, exist_ok=True)

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"cache({self.inner.name})"

    # ------------------------------------------------------------------
    # Disk spill
    # ------------------------------------------------------------------
    def _spill_path(self, job_id: str) -> str:
        assert self.spill_dir is not None
        return os.path.join(self.spill_dir, job_id[:2], f"{job_id}.npz")

    def _spill(self, job_id: str, metrics: Dict[str, np.ndarray]) -> None:
        """Atomically persist one admitted block to the on-disk store."""
        payload = {
            name: np.asarray(values, dtype=float)
            for name, values in metrics.items()
        }
        payload[_CACHE_VERSION_KEY] = np.array(CACHE_FORMAT_VERSION)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        atomic_write(self._spill_path(job_id), buffer.getvalue())

    def _load_spilled(self, job: SimJob) -> Optional[Dict[str, np.ndarray]]:
        """One block from the disk store, or ``None`` (miss / stale /
        corrupt / failure-tagged — all treated as plain misses)."""
        if self.spill_dir is None:
            return None
        try:
            with np.load(self._spill_path(job.job_id)) as data:
                if _CACHE_VERSION_KEY not in data.files:
                    return None
                version = int(data[_CACHE_VERSION_KEY][()])
                if version not in _COMPATIBLE_CACHE_VERSIONS:
                    return None
                metrics = {
                    name: np.array(data[name], dtype=float)
                    for name in data.files
                    if name != _CACHE_VERSION_KEY
                }
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return None
        if not metrics or failed_row_mask(metrics).any():
            return None
        return metrics

    # ------------------------------------------------------------------
    def lookup(self, job: SimJob) -> Optional[Dict[str, np.ndarray]]:
        """Copies of the stored metrics for ``job``, or ``None`` on a miss.

        Counts the hit/miss either way; the service probes the cache
        *before* charging the budget so the legacy charge-before-evaluate
        order (``max_simulations`` raises before any work happens) is
        preserved on misses.  A memory miss consults the on-disk store
        (when configured) and promotes a disk hit into memory.
        """
        stored = self._cache.get(job.job_id)
        if stored is None:
            stored = self._load_spilled(job)
            if stored is not None:
                self._cache[job.job_id] = {
                    name: values.copy() for name, values in stored.items()
                }
                self.disk_hits += 1
        if stored is None:
            self.misses += 1
            return None
        self.hits += 1
        return {name: values.copy() for name, values in stored.items()}

    def store(self, job: SimJob, metrics: Dict[str, np.ndarray]) -> None:
        # Caching a block with any FAILURE_NAN-tagged row would turn a
        # transient per-row flake (subprocess timeout, row omitted from the
        # measure log) into a permanent wrong answer for this job; rows
        # with reported-failed measures (plain NaN) are still results and
        # stay cacheable.  Reserved bookkeeping keys (per-row timing) are
        # never stored: a replayed hit costs nothing, so the original
        # run's wall clock would be a lie.
        if failed_row_mask(metrics).any():
            return
        metrics = strip_reserved_metrics(metrics)
        self._cache[job.job_id] = {
            name: values.copy() for name, values in metrics.items()
        }
        if self.spill_dir is not None:
            self._spill(job.job_id, metrics)

    def run(self, circuit: AnalogCircuit, job: SimJob) -> SimResult:
        metrics = self.lookup(job)
        if metrics is not None:
            return SimResult(
                job=job, metrics=metrics, cached=True, backend=self.name
            )
        result = self.inner.run(circuit, job)
        self.store(job, result.metrics)
        return SimResult(
            job=job, metrics=result.metrics, cached=False, backend=self.name
        )

    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        return self.run(circuit, job).metrics

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0


# ----------------------------------------------------------------------
# Disk spill store maintenance (the `repro cache` CLI)
# ----------------------------------------------------------------------
def _spill_store_files(cache_dir: str) -> List[Tuple[str, int, float]]:
    """``(path, bytes, mtime)`` for every record in a spill store."""
    records: List[Tuple[str, int, float]] = []
    root = os.path.abspath(os.fspath(cache_dir))
    if not os.path.isdir(root):
        return records
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if not filename.endswith(".npz"):
                continue
            path = os.path.join(dirpath, filename)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            records.append((path, stat.st_size, stat.st_mtime))
    return records


def _spill_payload_bytes(records: List[Tuple[str, int, float]]) -> int:
    """Uncompressed array bytes across the store (best effort).

    Every ``.npz`` is a zip archive, so the members' ``file_size`` is the
    logical payload the deflate layer compressed away.  Records that fail
    to open (corrupt, mid-write) contribute nothing — this is a reporting
    aid, not an admission check.
    """
    total = 0
    for path, _size, _mtime in records:
        try:
            with zipfile.ZipFile(path) as archive:
                total += sum(info.file_size for info in archive.infolist())
        except (OSError, zipfile.BadZipFile):
            continue
    return total


def spill_store_stats(cache_dir: str) -> Dict[str, object]:
    """Entry count, byte totals and age span of one disk spill store.

    Always succeeds: a missing or empty ``cache_dir`` yields a zeroed
    report with ``exists: false`` — a monitoring probe must be able to
    ask about a store that no run has created yet.  ``total_bytes`` is
    what the store occupies on disk (compressed since cache format v2);
    ``payload_bytes`` is the logical array data inside, so the ratio of
    the two is the achieved compression.
    """
    root = os.path.abspath(os.fspath(cache_dir))
    records = _spill_store_files(cache_dir)
    mtimes = [mtime for _path, _size, mtime in records]
    total_bytes = sum(size for _path, size, _mtime in records)
    payload_bytes = _spill_payload_bytes(records)
    return {
        "cache_dir": root,
        "exists": os.path.isdir(root),
        "entries": len(records),
        "total_bytes": total_bytes,
        "payload_bytes": payload_bytes,
        "compression_ratio": (
            round(payload_bytes / total_bytes, 4) if total_bytes else None
        ),
        "oldest_mtime": min(mtimes) if mtimes else None,
        "newest_mtime": max(mtimes) if mtimes else None,
    }


def _remove_spill_record(path: str) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False
    # Drop the two-character fan-out directory once it empties; purely
    # cosmetic, so every failure mode is ignored.
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass
    return True


def prune_spill_store(cache_dir: str, max_bytes: int) -> Dict[str, int]:
    """Evict least-recently-touched records until ≤ ``max_bytes`` remain.

    LRU by file mtime: disk *hits* do not refresh mtimes (records are
    promoted into memory and never rewritten), so this is closer to
    least-recently-*written* — good enough for the hygiene job of keeping
    a long-lived store bounded.  Returns removal/survival counts.
    """
    if max_bytes < 0:
        raise ValueError("max_bytes must be non-negative")
    records = sorted(
        _spill_store_files(cache_dir), key=lambda record: record[2]
    )
    total = sum(size for _path, size, _mtime in records)
    removed_files = 0
    removed_bytes = 0
    for path, size, _mtime in records:
        if total <= max_bytes:
            break
        if _remove_spill_record(path):
            removed_files += 1
            removed_bytes += size
            total -= size
    return {
        "removed_files": removed_files,
        "removed_bytes": removed_bytes,
        "remaining_files": len(records) - removed_files,
        "remaining_bytes": total,
    }


def clear_spill_store(cache_dir: str) -> int:
    """Delete every record in the store; returns how many were removed."""
    removed = 0
    for path, _size, _mtime in _spill_store_files(cache_dir):
        if _remove_spill_record(path):
            removed += 1
    return removed


class ShardedDispatcher(SimulationBackend):
    """Splits a job's batch axis across a persistent worker pool.

    Works uniformly for every axis — mismatch rows, corner rows and design
    rows alike — by slicing the :class:`SimJob` itself into shard jobs and
    evaluating each on a worker-side copy of the terminal backend.  Falls
    back to the in-process evaluation whenever sharding is not applicable
    (a :attr:`~SimulationBackend.vectorized` engine, small batch,
    unregistered circuit, non-reconstructible backend, closed pool);
    results are concatenated in row order and are bit-identical either way.

    The pool belongs to whoever builds the dispatcher — the
    :class:`SimulationService` or the job-mode
    :class:`~repro.simulation.server.SimulationServer`, each of which
    wraps only engines that :func:`~repro.simulation.sharding.can_shard`
    and shuts the pool down itself; the dispatcher never creates or
    closes one.
    :meth:`dispatch` is the non-blocking entry point: it returns a
    :class:`~repro.simulation.sharding.ShardHandle` with the shards already
    in flight, which is what :meth:`SimulationService.submit` pipelines on.
    Chunks are equal-size and submitted in row order
    (:func:`~repro.simulation.sharding.plan_chunk_bounds`): a plan depends
    only on the row count, the worker count and the engine's
    ``row_parallel`` flag.
    """

    def __init__(
        self,
        inner: SimulationBackend,
        pool: WorkerPool,
        watchdog: Optional[ShardWatchdog] = None,
    ):
        self.inner = inner
        self.pool = pool
        self.watchdog = watchdog

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"sharded({self.inner.name}, workers={self.pool.workers})"

    def dispatch(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Optional[ShardHandle]:
        """Submit the job's shards without blocking (``None`` = not
        shardable; the caller evaluates in-process instead)."""
        return dispatch_job_sharded(
            circuit, self.inner, job, self.pool, watchdog=self.watchdog
        )

    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        handle = self.dispatch(circuit, job)
        if handle is not None:
            return handle.result()
        return self.inner.evaluate(circuit, job)


# ----------------------------------------------------------------------
# Futures
# ----------------------------------------------------------------------
class SimFuture:
    """One in-flight :class:`SimJob`; budget accounting at resolution.

    Produced by :meth:`SimulationService.submit`.  The underlying work is
    either a pool-backed :class:`~repro.simulation.sharding.ShardHandle`
    (shards already evaluating in the background) or a lazy thunk (the
    in-process evaluation, deferred until resolution — so a cancelled or
    abandoned future costs nothing at all).

    :meth:`result` performs the *entire* service-side accounting exactly
    once — cache-hit charge, budget charge with the idempotency key,
    failure refund, cache store, through the same code as
    :meth:`SimulationService.run` — and memoizes the outcome, so repeated
    calls return the same :class:`SimResult` (or re-raise the same error)
    without double-charging.  Resolving futures in submission order
    therefore reproduces the synchronous schedule's budget trajectory
    bit-for-bit.  The future exposes no readiness poll: callers schedule
    by resolution order (:func:`iter_resolved`), never by asking whether
    work has finished.

    :meth:`cancel` abandons the future: queued pool shards are cancelled,
    running ones finish but their results are dropped, a lazy thunk is
    never invoked — and nothing is ever charged or cached.  This is the
    discard path for speculative double-buffered submission.

    Concurrency contract: the blocking resolve runs *outside* the lock
    (only the flag checks and the memoization hold it), so a concurrent
    :meth:`cancel` — a watchdog thread, an aborting ``iter_resolved``
    consumer — returns immediately instead of blocking behind the work
    it is trying to abandon.  The resolving thread observes the cancel
    at its accounting checkpoints (before the evaluation starts, and
    again before the outcome is committed) and aborts with a net-zero
    budget charge; once the commit checkpoint has passed, :meth:`cancel`
    refuses (returns ``False``) — the job's accounting is in flight and
    can no longer be un-issued.
    """

    def __init__(
        self,
        service: "SimulationService",
        job: SimJob,
        outcome: Callable[[], Dict[str, np.ndarray]],
        cached_metrics: Optional[Dict[str, np.ndarray]] = None,
        handle: Optional[ShardHandle] = None,
    ):
        self._service = service
        self.job = job
        self._outcome = outcome
        self._cached_metrics = cached_metrics
        self._handle = handle
        self._lock = threading.Lock()
        self._done_condition = threading.Condition(self._lock)
        self._resolved = False
        self._resolving = False
        self._committing = False
        self._cancelled = False
        self._result: Optional[SimResult] = None
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    @property
    def cached(self) -> bool:
        """Whether the job was satisfied by the cache at submission."""
        return self._cached_metrics is not None

    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> bool:
        """Abandon the future (no charge, no cache store, work dropped).

        Non-blocking even while another thread is resolving: the flag
        flips under the lock and the resolver aborts at its next
        checkpoint.  Returns ``False`` when the future was already
        resolved — or is past its commit checkpoint — because an
        accounted job cannot be un-issued.
        """
        with self._lock:
            if self._resolved or self._committing:
                return False
            if not self._cancelled:
                self._cancelled = True
                if self._handle is not None:
                    self._handle.cancel()
            return True

    def _guarded(
        self, attempt: Callable[[], Dict[str, np.ndarray]]
    ) -> Callable[[], Dict[str, np.ndarray]]:
        """Wrap one evaluation attempt with cancellation checkpoints.

        Checked before the (blocking) attempt starts and again before
        its outcome is handed back for accounting: a cancel landing in
        between raises ``CancelledError`` out of the attempt, which the
        accounting loop refunds like any other failed attempt (net-zero
        charge) and never retries.  Passing the second checkpoint flips
        :attr:`_committing`, after which :meth:`cancel` refuses.
        """

        def checkpointed() -> Dict[str, np.ndarray]:
            with self._lock:
                if self._cancelled:
                    raise CancelledError(
                        f"SimFuture for job {self.job.job_id[:12]} was "
                        f"cancelled before evaluation"
                    )
                self._committing = False
            metrics = attempt()
            with self._lock:
                if self._cancelled:
                    raise CancelledError(
                        f"SimFuture for job {self.job.job_id[:12]} was "
                        f"cancelled during evaluation; dropping its result"
                    )
                self._committing = True
            return metrics

        return checkpointed

    def result(self) -> SimResult:
        """Resolve the job: wait for the work and run the accounting.

        Single-shot and memoized: the first call charges (idempotently),
        refunds on failure and stores to the cache; every later call —
        from any thread — replays the same outcome with no further
        accounting.  Concurrent callers block on a condition until the
        resolving thread publishes the outcome; the lock is *not* held
        across the blocking resolve (see the class docstring).
        """
        with self._done_condition:
            while self._resolving:
                self._done_condition.wait()
            if self._resolved:
                if self._error is not None:
                    raise self._error
                return self._result
            if self._cancelled:
                raise CancelledError(
                    f"SimFuture for job {self.job.job_id[:12]} was cancelled"
                )
            self._resolving = True
            if self._cached_metrics is not None:
                # Cache-hit resolution is non-blocking bookkeeping; commit
                # it atomically with the cancel check above so a racing
                # cancel() can never return True for a charged hit.
                self._committing = True
        try:
            result = self._service._resolve(
                self.job, self._cached_metrics, self._outcome, self._guarded
            )
        except BaseException as error:
            with self._done_condition:
                self._error = error
                self._resolved = True
                self._resolving = False
                self._done_condition.notify_all()
            raise
        with self._done_condition:
            self._result = result
            self._resolved = True
            self._resolving = False
            self._done_condition.notify_all()
        return result


def iter_resolved(items: Sequence, submit: Callable, ahead: int = 1):
    """Pipelined submit-ahead/resolve-in-order over ``items``.

    The one shared implementation of the control loop's double-buffering
    invariant: ``submit(item)`` is called in item order with up to
    ``ahead`` speculative submissions in flight beyond the one being
    resolved, results are yielded as ``(item, result)`` strictly in item
    order (so resolution-time budget accounting replays the sequential
    trajectory), and closing the generator — a consumer aborting out of
    its loop, or an exception during resolution — cancels every future
    still pending, so speculative work is never charged.  ``submit`` may
    return ``None`` for an empty request; it is yielded through as
    ``None`` and never resolved or cancelled.  ``ahead=0`` submits and
    resolves one item at a time: the sequential schedule, which the
    default lookahead of 1 reproduces bit for bit.
    """
    pending: deque = deque()
    index = 0
    try:
        while pending or index < len(items):
            while index < len(items) and len(pending) <= ahead:
                pending.append((items[index], submit(items[index])))
                index += 1
            item, future = pending.popleft()
            yield item, (None if future is None else future.result())
    finally:
        # Cancel every still-pending future, each behind its own guard:
        # one cancel() raising (a torn-down pool, a buggy handle) must
        # not leave the futures behind it un-cancelled — leaked
        # speculative work would keep a pool busy with results nobody
        # will ever consume.
        while pending:
            _, future = pending.popleft()
            if future is None:
                continue
            try:
                future.cancel()
            except Exception as error:  # noqa: BLE001 - cleanup best-effort
                warnings.warn(
                    f"failed to cancel a pending SimFuture during "
                    f"iter_resolved cleanup ({error!r}); continuing with "
                    f"the remaining futures",
                    RuntimeWarning,
                    stacklevel=2,
                )


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class SimulationService:
    """Runs :class:`SimJob` requests against a backend chain with budgeting.

    The chain is composed outermost-first as ``cache → sharding →
    terminal backend``, so cache hits skip the pool entirely and cache
    misses still shard.  All budget accounting happens here:

    * a normal run charges ``job.cost`` simulations to ``job.phase``
      (exactly the paper's per-row counting);
    * a cache hit charges nothing unless ``charge_cache_hits=True``;
    * with ``idempotent_charges=True`` the charge is keyed by the job's
      content hash, so resubmitting the identical job (a retry) can never
      double-charge (:meth:`SimulationBudget.charge`).

    With ``workers > 1`` and a terminal backend that
    :func:`~repro.simulation.sharding.can_shard` (``scalar``,
    ``row_parallel`` engines, an env-configured ``remote`` client), the
    service owns a persistent
    :class:`~repro.simulation.sharding.WorkerPool`, constructed **eagerly
    and warm** (workers pre-import the backend modules, pre-build the
    registry circuit and pin their BLAS thread count) so the first sharded
    job pays no spin-up.  A :attr:`~SimulationBackend.vectorized` engine
    (``batched``, the default) gets no pool: its jobs evaluate in-process,
    as lazy futures, exactly as at ``workers=1``.  The pool — and with it
    every OS resource the service holds — is released by :meth:`close`;
    the service is a context manager, and leaked pools are swept at
    interpreter exit as a backstop.
    A ``cache_dir`` turns on caching with cross-process persistence
    (:class:`CachingBackend` ``spill_dir``).
    """

    def __init__(
        self,
        circuit: AnalogCircuit,
        budget: Optional[SimulationBudget] = None,
        backend: Union[str, SimulationBackend] = "batched",
        workers: int = 1,
        cache: bool = False,
        charge_cache_hits: bool = False,
        idempotent_charges: bool = False,
        cache_dir: Optional[str] = None,
        retry: Union[None, RetryPolicy, Dict[str, object]] = None,
    ):
        self._circuit = circuit
        self._budget = budget if budget is not None else SimulationBudget()
        self._workers = max(1, int(workers))
        self._terminal = resolve_backend(backend)
        self._retry = resolve_retry(retry)
        self._dispatch: SimulationBackend = self._terminal
        self._pool: Optional[WorkerPool] = None
        if self._workers > 1 and can_shard(self._terminal):
            self._pool = WorkerPool(
                self._workers,
                circuit_names=(circuit.name,),
                backend_names=(self._terminal.name,),
            )
            self._dispatch = ShardedDispatcher(
                self._terminal,
                self._pool,
                watchdog=(
                    self._retry.watchdog() if self._retry is not None else None
                ),
            )
        self._cache: Optional[CachingBackend] = (
            CachingBackend(self._dispatch, spill_dir=cache_dir)
            if cache or cache_dir is not None
            else None
        )
        self._charge_cache_hits = bool(charge_cache_hits)
        self._idempotent_charges = bool(idempotent_charges)
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def circuit(self) -> AnalogCircuit:
        return self._circuit

    @property
    def budget(self) -> SimulationBudget:
        return self._budget

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def backend(self) -> SimulationBackend:
        """The composed backend chain (cache → sharding → terminal).

        For introspection; backends never touch the budget, so evaluate
        jobs through :meth:`run`, not by calling the chain directly.
        """
        return self._cache if self._cache is not None else self._dispatch

    @property
    def backend_name(self) -> str:
        """The terminal engine's registry name."""
        return self._terminal.name

    @property
    def cache(self) -> Optional[CachingBackend]:
        """The cache decorator when enabled, else ``None``."""
        return self._cache

    @property
    def retry(self) -> Optional[RetryPolicy]:
        """The active retry policy (``None`` = fail fast, legacy mode)."""
        return self._retry

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The service-owned warm worker pool (``None`` for ``workers=1``
        or a terminal backend that cannot shard)."""
        return self._pool

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool (idempotent).

        A closed service keeps working — jobs simply evaluate in-process —
        so late stragglers (result building, report generation) never
        crash; but no new pool is ever spawned.  Benchmarks and tests
        should close services (or use them as context managers) so
        executors don't accumulate across worker-count changes; the
        interpreter-exit sweep in :mod:`repro.simulation.sharding` is only
        the backstop for leaked pools.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _charge(self, job: SimJob, count: int) -> Tuple[bool, Optional[str]]:
        # The idempotency key includes the phase (the content hash alone
        # would swallow a legitimate re-simulation of the same block in a
        # different phase), and zero charges never consume a key — only a
        # counted charge should block its retry.
        job_id = None
        if self._idempotent_charges and count > 0:
            job_id = f"{job.phase.value}:{job.job_id}"
        counted = self._budget.charge(job.phase, count, job_id=job_id)
        return counted, job_id

    @staticmethod
    def _time_stamped(
        job: SimJob, metrics: Dict[str, np.ndarray], started: float
    ) -> Dict[str, np.ndarray]:
        """Ensure a successful block carries per-row timing.

        Blocks assembled from pool shards already carry the workers'
        measured :data:`~repro.simulation.sharding.ROW_SECONDS_KEY`; an
        in-process evaluation is timed here instead — the whole
        evaluation's wall clock split uniformly over the rows.  It ends
        up in :attr:`SimResult.row_seconds`.
        """
        if ROW_SECONDS_KEY in metrics:
            return metrics
        rows = max(job.batch, 1)
        metrics = dict(metrics)
        metrics[ROW_SECONDS_KEY] = np.full(
            rows, (time.perf_counter() - started) / rows
        )
        return metrics

    def _evaluate_accounted(
        self,
        job: SimJob,
        first_attempt: Callable[[], Dict[str, np.ndarray]],
        guard: Optional[Callable[[Callable], Callable]] = None,
    ) -> Dict[str, np.ndarray]:
        """Charge → evaluate → refund-on-failure, under the retry policy.

        The one accounting loop shared by :meth:`run` and future
        resolution.  Each attempt charges the budget up front (so a
        ``max_simulations`` cap aborts before work is spent) and refunds —
        count *and* idempotency key — whenever the attempt produced no
        usable metrics: a raising backend, or a block carrying
        :data:`~repro.spice.deck.FAILURE_NAN` rows.  With no retry policy
        this is exactly the legacy behaviour (raise propagates, a *full*
        failure block is refunded-but-returned, a partial one stands);
        with a policy, classified-transient failures re-evaluate through a
        **fresh dispatch** (a re-shard on the — possibly healed — pool)
        after the policy's deterministic backoff, and because every failed
        attempt was refunded first, the eventual success charges exactly
        once: the budget trajectory is bit-identical to a fault-free run.

        ``guard`` (future resolution passes
        :meth:`SimFuture._guarded`) wraps every attempt — including
        retries — with cancellation checkpoints; a cancel raising out of
        an attempt refunds its charge like any failure, classifies as
        :attr:`FailureKind.OTHER` and therefore propagates un-retried.
        """
        policy = self._retry
        attempt = 1
        wrap = guard if guard is not None else (lambda fn: fn)
        evaluate = wrap(first_attempt)
        while True:
            counted, job_id = self._charge(job, job.cost)
            started = time.perf_counter()
            try:
                metrics = evaluate()
            except BaseException as error:
                if counted:
                    self._budget.refund(job.phase, job.cost, job_id=job_id)
                if policy is None or not policy.should_retry(
                    classify_failure(error), attempt
                ):
                    raise
            else:
                if not failed_row_mask(metrics).any():
                    return self._time_stamped(job, metrics, started)
                # The block carries rows the engine never produced.
                if policy is None or not policy.should_retry(
                    FailureKind.FAILURE_NAN, attempt
                ):
                    # Terminal: legacy accounting.  A *full* failure block
                    # is refunded (nothing was simulated) but still
                    # returned so graceful-degradation consumers see the
                    # NaN rows; a partial block stands as charged.
                    if counted and is_failure_block(metrics):
                        self._budget.refund(
                            job.phase, job.cost, job_id=job_id
                        )
                    return metrics
                # Retrying: the whole attempt is refunded (mirroring the
                # cache's refusal to admit any failed row) and the job
                # re-simulates from scratch.
                if counted:
                    self._budget.refund(job.phase, job.cost, job_id=job_id)
            policy.sleep(job.job_id, attempt)
            attempt += 1
            evaluate = wrap(
                lambda: self._dispatch.evaluate(self._circuit, job)
            )

    def _probe(self, job: SimJob) -> Optional[Dict[str, np.ndarray]]:
        """Reject a job for another circuit; the cached metrics on a hit.

        Probing happens before any charge, so a miss keeps the
        charge-before-evaluate order (a ``max_simulations`` cap aborts
        before work is spent)."""
        if job.circuit_name != self._circuit.name:
            raise ValueError(
                f"job targets circuit {job.circuit_name!r} but this service "
                f"simulates {self._circuit.name!r}"
            )
        return None if self._cache is None else self._cache.lookup(job)

    def _resolve(
        self,
        job: SimJob,
        cached_metrics: Optional[Dict[str, np.ndarray]],
        first_attempt: Callable[[], Dict[str, np.ndarray]],
        guard: Optional[Callable[[Callable], Callable]] = None,
    ) -> SimResult:
        """The accounting :meth:`run` and :meth:`SimFuture.result` share.

        A cache hit charges zero (or ``job.cost`` under
        ``charge_cache_hits``) with no idempotency key: each hit is a
        deliberate accounting event, and the key for the job's real run
        must stay intact.  A miss runs :meth:`_evaluate_accounted`, moves
        the per-row timing onto the result and stores the admitted
        metrics to the cache."""
        if cached_metrics is not None:
            self._budget.charge(
                job.phase, job.cost if self._charge_cache_hits else 0
            )
            return SimResult(
                job=job,
                metrics=cached_metrics,
                cached=True,
                backend=self._cache.name,
            )
        metrics = self._evaluate_accounted(job, first_attempt, guard)
        row_seconds = metrics.pop(ROW_SECONDS_KEY, None)
        if self._cache is not None:
            self._cache.store(job, metrics)
        return SimResult(
            job=job,
            metrics=metrics,
            cached=False,
            backend=self._dispatch.name,
            row_seconds=row_seconds,
        )

    def run(self, job: SimJob) -> SimResult:
        """Evaluate one job, charging the budget before any simulation runs
        (so a ``max_simulations`` cap aborts without spending work, exactly
        as the pre-service entry points did).  If the backend then *fails* —
        a worker raising mid-shard, an external simulator crashing in strict
        mode — the charge is refunded and the idempotency key released
        before the exception propagates: a job that produced no metrics is
        never counted, and its retry charges (once) like a first attempt.
        The same holds for *non-raising* failures: a backend degrading to
        the all-NaN failure signature (:func:`is_failure_block`, e.g. a
        non-strict ngspice timeout) is refunded too, mirroring the cache's
        refusal to store such blocks — strict and graceful failure modes
        account identically."""
        return self._resolve(
            job,
            self._probe(job),
            lambda: self._dispatch.evaluate(self._circuit, job),
        )

    # ------------------------------------------------------------------
    # Async path
    # ------------------------------------------------------------------
    def submit(
        self,
        job: SimJob,
        outcome: Optional[Callable[[], Dict[str, np.ndarray]]] = None,
    ) -> SimFuture:
        """Start one job and return a :class:`SimFuture` immediately.

        When the job shards across the service's warm pool, its shards are
        dispatched *now* and evaluate in the background; otherwise the
        in-process evaluation is deferred into the future (lazy thunk) and
        runs when — and only if — the future is resolved.  A cache hit is
        recognised at submission (no work is dispatched) but, like all
        accounting, charged at resolution.  ``outcome`` replaces the
        first attempt's evaluation on a cache miss (a shared block's row
        reader, see :meth:`chunk_submitter`); retries always re-dispatch
        the job itself.

        The accounting contract lives on :meth:`SimFuture.result`:
        resolving futures in submission order reproduces the synchronous
        :meth:`run` schedule's budget trajectory exactly, and a future
        cancelled before resolution charges nothing.  One deliberate
        divergence from :meth:`run`: pool shards are dispatched *before*
        the budget charge (that is the point of the async path), so an
        over-cap resolution aborts with work already spent — the
        accounting is still identical, only wasted wall-clock differs.
        """
        metrics = self._probe(job)
        if metrics is not None:
            return SimFuture(
                self, job, outcome=lambda: metrics, cached_metrics=metrics
            )
        if outcome is not None:
            return SimFuture(self, job, outcome=outcome)
        handle: Optional[ShardHandle] = None
        if isinstance(self._dispatch, ShardedDispatcher):
            handle = self._dispatch.dispatch(self._circuit, job)
        if handle is not None:
            return SimFuture(self, job, outcome=handle.result, handle=handle)
        return SimFuture(
            self,
            job,
            outcome=lambda: self._dispatch.evaluate(self._circuit, job),
        )

    def chunk_submitter(
        self, job: SimJob
    ) -> Callable[[Tuple[int, int]], SimFuture]:
        """A ``submit`` for row chunks of ``job``: ``(lo, hi)`` submits
        ``job.shard(lo, hi)`` through :meth:`submit`.

        Every chunk is its own job, charged, keyed, cached and cancelled
        exactly as if it had been built alone.  On a
        :attr:`~SimulationBackend.vectorized` engine that is not
        ``row_parallel`` the chunks' futures share one lazy evaluation of
        the whole job (:class:`_SharedBlock`); a chunk covering the whole
        job is submitted on its own.
        """
        terminal = self._terminal
        block = (
            _SharedBlock(self, job)
            if terminal.vectorized and not terminal.row_parallel
            else None
        )

        def submit(bounds: Tuple[int, int]) -> SimFuture:
            lo, hi = bounds
            chunk = job.shard(lo, hi)
            if block is None or hi - lo == job.batch:
                return self.submit(chunk)
            return self.submit(chunk, lambda: block.rows(chunk, lo, hi))

        return submit


class _SharedBlock:
    """One lazy evaluation of a whole job, read chunk by chunk.

    The first chunk attempt that needs it evaluates every row of the job
    in one dispatch call, timed like any in-process evaluation; each later
    chunk reads its rows of the metrics and of the per-row seconds.  A
    whole-job call that raises or returns any
    :data:`~repro.spice.deck.FAILURE_NAN` row drops the block, and every
    chunk, the triggering one included, then evaluates alone.  Charging,
    caching and cancelling stay on the chunk futures, so rows no resolved
    chunk reads are never charged or stored.
    """

    def __init__(self, service: SimulationService, job: SimJob):
        self._service = service
        self._job = job
        self._lock = threading.Lock()
        self._evaluated = False
        #: The whole job's metrics; ``None`` once the block is dropped.
        self._metrics: Optional[Dict[str, np.ndarray]] = None

    def _evaluate(self) -> Optional[Dict[str, np.ndarray]]:
        service = self._service
        started = time.perf_counter()
        try:
            metrics = service._dispatch.evaluate(service._circuit, self._job)
        except Exception:  # noqa: BLE001 - the chunk alone raises for real
            return None
        if failed_row_mask(metrics).any():
            return None
        return service._time_stamped(self._job, metrics, started)

    def rows(self, chunk: SimJob, lo: int, hi: int) -> Dict[str, np.ndarray]:
        """The metrics of ``chunk``, which covers rows ``[lo, hi)``."""
        with self._lock:
            if not self._evaluated:
                self._metrics = self._evaluate()
                self._evaluated = True
        service, metrics = self._service, self._metrics
        if metrics is None:
            return service._dispatch.evaluate(service._circuit, chunk)
        return {name: values[lo:hi].copy() for name, values in metrics.items()}
