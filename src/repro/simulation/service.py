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
* :class:`SimResult` — the response: the job's metrics block, one
  ``(B,)`` array per metric and nothing else.
* :class:`SimulationBackend` — the engine boundary.  Two terminal backends
  ship in this module: :class:`BatchedBackend` (the vectorized engine,
  one ``evaluate_batch`` pass per job) and :class:`ReferenceScalarBackend`
  (the bit-exact scalar path, one ``evaluate`` call per row).  Other
  engines (the ngspice adapter, the remote client) plug in here without
  touching the control loop.
* :class:`CachingBackend` — a decorator backend memoizing results by job
  hash; a hit costs zero budget.  With a
  ``spill_dir`` it also persists result blocks to an on-disk store keyed by
  the same hash, so repeated experiment sweeps replay across processes.
* :class:`ShardedDispatcher` — a decorator backend splitting any job's
  batch axis — mismatch rows, corner rows *and* design rows alike — across
  a persistent warm :class:`~repro.simulation.sharding.WorkerPool` it is
  handed (the service owns it), for engines that can shard (never
  ``batched``).  Pool workers time their rows, and the
  :class:`~repro.simulation.sharding.ShardHandle` that
  :meth:`ShardedDispatcher.dispatch` returns reports it; nothing times
  an in-process evaluation.
* :class:`SimulationService` — owns the circuit, the budget, the backend
  chain and the worker pool; ``service.run(job)`` evaluates one job
  synchronously, ``service.submit(job)`` is its futures-based twin, and
  ``service.scan(job, chunk, first_failure)`` resolves a job chunk by
  chunk up to its first failing row (see below).

Budget accounting happens at the service, not in the backends, under one
rule: a job counts once, when it produced metrics.  The service charges
``job.cost`` to ``job.phase`` after an attempt returns a block with at
least one row the engine produced; a cache hit, an attempt that raises,
is cancelled or is retried, and a full failure block are never charged
(see :meth:`SimulationService.run`).  So cache hits and retried shards
can never inflate the paper's "# Simulation" column.

Async execution path
--------------------
``service.submit(job)`` returns a :class:`SimFuture` immediately.  When the
job shards across the service's worker pool, its shards are dispatched
right away and evaluate in the background; otherwise the evaluation is
deferred into the future itself (lazy thunk) and runs when the caller
resolves it.  *All* budget accounting — the charge and the cache store —
happens at **resolution time** (:meth:`SimFuture.result`), in the
caller's thread, in resolution order:

* resolving futures in submission order reproduces the synchronous
  schedule's budget trajectory exactly;
* a future that is *cancelled* (or simply never resolved) charges nothing
  and stores nothing — which is what makes speculative double-buffered
  submission safe: work the sequential schedule would never have issued is
  never accounted, and with the lazy thunk it is never even evaluated.

The control loop runs this way, through :func:`iter_resolved` one
submission ahead: the optimizer seed phase overlaps its corner
mega-batches, and the verifier's full pass (one
:meth:`SimulationService.scan` per corner) double-buffers its chunks on
every engine but a ``vectorized`` one.  There is no blocking variant to
switch to: the sequential reference is the same loop at lookahead 0,
whose results, streams and budgets are bit-identical.  On the default
``batched`` engine every future is a lazy thunk, so both lookaheads
evaluate the same jobs in the same order; only a pool-backed engine
overlaps work.  On a ``vectorized`` engine that is not ``row_parallel``
(``batched``, ``chaos`` over it) a corner's full pass is one evaluation
of its whole ranked remainder, scored once, and its chunks are
accounting units only, charged, keyed and cached with no future each.

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
   Raising aborts the job, and an attempt that raises is never charged.
5. Declare the cost shape: ``vectorized = True`` when one call costs
   about the same at any row count (its jobs then never shard, and the
   verifier's full pass makes one call per corner over the whole ranked
   remainder, see :meth:`SimulationService.scan`), or ``row_parallel =
   True`` when every row is its own external run (any multi-row job fans
   out across the pool, and every full-pass chunk is evaluated alone).

A custom backend registers by assignment into :data:`BACKENDS`, as
above, before its name is used.  The built-ins outside this module
(``ngspice``, ``chaos``, ``remote``) register on first use instead: their
modules are listed in one table here, :func:`available_backends` names
them without importing anything, and :func:`resolve_backend` imports a
module the first time its name is resolved.  So a run on ``batched`` or
``scalar`` never loads the subprocess, socket or pool machinery.

Registered names are automatically selectable from
``ExperimentConfig(backend=...)`` and ``python -m repro --backend ...``,
and compose with :class:`CachingBackend` / :class:`ShardedDispatcher`
without further wiring.  See :mod:`repro.simulation.ngspice` for a complete
external-process example.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import math
import numbers
import os
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.simulation.budget import SimulationBudget, SimulationPhase
from repro.variation.corners import CornerBatch, PVTCorner

if TYPE_CHECKING:  # pragma: no cover - the pool loads on use
    from repro.simulation.sharding import ShardHandle, ShardWatchdog, WorkerPool


#: Batch axes a job can fan out over.
CONDITION_AXIS = "conditions"  # one design × B (corner, mismatch) rows
DESIGN_AXIS = "designs"  # M designs × one corner at nominal mismatch


#: A quiet NaN with a distinguished payload, marking a cell the engine
#: *never produced* (subprocess crash/timeout, cell absent from the log) as
#: opposed to a measure the engine reported as ``failed`` — which is a
#: genuine result whose value happens to be unknown (plain ``np.nan``).
#: Every consumer sees both as NaN; only the failure accounting
#: (:func:`failed_row_mask`) inspects the payload bits, which survive array
#: copies, concatenation and pickling across worker processes.
_FAILURE_NAN_BITS = np.uint64(0x7FF8_DEAD_BEEF_0000)
FAILURE_NAN = float(_FAILURE_NAN_BITS.view(np.float64))


def failure_nan_mask(values: np.ndarray) -> np.ndarray:
    """Elementwise mask of :data:`FAILURE_NAN` cells (bit-exact match)."""
    array = np.ascontiguousarray(values, dtype=np.float64)
    return array.view(np.uint64) == _FAILURE_NAN_BITS


def failed_row_mask(metrics: Dict[str, np.ndarray]) -> np.ndarray:
    """``(B,)`` mask of rows the engine never produced.

    Failure is marked explicitly by the backend with :data:`FAILURE_NAN` —
    a payload-tagged NaN written only for cells the engine never evaluated
    (subprocess crash/timeout, cell absent from the measure log).  A row is
    failed when *every* metric carries the tag.  Plain NaN — a measure the engine *reported* as
    failed, or an analytic backend's unconverged row — is a genuine result
    and is never mistaken for infrastructure failure, so legitimately
    all-NaN results stay charged and cacheable.

    A block whose every row failed is the signature of a whole-job
    infrastructure failure: the service never charges it, as it never
    charges an attempt that raises.  The cache is stricter: it refuses
    any block with a failed row, so a transient per-row flake is
    re-simulated rather than memoized forever."""
    blocks = [np.asarray(block) for block in metrics.values()]
    if not blocks:
        return np.zeros(0, dtype=bool)
    return np.logical_and.reduce([failure_nan_mask(block) for block in blocks])


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
    """The metrics block one :class:`SimJob` produced, and where it came
    from: ``metrics`` maps each metric name to a ``(B,)`` array whose rows
    follow the job's batch axis."""

    job: SimJob
    metrics: Dict[str, np.ndarray]
    cached: bool = False
    backend: str = ""


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


class BatchedBackend(SimulationBackend):
    """The production engine: one vectorized pass per job.

    Condition-axis jobs run through :meth:`AnalogCircuit.evaluate_batch`
    (corner axis carried by a :class:`CornerBatch` when the block has more
    than one corner); design-axis jobs run through
    :meth:`AnalogCircuit.evaluate_design_batch`.  Both hand the whole
    block to the circuit's closed-form ``_evaluate_physical_batch`` model
    in one call.  One pass costs nearly
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
    debugging / cross-validation twin of :class:`BatchedBackend`, and
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
    BatchedBackend.name: BatchedBackend,
    ReferenceScalarBackend.name: ReferenceScalarBackend,
}

#: The module of each built-in backend that lives outside this one.  Each
#: registers itself in :data:`BACKENDS` when it loads, and
#: :func:`resolve_backend` loads it on first use of its name, so a run
#: that never names one never imports it (nor ``subprocess`` or
#: ``socket``).
_BUILTIN_BACKEND_MODULES = {
    "ngspice": "repro.simulation.ngspice",
    "chaos": "repro.simulation.faults",
    "remote": "repro.simulation.remote",
}


def available_backends() -> List[str]:
    """Sorted registry names of every terminal backend, loaded or not."""
    return sorted(BACKENDS.keys() | _BUILTIN_BACKEND_MODULES.keys())


def resolve_backend(backend: Union[str, SimulationBackend]) -> SimulationBackend:
    """A backend instance from a registry name (or pass one through)."""
    if isinstance(backend, SimulationBackend):
        return backend
    if backend not in BACKENDS and backend in _BUILTIN_BACKEND_MODULES:
        importlib.import_module(_BUILTIN_BACKEND_MODULES[backend])
    backend_class = BACKENDS.get(backend)
    if backend_class is None:
        raise KeyError(
            f"unknown simulation backend {backend!r}; "
            f"available: {available_backends()}"
        )
    return backend_class()


def can_shard(backend: SimulationBackend) -> bool:
    """Whether any job on ``backend`` may shard, whatever its size.

    False for a :attr:`~SimulationBackend.vectorized` engine that does not
    also declare ``row_parallel``: one vectorized pass costs about the
    same at any row count, so shards only multiply it and add IPC.  Also
    False for backends a worker cannot rebuild by name.  A service spawns
    no pool for such a backend, and never imports the pool module.
    """
    return (
        (backend.row_parallel or not backend.vectorized)
        and backend.name in BACKENDS
        and backend.worker_reconstructible
    )


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
    #: :data:`FAILURE_NAN` rows — the engine never
    #: produced those rows (graceful-degradation paths: non-strict
    #: ngspice, watchdog-degraded shards, chaos ``nan``).
    FAILURE_NAN = "failure_nan"
    #: Everything else; not retried by default.
    OTHER = "other"


def classify_failure(error: BaseException) -> FailureKind:
    """Map one raised exception onto a :class:`FailureKind`."""
    # Imported here, where only a failed attempt arrives: a run that never
    # fails never loads the pool, subprocess or ngspice modules.
    from concurrent.futures import TimeoutError as FuturesTimeoutError
    from concurrent.futures.process import BrokenProcessPool
    from subprocess import TimeoutExpired

    from repro.simulation.ngspice import NgspiceError

    if isinstance(error, BrokenProcessPool):
        return FailureKind.WORKER_DEATH
    if isinstance(error, (FuturesTimeoutError, TimeoutError, TimeoutExpired)):
        return FailureKind.TIMEOUT
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

    Budget safety is the service's side of the contract: it charges a
    job only when an attempt returns metrics, never for an attempt it
    retries, so a job that eventually succeeds is counted exactly once
    and a job that exhausts its attempts is counted zero times —
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
        if (
            isinstance(self.max_attempts, bool)
            or not isinstance(self.max_attempts, numbers.Integral)
            or self.max_attempts < 1
        ):
            raise ValueError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        if self.backoff < 0 or self.jitter < 0:
            raise ValueError("backoff and jitter must be non-negative")
        # An infinite delay makes time.sleep raise on the first retry; a
        # NaN one is skipped, so backoff would be silently off.  A NaN
        # watchdog floor times every shard out at once.
        for name in ("backoff", "backoff_factor", "jitter", "watchdog_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.watchdog_floor < 0:
            raise ValueError(
                f"watchdog_floor must be >= 0, got {self.watchdog_floor}"
            )
        per_row = self.watchdog_seconds_per_row
        if per_row is not None and not (math.isfinite(per_row) and per_row > 0):
            raise ValueError(
                "watchdog_seconds_per_row must be None or finite and > 0, "
                f"got {per_row}"
            )
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
        from repro.simulation.sharding import ShardWatchdog

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
    ``cached``; :class:`SimulationService` charges no budget for it.  The
    in-memory cache is
    unbounded — jobs are a few kilobytes of metrics each — and can be
    dropped with :meth:`clear`.

    With ``spill_dir`` the cache is also **persistent across processes**:
    every stored block is written to ``spill_dir/<hash[:2]>/<hash>.npz``
    (atomic ``os.replace`` of a same-directory temp file, deflate-
    compressed, stamped with :data:`CACHE_FORMAT_VERSION`; uncompressed
    stores from older builds keep loading), and a memory miss falls back
    to the disk store before running the inner backend.  Disk loads apply exactly the
    same admission rule as stores: any block carrying a
    :data:`FAILURE_NAN`-tagged row — the signature of a
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
        from repro.simulation.atomic import atomic_write

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
        import zipfile

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

        Counts the hit/miss either way.  A memory miss consults the
        on-disk store (when configured) and promotes a disk hit into
        memory.
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
        # stay cacheable.
        if failed_row_mask(metrics).any():
            return
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
    import zipfile

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
    :class:`SimulationService` or the
    :class:`~repro.simulation.server.SimulationServer`, each of which
    wraps only engines that :func:`can_shard`
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
        from repro.simulation.sharding import dispatch_job_sharded

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
def _cancelled_error(message: str) -> Exception:
    """A ``concurrent.futures.CancelledError``, whose module (and with it
    ``logging``) loads only when a future is cancelled."""
    from concurrent.futures import CancelledError

    return CancelledError(message)


class SimFuture:
    """One in-flight :class:`SimJob`; budget accounting at resolution.

    Produced by :meth:`SimulationService.submit`.  The underlying work is
    either a pool-backed :class:`~repro.simulation.sharding.ShardHandle`
    (shards already evaluating in the background) or a lazy thunk (the
    in-process evaluation, deferred until resolution — so a cancelled or
    abandoned future costs nothing at all).

    :meth:`result` performs the *entire* service-side accounting exactly
    once — the budget charge and the cache store, through the same code
    as :meth:`SimulationService.run` — and memoizes the outcome, so repeated
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
    again before the outcome is committed) and aborts uncharged; once
    the commit checkpoint has passed, :meth:`cancel`
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
        accounting loop, like any raising attempt, never charges (nor
        retries).  Passing the second checkpoint flips
        :attr:`_committing`, after which :meth:`cancel` refuses.
        """

        def checkpointed() -> Dict[str, np.ndarray]:
            with self._lock:
                if self._cancelled:
                    raise _cancelled_error(
                        f"SimFuture for job {self.job.job_id[:12]} was "
                        f"cancelled before evaluation"
                    )
                self._committing = False
            metrics = attempt()
            with self._lock:
                if self._cancelled:
                    raise _cancelled_error(
                        f"SimFuture for job {self.job.job_id[:12]} was "
                        f"cancelled during evaluation; dropping its result"
                    )
                self._committing = True
            return metrics

        return checkpointed

    def result(self) -> SimResult:
        """Resolve the job: wait for the work and run the accounting.

        Single-shot and memoized: the first call charges (when the job
        produced metrics) and stores to the cache; every later call —
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
                raise _cancelled_error(
                    f"SimFuture for job {self.job.job_id[:12]} was cancelled"
                )
            self._resolving = True
            if self._cached_metrics is not None:
                # Cache-hit resolution is non-blocking bookkeeping; commit
                # it atomically with the cancel check above so a racing
                # cancel() can never return True for a hit that resolves.
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
    misses still shard.  All budget accounting happens here, in
    :meth:`_evaluate_accounted` and in :meth:`scan`'s one-call path: a
    job that produced metrics charges ``job.cost`` simulations to
    ``job.phase`` once (exactly the paper's per-row counting), and a
    cache hit charges nothing.

    With ``workers > 1`` and a terminal backend that
    :func:`can_shard` (``scalar``,
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
            from repro.simulation.sharding import WorkerPool

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
    def _evaluate_accounted(
        self,
        job: SimJob,
        first_attempt: Callable[[], Dict[str, np.ndarray]],
        guard: Optional[Callable[[Callable], Callable]] = None,
    ) -> Dict[str, np.ndarray]:
        """Evaluate under the retry policy; charge the job once it has metrics.

        The one accounting loop shared by :meth:`run` and future
        resolution, and the place a job is charged (:meth:`scan`'s
        one-call path charges its chunks alike): ``job.cost`` to
        ``job.phase``, after an attempt returns a block with at least one
        row the engine produced.  An attempt that raises or is retried is
        never charged, and neither is a block whose every row is
        :data:`FAILURE_NAN`.  With no retry policy a
        raise propagates and a block with failed rows is returned as it
        is (charged unless it is a full failure block), so
        graceful-degradation consumers see the NaN rows.  With a policy,
        classified-transient failures re-evaluate through a **fresh
        dispatch** (a re-shard on the — possibly healed — pool) after the
        policy's deterministic backoff, and only the attempt that
        succeeds charges: the budget trajectory is bit-identical to a
        fault-free run.

        ``guard`` (future resolution passes
        :meth:`SimFuture._guarded`) wraps every attempt — including
        retries — with cancellation checkpoints; a cancel raising out of
        an attempt is never charged, classifies as
        :attr:`FailureKind.OTHER` and therefore propagates un-retried.
        """
        policy = self._retry
        attempt = 1
        wrap = guard if guard is not None else (lambda fn: fn)
        evaluate = wrap(first_attempt)
        while True:
            try:
                metrics = evaluate()
            except BaseException as error:
                if policy is None or not policy.should_retry(
                    classify_failure(error), attempt
                ):
                    raise
            else:
                failed = failed_row_mask(metrics)
                if not failed.any():
                    self._budget.charge(job.phase, job.cost)
                    return metrics
                # The block carries rows the engine never produced.
                if policy is None or not policy.should_retry(
                    FailureKind.FAILURE_NAN, attempt
                ):
                    if not failed.all():
                        self._budget.charge(job.phase, job.cost)
                    return metrics
                # Retrying: the job re-simulates from scratch, mirroring
                # the cache's refusal to admit any failed row.
            policy.sleep(job.job_id, attempt)
            attempt += 1
            evaluate = wrap(
                lambda: self._dispatch.evaluate(self._circuit, job)
            )

    def _check_circuit(self, job: SimJob) -> None:
        """Reject a job for another circuit."""
        if job.circuit_name != self._circuit.name:
            raise ValueError(
                f"job targets circuit {job.circuit_name!r} but this service "
                f"simulates {self._circuit.name!r}"
            )

    def _probe(self, job: SimJob) -> Optional[Dict[str, np.ndarray]]:
        """Reject a job for another circuit; the cached metrics on a hit."""
        self._check_circuit(job)
        return None if self._cache is None else self._cache.lookup(job)

    def _resolve(
        self,
        job: SimJob,
        cached_metrics: Optional[Dict[str, np.ndarray]],
        first_attempt: Callable[[], Dict[str, np.ndarray]],
        guard: Optional[Callable[[Callable], Callable]] = None,
    ) -> SimResult:
        """The accounting :meth:`run` and :meth:`SimFuture.result` share.

        A cache hit charges nothing.  A miss runs
        :meth:`_evaluate_accounted` and stores the admitted metrics to the
        cache."""
        if cached_metrics is not None:
            return SimResult(
                job=job,
                metrics=cached_metrics,
                cached=True,
                backend=self._cache.name,
            )
        metrics = self._evaluate_accounted(job, first_attempt, guard)
        if self._cache is not None:
            self._cache.store(job, metrics)
        return SimResult(
            job=job, metrics=metrics, cached=False, backend=self._dispatch.name
        )

    def run(self, job: SimJob) -> SimResult:
        """Evaluate one job and charge it once, after it produced metrics.

        A job counts when an attempt returns a block with at least one
        row the engine produced.  If the backend *fails* — a worker
        raising mid-shard, an external simulator crashing in strict mode
        — the exception propagates uncharged, so a resubmission charges
        (once) like a first attempt.  The same holds for *non-raising*
        failures: a backend degrading to a block of nothing but
        :data:`FAILURE_NAN` rows (e.g. a non-strict
        ngspice timeout) is not charged either, mirroring the cache's refusal to store such
        blocks — strict and graceful failure modes account identically."""
        return self._resolve(
            job,
            self._probe(job),
            lambda: self._dispatch.evaluate(self._circuit, job),
        )

    # ------------------------------------------------------------------
    # Async path
    # ------------------------------------------------------------------
    def submit(self, job: SimJob) -> SimFuture:
        """Start one job and return a :class:`SimFuture` immediately.

        When the job shards across the service's warm pool, its shards are
        dispatched *now* and evaluate in the background; otherwise the
        in-process evaluation is deferred into the future (lazy thunk) and
        runs when — and only if — the future is resolved.  A cache hit is
        recognised at submission (no work is dispatched) but, like all
        accounting, charged at resolution.

        The accounting contract lives on :meth:`SimFuture.result`:
        resolving futures in submission order reproduces the synchronous
        :meth:`run` schedule's budget trajectory exactly, and a future
        cancelled before resolution charges nothing.
        """
        metrics = self._probe(job)
        if metrics is not None:
            return SimFuture(
                self, job, outcome=lambda: metrics, cached_metrics=metrics
            )
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

    # ------------------------------------------------------------------
    # Scan path
    # ------------------------------------------------------------------
    def scan(
        self,
        job: SimJob,
        chunk: int,
        first_failure: Callable[[Dict[str, np.ndarray]], Optional[int]],
    ) -> Tuple[Dict[str, np.ndarray], Optional[int]]:
        """Resolve ``job`` in ``chunk``-row pieces, in row order, through
        the piece that holds its first failing row.

        ``first_failure(metrics)`` returns the index of the first failing
        row of a metrics block, or ``None``.  Each piece ``[lo, hi)``
        through the failing one is accounted as the job
        ``job.shard(lo, hi)``: a miss charges ``hi - lo`` to ``job.phase``
        and is cached under its ``job_id``, a hit charges nothing.  No
        later piece is charged or stored.  Returns the accounted rows'
        metrics and the failing row's index in ``job`` (``None`` if none).

        On a :attr:`~SimulationBackend.vectorized` engine that is not
        ``row_parallel``, pieces are accounting units only: leading cache
        hits are scored from the cache, then one evaluation of every row
        from the first miss on is scored once.  With one piece left, that
        piece is evaluated as itself; a wide call that raises or returns a
        :data:`FAILURE_NAN` row is dropped.  Every other
        engine, and the pieces a dropped call leaves, resolve piece by
        piece as futures through :func:`iter_resolved`, one ahead.
        """
        self._check_circuit(job)
        chunk = max(1, int(chunk))
        bounds = [
            (lo, min(lo + chunk, job.batch)) for lo in range(0, job.batch, chunk)
        ]
        blocks: List[Dict[str, np.ndarray]] = []
        first = 0
        terminal = self._terminal
        if terminal.vectorized and not terminal.row_parallel:
            if self._cache is not None:
                # Leading hits are scored before anything is evaluated,
                # so a replay whose needed pieces all hit makes no call.
                while first < len(bounds):
                    lo, hi = bounds[first]
                    metrics = self._cache.lookup(job.shard(lo, hi))
                    if metrics is None:
                        break
                    blocks.append(metrics)
                    first += 1
                    failed = first_failure(metrics)
                    if failed is not None:
                        return _joined(blocks), lo + failed
            if len(bounds) - first > 1:
                scanned = self._scan_wide(
                    job, bounds[first][0], chunk, first_failure
                )
                if scanned is not None:
                    blocks.append(scanned[0])
                    return _joined(blocks), scanned[1]
        for (lo, _hi), result in iter_resolved(
            bounds[first:], lambda piece: self.submit(job.shard(*piece))
        ):
            blocks.append(result.metrics)
            failed = first_failure(result.metrics)
            if failed is not None:
                return _joined(blocks), lo + failed
        return _joined(blocks), None

    def _scan_wide(
        self,
        job: SimJob,
        start: int,
        chunk: int,
        first_failure: Callable[[Dict[str, np.ndarray]], Optional[int]],
    ) -> Optional[Tuple[Dict[str, np.ndarray], Optional[int]]]:
        """:meth:`scan`'s one call over the rows of ``job`` from ``start``
        (a piece that missed the cache) on, and the accounting of its
        chunk-rounded prefix; ``None`` when the call raises or returns a
        FAILURE_NAN row."""
        rest = job if start == 0 else job.shard(start, job.batch)
        try:
            metrics = self._dispatch.evaluate(self._circuit, rest)
        except Exception:  # noqa: BLE001 - the pieces alone raise for real
            return None
        if failed_row_mask(metrics).any():
            return None
        failed = first_failure(metrics)
        if failed is not None:
            failed += start
        stop = job.batch if failed is None else failed + 1
        end = min(-(-stop // chunk) * chunk, job.batch)  # rounded up to a chunk
        if self._cache is None:
            self._budget.charge(job.phase, end - start)
        else:
            for lo in range(start, end, chunk):
                hi = min(lo + chunk, end)
                piece = job.shard(lo, hi)
                if lo > start and self._cache.lookup(piece) is not None:
                    continue  # a hit is charged nothing
                self._budget.charge(job.phase, hi - lo)
                self._cache.store(
                    piece,
                    {
                        name: values[lo - start : hi - start]
                        for name, values in metrics.items()
                    },
                )
        accounted = {
            name: values[: end - start] for name, values in metrics.items()
        }
        return accounted, failed


def _joined(blocks: List[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    """Row-wise concatenation of consecutive metrics blocks."""
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return {}
    return {
        name: np.concatenate([block[name] for block in blocks])
        for name in blocks[0]
    }
