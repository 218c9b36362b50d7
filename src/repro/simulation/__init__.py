"""Simulation service: evaluates designs under corners and mismatch.

The optimizer and the verification phase never call circuit models
directly; every simulation request is a :class:`SimJob` (design block ×
corner block × mismatch block + phase tag) evaluated by a
:class:`SimulationService` through a pluggable :class:`SimulationBackend`:

* :class:`BatchedBackend` — the vectorized production engine;
* :class:`ReferenceScalarBackend` — the bit-exact scalar reference path;
* :class:`NgspiceBackend` — the external-simulator adapter: compiles each
  job to an ngspice netlist deck and parses ``.measure`` results back into
  the metrics tensor (:mod:`repro.simulation.ngspice`);
* :class:`CachingBackend` — memoizes results by job content hash (a hit
  charges zero budget), optionally spilled to an on-disk store
  (``cache_dir``) that replays across processes;
* sharding — ``workers > 1`` splits any job's batch axis (mismatch,
  corner *and* design rows) across a persistent warm
  :class:`~repro.simulation.sharding.WorkerPool` owned by the service,
  with bit-identical results (:mod:`repro.simulation.sharding`); the
  ``vectorized`` ``batched`` engine stays in-process and gets no pool.  The
  scheduler is *work-stealing*: equal-size chunks, more than workers,
  pulled from the pool's shared queue in row order;
* :class:`FaultInjectingBackend` — the chaos harness: wraps any terminal
  backend with seeded, scriptable fault schedules (raise / hang /
  kill-own-worker / FAILURE_NAN) so the fault-tolerance paths are
  exercised deterministically (:mod:`repro.simulation.faults`);
* :class:`RemoteBackend` — ships jobs to ``repro serve`` worker daemons
  (:class:`SimulationServer`) over a length-prefixed checksummed frame
  protocol, with per-endpoint circuit breakers, retries with seeded
  backoff, server-side leases/result retention, and graceful degradation
  to a local backend when the fleet is down (:mod:`repro.simulation.remote`
  / :mod:`repro.simulation.server` / :mod:`repro.simulation.protocol`);
* the experiment front end — ``repro serve --mode experiment`` daemons
  (:class:`ExperimentFrontend`) own *whole sizing runs* instead of raw
  jobs: write-ahead journaled for crash-safe resume, admission-controlled
  per tenant (:class:`~repro.simulation.budget.TenantBudgetLedger`),
  load-shedding via BUSY frames when the run queue fills, and draining
  gracefully on SIGTERM (:mod:`repro.simulation.frontend`).

Both daemons are subclasses of one daemon core,
:class:`~repro.simulation.daemon.Daemon`, which owns the listener, the
per-connection frame loop, the counters, drain and signal handling; each
adds a frame-handler table (REQUEST, or SUBMIT/STATUS/CANCEL).  The
durable stores (spill cache, journal, checkpoints) all write through
:func:`~repro.simulation.atomic.atomic_write`.

Fault tolerance: a :class:`RetryPolicy` on the service re-simulates
classified-transient failures (worker death, timeouts, engine errors,
``FAILURE_NAN`` blocks) with budget-safe accounting — a job is charged
only when an attempt returns metrics, so the eventual success is counted
exactly once.  The pool self-heals after worker deaths (re-dispatching
only the lost shards) and arms per-shard watchdog deadlines via
:class:`~repro.simulation.sharding.ShardWatchdog`.

The service runs jobs synchronously (:meth:`SimulationService.run`) or
asynchronously (:meth:`SimulationService.submit` → :class:`SimFuture`),
with all budget accounting — the charge, the cache store — performed at
resolution time, by the same code for both.  So the control loop, which
runs on futures (the overlapped seed phase, and the double-buffered
verifier on engines that evaluate full-MC chunks one by one), accounts
bit-for-bit like the same loop run one job at a time.  On a vectorized
engine the verifier's :meth:`SimulationService.scan` evaluates a corner
once and accounts its chunks without a future each.  Services own their
pools: ``close()`` or the context-manager protocol releases them.

The service

* counts every SPICE-equivalent simulation (the paper's "# Simulation"
  column), split into optimization-phase and verification-phase counts,
  under one rule: a job counts once, when it produced metrics, so cache
  hits, failed attempts and retried shards never inflate the count, and
* models wall-clock cost so normalized-runtime comparisons can be made
  without a real HSPICE testbed.

:class:`CircuitSimulator` remains as a thin compatibility shim whose
entry points all compile to jobs: the blocking ``simulate*`` calls route
through :meth:`SimulationService.run`, their ``submit_*`` twins through
:meth:`SimulationService.submit`.
"""

from repro.simulation.budget import SimulationBudget, SimulationPhase
from repro.simulation.service import (
    BACKENDS,
    CACHE_FORMAT_VERSION,
    BatchedBackend,
    CachingBackend,
    FailureKind,
    ReferenceScalarBackend,
    RetryPolicy,
    ShardedDispatcher,
    SimFuture,
    SimJob,
    SimResult,
    SimulationBackend,
    SimulationRecord,
    SimulationService,
    available_backends,
    classify_failure,
    clear_spill_store,
    prune_spill_store,
    resolve_backend,
    spill_store_stats,
)
from repro.simulation.sharding import (
    ShardHandle,
    ShardWatchdog,
    WorkerPool,
    plan_chunk_bounds,
)
from repro.simulation.ngspice import (  # registers the "ngspice" backend
    NgspiceBackend,
    NgspiceError,
    NgspiceRunner,
)
from repro.simulation.faults import (  # registers the "chaos" backend
    ChaosFault,
    FaultInjectingBackend,
    FaultSchedule,
    NetworkFaultSchedule,
    install_chaos,
    install_network_chaos,
)
from repro.simulation.protocol import ProtocolError, RemoteError
from repro.simulation.remote import (  # registers the "remote" backend
    CircuitBreaker,
    RemoteBackend,
)
from repro.simulation.server import SimulationServer
from repro.simulation.simulator import CircuitSimulator

# The experiment front end (``repro serve --mode experiment``) sits above
# everything else in this package — imported last, and it only touches
# :mod:`repro.api` lazily, so no import cycle forms.
from repro.simulation.budget import TenantBudgetLedger
from repro.simulation.frontend import (
    ExperimentClient,
    ExperimentFrontend,
    ExperimentJournal,
    FrontendBusy,
    FrontendUnavailable,
    run_key,
)

__all__ = [
    "SimulationBudget",
    "SimulationPhase",
    "CircuitSimulator",
    "SimulationRecord",
    "SimJob",
    "SimResult",
    "SimFuture",
    "ShardHandle",
    "ShardWatchdog",
    "WorkerPool",
    "plan_chunk_bounds",
    "CACHE_FORMAT_VERSION",
    "SimulationBackend",
    "SimulationService",
    "BatchedBackend",
    "ReferenceScalarBackend",
    "NgspiceBackend",
    "NgspiceError",
    "NgspiceRunner",
    "ChaosFault",
    "FaultInjectingBackend",
    "FaultSchedule",
    "NetworkFaultSchedule",
    "install_chaos",
    "install_network_chaos",
    "ProtocolError",
    "RemoteError",
    "CircuitBreaker",
    "RemoteBackend",
    "SimulationServer",
    "CachingBackend",
    "ShardedDispatcher",
    "RetryPolicy",
    "FailureKind",
    "classify_failure",
    "spill_store_stats",
    "prune_spill_store",
    "clear_spill_store",
    "BACKENDS",
    "available_backends",
    "resolve_backend",
    "TenantBudgetLedger",
    "ExperimentClient",
    "ExperimentFrontend",
    "ExperimentJournal",
    "FrontendBusy",
    "FrontendUnavailable",
    "run_key",
]
