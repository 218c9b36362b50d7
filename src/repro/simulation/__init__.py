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
  / :mod:`repro.simulation.server` / :mod:`repro.simulation.protocol`).

The durable stores (spill cache, per-seed checkpoints) both write through
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
:meth:`SimulationService.submit`.  Each returns the job's metrics block
(``{metric: (B,) array}``, one block per corner for a corner sweep), and
:meth:`CircuitSimulator.metrics_matrix` turns a block into the
``(B, m)`` matrix the reward and the mu-sigma screen read.
"""

from repro._lazy import export_names, lazy_getattr

#: Every re-export, by the module that defines it.  Nothing here is
#: imported until first read: a run on the in-process ``batched`` engine
#: never loads the pool, the ngspice bridge, chaos, the wire protocol or
#: the daemon.  The ngspice, chaos and remote backends register in
#: :data:`BACKENDS` when their module loads, which
#: :func:`resolve_backend` does on first use of their name.
_EXPORTS = {
    "repro.simulation.budget": ("SimulationBudget", "SimulationPhase"),
    "repro.simulation.simulator": ("CircuitSimulator",),
    "repro.simulation.service": (
        "SimJob",
        "SimResult",
        "SimFuture",
        "CACHE_FORMAT_VERSION",
        "SimulationBackend",
        "SimulationService",
        "BatchedBackend",
        "ReferenceScalarBackend",
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
    ),
    "repro.simulation.sharding": (
        "ShardHandle",
        "ShardWatchdog",
        "WorkerPool",
        "plan_chunk_bounds",
    ),
    "repro.simulation.ngspice": ("NgspiceBackend", "NgspiceError", "NgspiceRunner"),
    "repro.simulation.faults": (
        "ChaosFault",
        "FaultInjectingBackend",
        "FaultSchedule",
        "NetworkFaultSchedule",
        "install_chaos",
        "install_network_chaos",
    ),
    "repro.simulation.protocol": ("ProtocolError", "RemoteError"),
    "repro.simulation.remote": ("CircuitBreaker", "RemoteBackend"),
    "repro.simulation.server": ("SimulationServer",),
}

__all__ = export_names(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
