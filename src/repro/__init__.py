"""GLOVA reproduction: variation-aware analog circuit sizing with risk-sensitive RL.

This package reproduces the system described in

    "GLOVA: Global and Local Variation-Aware Analog Circuit Design with
     Risk-Sensitive Reinforcement Learning" (DAC 2025, arXiv:2505.11208)

The public API is re-exported here so downstream users can write::

    from repro import ExperimentConfig, run_sizing

    report = run_sizing(ExperimentConfig(circuit="sal", method="C-MCL"))
    print(report.summary())

or drive the framework objects directly::

    from repro import GlovaOptimizer, GlovaConfig, VerificationMethod
    from repro.circuits import StrongArmLatch

    circuit = StrongArmLatch()
    config = GlovaConfig(verification=VerificationMethod.CORNER_LOCAL_MC)
    result = GlovaOptimizer(circuit, config).run()

The same facade is scriptable from the shell: ``python -m repro --circuit
sal --method C-MCL`` (installed as the ``repro`` console script).

Subpackages
-----------
``repro.variation``
    PVT corner enumeration and the hierarchical global/local mismatch model.
``repro.spice``
    The MOSFET device model the testbenches build on, the netlist model,
    the ngspice deck compiler, rawfile I/O and netlist trimming.
``repro.circuits``
    The three paper testcases (StrongARM latch, floating inverter amplifier,
    OCSA + subhole DRAM core) as behavioural performance models.
``repro.simulation``
    The simulation service that evaluates designs under corners and mismatch
    while tracking simulation budgets.
``repro.core``
    The GLOVA contribution: risk-sensitive RL agent, ensemble critic, TuRBO
    seeding, mu-sigma evaluation, simulation reordering and the optimizer.
``repro.baselines``
    PVTSizing- and RobustAnalog-style baselines used in Table II.
``repro.analysis``
    Result aggregation and table formatting for the paper's evaluation.
``repro.api``
    The top-level experiment facade (declarative configs, serializable
    reports, the ``python -m repro`` CLI).

Architecture
------------
Every consumer reaches the simulator through **one request/response
service** (:mod:`repro.simulation.service`)::

    optimizer / verifier / baselines / examples / CLI
                        |
                 CircuitSimulator           (compat shim: 5 entry points
                        |                    compile to SimJob, each with a
                        |                    submit_* futures twin)
        SimulationService.run(job)          (blocking)
        SimulationService.submit(job)       -> SimFuture: work dispatched
                        |                      now, ALL budget accounting
                        |                      (one charge per job that
                        |                      produced metrics, cache
                        |                      store) at future
                        |                      *resolution*;
                        |                      cancel() = never charged
         CachingBackend (optional, job-hash memoization, hit = 0 budget;
                        |   cache_dir spills blocks to a version-stamped
                        |   on-disk store — reruns replay cross-process
                        |   with zero backend calls and zero budget)
                        |
         ShardedDispatcher (optional, workers > 1 and an engine that
                        |   can shard — never the vectorized batched
                        |   one: splits ANY job axis —
                        |   mismatch rows, corner rows, design rows —
                        |   across the service's persistent warm
                        |   WorkerPool: spawned eagerly at service
                        |   creation, workers pre-import backends,
                        |   pre-build the registry circuit and pin BLAS
                        |   threads; service.close() releases it)
                        |
         BatchedBackend | ReferenceScalarBackend | NgspiceBackend
                           (row_parallel engines fan per-row decks out
                            across the pool, one row per worker)

The control loop runs on ``submit``, through ``iter_resolved``: the
optimizer seed phase overlaps its per-seed corner mega-batches, and on
engines that evaluate full-MC chunks one by one the verifier
**double-buffers** its h-SCORE-ordered chunks (chunk *k+1* in flight
while chunk *k* is scanned).  No option selects a blocking schedule; the
tested sequential reference is the same loop at lookahead 0, with
metrics, seeded streams and budget accounting bit-identical.  The
verifier's full pass is one ``SimulationService.scan`` call per corner:
on a vectorized engine (``batched``) that is one evaluation of the
corner's whole ranked remainder, scored once, and its chunks are
accounting units only, each keeping its own job id, charge and cache
entry.

A :class:`~repro.simulation.service.SimJob` is a frozen value object —
design block × corner block × mismatch block + phase tag — with a
deterministic content hash used as the cache key.
Backends implement ``evaluate(circuit, job) -> {metric: (B,) array}`` and
are registered by name (``repro.simulation.BACKENDS``), so worker
processes can rebuild them and configs can select them declaratively.

Migration table (legacy entry point → job compilation):

=============================================  =================================
``CircuitSimulator.simulate(x, t, h)``         ``SimJob.conditions(name, x, (t,), h[None])``
``simulate_mismatch_set(x, t, H)``             ``SimJob.conditions(name, x, (t,), H.samples)``
``simulate_corners(x, T, h)``                  ``SimJob.conditions(name, x, T, tile(h))``
``simulate_corner_sweep(x, T, [H_i])``         ``SimJob.conditions(name, x, repeat(T), vstack(H_i))``
``simulate_designs(X, t)``                     ``SimJob.design_batch(name, X, t)``
=============================================  =================================

Circuits are looked up by name or alias through
:mod:`repro.circuits.registry` (``@register_circuit``).

**One metric code path for every waveform.**  Waveform post-processing
lives in a single dependency-free library,
:mod:`repro.analysis.waveform`: crossing/delay, slew, overshoot,
settling and average extractors over raw ``(time, trace)`` arrays.  The
external ngspice backend's waveform mode
(``NgspiceBackend(measurement="waveform")``) applies them to traces
parsed from the engine's binary rawfile (:mod:`repro.spice.rawfile`),
guided by the per-circuit :class:`~repro.analysis.waveform.WaveformSpec`
declarations.  Each recipe is exactly invertible, so the hermetic fake
engine's rawfiles carry the analytic engine's metrics bit for bit.
Waveform decks probe only what the specs name, which lets
:mod:`repro.spice.trim` cut the netlist to the probed cone of influence
before the engine ever sees it.

Performance
-----------
The Monte-Carlo/corner hot path is **batched end to end**.  The three
paper testcases are closed-form behavioural models built on the
ufunc-style device model
(:meth:`repro.spice.MosfetModel.batch_operating_point`):
``AnalogCircuit.evaluate_batch`` evaluates a whole N'-sample mismatch set
or 30-corner sweep in one vectorized pass, and ``CircuitSimulator`` routes
every batch through it (budget accounting still charges B simulations).
The package solves no MNA system: a netlist reaches an engine only as
an ngspice deck.

Choosing scalar vs batched: the scalar ``evaluate`` remains the reference
path for one-off conditions and debugging — it produces identical numbers,
since scalar evaluation routes through the batch-of-one code.  Use the
batched entry points whenever more than one mismatch sample or corner is
evaluated for the same design; at the paper's N' = 16 this is a ~15x
wall-clock win (see ``benchmarks/results/BENCH_batched_engine.json``).

The **control loop is batched too**:

* *Chunked verification* — pass 2 of Algorithm 2 scans each corner's
  h-SCORE-ordered conditions for the first infeasible reward and charges
  them in chunks (``OperationalConfig.verification_chunk``, default 8):
  same pass/fail outcome, failed corner and failure stage as the
  sequential schedule, with the budget charging the simulated prefix
  rounded up to the chunk (at most ``chunk - 1`` over-simulations past
  the first failure).  On the vectorized ``batched`` engine a corner is
  one evaluation, scored once, and chunks are accounting units only;
  rows past an abort are evaluated but never charged or cached.
* *Seed-phase mega-batch* — the optimizer's corners × N' seed sweep is one
  ``CircuitSimulator.submit_corner_sweep`` job per seed design.
* *Design-axis batching* — TuRBO proposal batches and population baselines
  evaluate through ``AnalogCircuit.evaluate_design_batch`` /
  ``CircuitSimulator.simulate_designs`` (one vectorized pass over many
  designs), visiting exactly the designs the scalar schedule would.
* *Multiprocessing sharding* — ``workers > 1`` splits
  the jobs of every engine but a vectorized one (``scalar``, ``ngspice``,
  an env-configured ``remote`` client) across the service's persistent
  warm worker pool with bit-identical results
  (:mod:`repro.simulation.sharding`).  The
  vectorized ``batched`` engine evaluates in-process at any worker count:
  a shard would cost nearly a whole pass plus a process round trip.
* *Async pipelining* — ``SimulationService.submit`` returns futures with
  resolution-time accounting; the verifier double-buffers its full-MC
  chunks, the seed phase overlaps its mega-batches, per-row external
  simulator decks fan out across the pool, and the job-hash cache spills
  to disk for cross-process replay (``cache_dir``).

End-to-end this makes a verification-heavy seed → optimize → verify pass
~5x faster (``benchmarks/results/BENCH_loop_batching.json``), with the async
pipelined service adding a further ~1.5x at ``workers=4`` on
simulation-bound workloads plus ~2.7x faster first-job latency from warm
pools (``benchmarks/results/BENCH_async_service.json``).
"""

from repro.version import __version__
from repro.core.config import GlovaConfig, VerificationMethod, OperationalConfig
from repro.core.optimizer import GlovaOptimizer
from repro.core.result import OptimizationResult
from repro.core.spec import DesignSpec, Constraint

#: Facade names resolved lazily so ``import repro`` stays light and the
#: baselines/analysis stack only loads when the facade is actually used.
_API_EXPORTS = (
    "ExperimentConfig",
    "ExperimentReport",
    "RunReport",
    "run_sizing",
    "run_baseline",
    "run_experiment",
    "run_comparison",
)

__all__ = [
    "__version__",
    "GlovaConfig",
    "VerificationMethod",
    "OperationalConfig",
    "GlovaOptimizer",
    "OptimizationResult",
    "DesignSpec",
    "Constraint",
    *_API_EXPORTS,
]


def __getattr__(name):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
