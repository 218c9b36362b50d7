"""Top-level experiment facade: declarative configs in, reports out.

Everything the examples, the CLI (``python -m repro``) and downstream
scripts need lives behind three calls::

    from repro.api import ExperimentConfig, run_sizing

    config = ExperimentConfig(circuit="sal", method="C-MCL", seeds=(0,))
    report = run_sizing(config)
    print(report.summary())

* :class:`ExperimentConfig` is a plain declarative object — circuit,
  verification method, algorithm, budgets, backend, workers, seeds — with
  a lossless dict/JSON round trip, so experiment definitions can live in
  version-controlled JSON files and travel to remote workers.
* :func:`run_sizing` runs the GLOVA framework; :func:`run_baseline` runs
  one of the Table-II baselines; :func:`run_experiment` dispatches on
  ``config.algorithm``; :func:`run_comparison` produces the normalized
  Table-II style method summaries.
* :class:`ExperimentReport` aggregates the per-seed outcomes into a fully
  JSON-serializable record (designs and metrics as plain lists/dicts).

The facade builds on the service-oriented simulation stack
(:mod:`repro.simulation.service`): ``backend``, ``workers`` and
``cache_simulations`` plumb straight through to the
:class:`~repro.simulation.service.SimulationService` every optimizer uses.
Any registered terminal backend is selectable by name — including the
external-simulator adapter, ``ExperimentConfig(backend="ngspice")``, which
runs every job through an ngspice binary (``$REPRO_NGSPICE`` or ``ngspice``
on PATH) with zero control-loop changes.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import (
    MethodSummary,
    aggregate_results,
    normalize_runtimes,
)
from repro.baselines import (
    PVTSizingOptimizer,
    RandomSearchOptimizer,
    RobustAnalogOptimizer,
)
from repro.circuits.registry import (
    available_circuits,
    get_circuit,
    registered_class,
)
from repro.core.config import GlovaConfig, VerificationMethod
from repro.core.optimizer import GlovaOptimizer
from repro.core.result import OptimizationResult
from repro.simulation.service import (
    RetryPolicy,
    available_backends,
    resolve_retry,
)

#: Verification scenario labels accepted by :attr:`ExperimentConfig.method`
#: — derived from the enum so new scenarios are available automatically.
METHODS: Dict[str, VerificationMethod] = {
    method.value: method for method in VerificationMethod
}

#: Sizing algorithms accepted by :attr:`ExperimentConfig.algorithm`.
ALGORITHMS: Dict[str, type] = {
    "glova": GlovaOptimizer,
    "pvtsizing": PVTSizingOptimizer,
    "robustanalog": RobustAnalogOptimizer,
    "random_search": RandomSearchOptimizer,
}

#: Algorithms usable through :func:`run_baseline`.
BASELINE_ALGORITHMS = tuple(name for name in ALGORITHMS if name != "glova")


@dataclass(frozen=True)
class ExperimentConfig:
    """One declarative experiment: what to size, how, and at what scale.

    All fields are JSON-scalar (or tuples/dicts thereof), so
    ``ExperimentConfig.from_dict(config.to_dict()) == config`` holds
    exactly — the round trip is tested.
    """

    circuit: str = "sal"
    method: str = "C"
    algorithm: str = "glova"
    seeds: Tuple[int, ...] = (0,)
    max_iterations: int = 60
    initial_samples: int = 40
    optimization_samples: int = 3
    verification_samples: Optional[int] = None
    backend: str = "batched"
    #: ``repro serve`` daemons for ``backend="remote"``: a tuple of
    #: ``"host:port"`` strings (a comma-separated string is accepted and
    #: normalized).  Published to ``REPRO_REMOTE_ENDPOINTS`` for the
    #: seed's run; without them that variable must already name the
    #: fleet, or the config is refused.  Deliberately **excluded from the
    #: checkpoint fingerprint**: where jobs execute never changes what
    #: they compute (the fabric is bit-identical to local evaluation), so
    #: pointing a resumed sweep at different workers must not invalidate
    #: snapshots.
    endpoints: Optional[Tuple[str, ...]] = None
    workers: int = 1
    cache_simulations: bool = False
    #: Cross-process simulation cache directory (implies
    #: ``cache_simulations``): results spill to a job-hash-keyed on-disk
    #: store and a repeated run replays from it — zero backend
    #: invocations, zero budget charged.
    cache_dir: Optional[str] = None
    verification_chunk: int = 8
    paper_scale: bool = False
    #: Fault-tolerance retry policy for the simulation service, stored in
    #: its JSON dict form (:meth:`RetryPolicy.to_dict`) so the config
    #: round trip stays lossless; a :class:`RetryPolicy` instance passed
    #: here is converted.  ``None`` = fail fast (legacy behaviour).
    retry: Optional[Dict[str, Any]] = field(default=None, hash=False)
    #: Directory for per-seed progress checkpoints.  When set,
    #: :func:`run_experiment` snapshots each completed seed (report +
    #: budget counts) under a config fingerprint, and an interrupted sweep
    #: resumes by replaying completed seeds from disk — zero
    #: re-simulation.  The seed boundary is the RNG-safe resume point:
    #: every seed owns its own seeded streams, so skipping a completed
    #: seed perturbs no other seed's randomness.
    checkpoint_dir: Optional[str] = None
    #: Extra :class:`GlovaConfig` field overrides (ablation switches etc.).
    #: Excluded from the generated ``__hash__`` (dicts are unhashable) so
    #: frozen configs remain usable as dict keys.
    overrides: Dict[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        # A string would be iterated digit by digit, and int() would
        # truncate a float or turn a bool into seed 0 or 1.
        if isinstance(self.seeds, str):
            raise ValueError(f"seeds must be a list of integers, got {self.seeds!r}")
        seeds = tuple(self.seeds)
        not_integers = [
            seed
            for seed in seeds
            if isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
        ]
        if not_integers:
            raise ValueError(f"seeds must be integers, got {not_integers}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        object.__setattr__(self, "overrides", dict(self.overrides))
        if self.endpoints is not None:
            spec = self.endpoints
            parts = (
                spec.split(",") if isinstance(spec, str) else list(spec)
            )
            normalized = tuple(
                str(part).strip() for part in parts if str(part).strip()
            )
            # Validate the host:port shape now — a malformed endpoint
            # must fail at config time, not mid-run.
            from repro.simulation.remote import parse_endpoints

            parse_endpoints(normalized)
            object.__setattr__(
                self, "endpoints", normalized if normalized else None
            )
        if self.retry is not None:
            # Normalize to the dict form (lossless JSON round trip) and
            # fail fast on malformed policies.
            policy = (
                self.retry
                if isinstance(self.retry, RetryPolicy)
                else resolve_retry(dict(self.retry))
            )
            object.__setattr__(self, "retry", policy.to_dict())
        if not self.seeds:
            raise ValueError("an experiment needs at least one seed")
        # glova_config validates only the first seed; a later negative one
        # would otherwise fail after the seeds before it have run.
        negative = [seed for seed in self.seeds if seed < 0]
        if negative:
            raise ValueError(f"seeds must be non-negative, got {negative}")
        if self.method not in METHODS:
            raise ValueError(
                f"unknown verification method {self.method!r}; "
                f"available: {sorted(METHODS)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; "
                f"available: {sorted(ALGORITHMS)}"
            )
        if registered_class(self.circuit) is None:
            raise ValueError(
                f"unknown sizing circuit {self.circuit!r}; "
                f"available: {available_circuits()}"
            )
        if self.backend not in available_backends():
            raise ValueError(
                f"unknown simulation backend {self.backend!r}; "
                f"available: {available_backends()}"
            )
        if self.backend == "remote":
            from repro.simulation.remote import ENDPOINTS_ENV, liveness_settings

            # The client reads its timeouts, attempts and breaker settings
            # from the environment: refuse bad ones now, not at the first job.
            liveness_settings()
            if self.endpoints is None and not os.environ.get(ENDPOINTS_ENV, "").strip():
                raise ValueError(
                    f"backend 'remote' needs endpoints: set endpoints "
                    f"(--endpoints HOST:PORT) or ${ENDPOINTS_ENV}"
                )
        # Fail on a bad or unknown override, sample count, chunk or worker
        # count now, not after a run has started.
        self.glova_config(self.seeds[0]).operational()

    # ------------------------------------------------------------------
    @property
    def verification(self) -> VerificationMethod:
        return METHODS[self.method]

    def build_circuit(self):
        return get_circuit(self.circuit)

    def glova_config(self, seed: int) -> GlovaConfig:
        """The per-seed framework configuration this experiment implies."""
        verification_samples = self.verification_samples
        if self.paper_scale:
            verification_samples = None  # Table-I default budgets
        config = GlovaConfig(
            verification=self.verification,
            seed=seed,
            max_iterations=self.max_iterations,
            initial_samples=self.initial_samples,
            optimization_samples=self.optimization_samples,
            verification_samples=verification_samples,
            verification_chunk=self.verification_chunk,
            workers=self.workers,
            backend=self.backend,
            cache_simulations=self.cache_simulations,
            cache_dir=self.cache_dir,
            retry=self.retry,
        )
        return config.with_overrides(**self.overrides)

    def with_overrides(self, **kwargs: Any) -> "ExperimentConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["seeds"] = list(self.seeds)
        if self.endpoints is not None:
            payload["endpoints"] = list(self.endpoints)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentConfig":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(
                f"unknown ExperimentConfig fields: {sorted(unknown)}"
            )
        return cls(**payload)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))


@dataclass
class RunReport:
    """One seed's outcome, reduced to JSON-serializable fields."""

    seed: int
    success: bool
    iterations: int
    simulations: Dict[str, int]
    runtime: float
    verification_attempts: int
    method: str
    circuit: str
    final_design: Optional[List[float]] = None
    final_design_physical: Optional[List[float]] = None
    final_metrics: Optional[Dict[str, float]] = None

    @classmethod
    def from_result(cls, seed: int, result: OptimizationResult) -> "RunReport":
        def listify(array: Optional[np.ndarray]) -> Optional[List[float]]:
            return None if array is None else [float(v) for v in array]

        return cls(
            seed=seed,
            success=result.success,
            iterations=result.iterations,
            simulations=dict(result.simulations),
            runtime=float(result.runtime),
            verification_attempts=result.verification_attempts,
            method=result.method,
            circuit=result.circuit,
            final_design=listify(result.final_design),
            final_design_physical=listify(result.final_design_physical),
            final_metrics=(
                None
                if result.final_metrics is None
                else {k: float(v) for k, v in result.final_metrics.items()}
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunReport":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown RunReport fields: {sorted(unknown)}")
        return cls(**payload)

    def to_result(self) -> OptimizationResult:
        """Rehydrate an :class:`OptimizationResult` from this report.

        Used when a seed is replayed from a checkpoint: downstream table
        aggregation works off ``ExperimentReport.results``, so resumed
        seeds need result objects too.  The per-iteration ``history``
        trace is not checkpointed and comes back empty — everything a
        Table-II row consumes survives the round trip.
        """
        return OptimizationResult(
            success=self.success,
            iterations=self.iterations,
            simulations=dict(self.simulations),
            runtime=float(self.runtime),
            final_design=(
                None
                if self.final_design is None
                else np.asarray(self.final_design, dtype=float)
            ),
            final_design_physical=(
                None
                if self.final_design_physical is None
                else np.asarray(self.final_design_physical, dtype=float)
            ),
            final_metrics=(
                None
                if self.final_metrics is None
                else dict(self.final_metrics)
            ),
            verification_attempts=self.verification_attempts,
            history=[],
            method=self.method,
            circuit=self.circuit,
        )


@dataclass
class ExperimentReport:
    """Aggregated, serializable outcome of one :class:`ExperimentConfig`."""

    config: ExperimentConfig
    runs: List[RunReport]
    #: The raw per-seed results (not serialized; used by table aggregation).
    results: List[OptimizationResult] = field(default_factory=list, repr=False)

    @property
    def success_rate(self) -> float:
        return (
            sum(run.success for run in self.runs) / len(self.runs)
            if self.runs
            else 0.0
        )

    @property
    def best_run(self) -> Optional[RunReport]:
        """The successful run with the fewest simulations, if any."""
        successes = [run for run in self.runs if run.success]
        if not successes:
            return None
        return min(successes, key=lambda run: run.simulations.get("total", 0))

    @property
    def total_simulations(self) -> int:
        return sum(run.simulations.get("total", 0) for run in self.runs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "success_rate": self.success_rate,
            "total_simulations": self.total_simulations,
            "runs": [run.to_dict() for run in self.runs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """A short human-readable account of the experiment."""
        lines = [
            f"{self.config.algorithm} on {self.config.circuit} "
            f"[{self.config.method}] — "
            f"{len(self.runs)} run(s), success rate {self.success_rate:.0%}, "
            f"{self.total_simulations} simulations total"
        ]
        for run in self.runs:
            status = "SUCCESS" if run.success else "FAILED"
            lines.append(
                f"  seed {run.seed}: [{status}] {run.iterations} iterations, "
                f"{run.simulations.get('total', 0)} simulations, "
                f"runtime {run.runtime:.1f} (modelled units)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
#: Layout version of the per-seed checkpoint records; bumped whenever the
#: payload changes shape so stale snapshots are ignored, never misread.
CHECKPOINT_FORMAT_VERSION = 1

#: Config fields that do not change what one seed computes, and therefore
#: do not participate in the checkpoint fingerprint: the seed list itself
#: (each checkpoint is per-seed), where checkpoints live, and which
#: remote endpoints execute the jobs (the fabric is bit-identical to
#: local evaluation by construction).
_FINGERPRINT_EXCLUDED_FIELDS = ("seeds", "checkpoint_dir", "endpoints")


def _config_fingerprint(config: ExperimentConfig) -> str:
    """A content hash of everything that determines one seed's outcome.

    A checkpoint is only replayed when the fingerprint matches — editing
    any result-bearing field (circuit, method, budgets, backend, retry
    policy, overrides…) invalidates old snapshots instead of silently
    serving results computed under a different configuration.
    """
    payload = config.to_dict()
    for excluded in _FINGERPRINT_EXCLUDED_FIELDS:
        payload.pop(excluded, None)
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _checkpoint_path(
    checkpoint_dir: str, fingerprint: str, seed: int
) -> str:
    return os.path.join(
        checkpoint_dir, fingerprint[:16], f"seed-{seed}.json"
    )


def load_checkpoint(
    config: ExperimentConfig, seed: int
) -> Optional[RunReport]:
    """The checkpointed report for one seed, or ``None``.

    Anything wrong with the snapshot — missing, unreadable, a format or
    fingerprint mismatch — is treated as "not checkpointed": the seed
    simply re-runs.
    """
    if config.checkpoint_dir is None:
        return None
    path = _checkpoint_path(
        config.checkpoint_dir, _config_fingerprint(config), seed
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    try:
        if payload.get("version") != CHECKPOINT_FORMAT_VERSION:
            return None
        if payload.get("fingerprint") != _config_fingerprint(config):
            return None
        report = RunReport.from_dict(payload["run"])
    except (KeyError, TypeError, ValueError):
        return None
    if report.seed != seed:
        return None
    return report


def write_checkpoint(
    config: ExperimentConfig, seed: int, run: RunReport
) -> str:
    """Atomically snapshot one completed seed; returns the record path.

    Same-directory temp file + ``os.replace``, like the simulation spill
    store: an interrupted writer can never leave a half-written record
    under the final name.
    """
    from repro.simulation.atomic import atomic_write

    assert config.checkpoint_dir is not None
    fingerprint = _config_fingerprint(config)
    path = _checkpoint_path(config.checkpoint_dir, fingerprint, seed)
    payload = {
        "version": CHECKPOINT_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "config": config.to_dict(),
        "run": run.to_dict(),
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True))
    return path


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _run_seed(config: ExperimentConfig, seed: int) -> OptimizationResult:
    circuit = config.build_circuit()
    optimizer_cls = ALGORITHMS[config.algorithm]
    restore_endpoints: Optional[str] = None
    if config.endpoints:
        # RemoteBackend is environment-configured (the ngspice pattern);
        # publish the fleet for this seed and restore afterwards so one
        # experiment's endpoints never leak into the next.
        from repro.simulation.remote import ENDPOINTS_ENV

        restore_endpoints = os.environ.get(ENDPOINTS_ENV)
        os.environ[ENDPOINTS_ENV] = ",".join(config.endpoints)
    optimizer = None
    try:
        # Built inside the guard: a construction that raises (a worker
        # pool that never warms up) must still restore the endpoints.
        optimizer = optimizer_cls(circuit, config.glova_config(seed))
        return optimizer.run()
    finally:
        # Every optimizer owns a CircuitSimulator; release its service's
        # worker pool so per-seed pools never accumulate across a sweep.
        if optimizer is not None:
            optimizer.simulator.close()
        if config.endpoints:
            if restore_endpoints is None:
                os.environ.pop(ENDPOINTS_ENV, None)
            else:
                os.environ[ENDPOINTS_ENV] = restore_endpoints


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run ``config.algorithm`` for every seed and aggregate a report.

    With ``checkpoint_dir`` set, every completed seed is snapshotted the
    moment it finishes, and seeds whose snapshot matches the config
    fingerprint are **replayed from disk instead of re-simulated** — an
    interrupted sweep resumed with the identical config reaches the same
    final report while only simulating the seeds that never completed.
    Seeds are the RNG-safe resume boundary (each owns its seeded streams),
    and the content-hash simulation cache (``cache_dir``) covers in-flight
    work *within* an interrupted seed.
    """
    runs: List[RunReport] = []
    results: List[OptimizationResult] = []
    for seed in config.seeds:
        run = load_checkpoint(config, seed)
        if run is None:
            result = _run_seed(config, seed)
            run = RunReport.from_result(seed, result)
            if config.checkpoint_dir is not None:
                write_checkpoint(config, seed, run)
        else:
            result = run.to_result()
        runs.append(run)
        results.append(result)
    return ExperimentReport(config=config, runs=runs, results=results)


def run_sizing(config: ExperimentConfig) -> ExperimentReport:
    """Run the GLOVA variation-aware sizing framework for ``config``.

    Mirrors :func:`run_baseline`: a config naming a different algorithm is
    rejected rather than silently re-labelled.
    """
    if config.algorithm != "glova":
        raise ValueError(
            f"run_sizing runs the 'glova' algorithm, got "
            f"{config.algorithm!r}; use run_baseline or run_experiment"
        )
    return run_experiment(config)


def run_baseline(config: ExperimentConfig) -> ExperimentReport:
    """Run one of the Table-II baselines for ``config``."""
    if config.algorithm not in BASELINE_ALGORITHMS:
        raise ValueError(
            f"run_baseline needs a baseline algorithm "
            f"{sorted(BASELINE_ALGORITHMS)}, got {config.algorithm!r}"
        )
    return run_experiment(config)


def run_comparison(
    config: ExperimentConfig,
    algorithms: Sequence[str] = ("glova", "pvtsizing", "robustanalog"),
) -> List[MethodSummary]:
    """Run several algorithms under one config; normalized Table-II rows."""
    summaries = []
    for algorithm in algorithms:
        report = run_experiment(config.with_overrides(algorithm=algorithm))
        summaries.append(
            aggregate_results(algorithm, config.method, report.results)
        )
    return normalize_runtimes(summaries, reference_method="glova")
