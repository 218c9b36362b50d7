"""Per-layer self-time tracing installed from outside the library.

:func:`install` replaces the public entry points of each layer of
``repro`` with thin wrappers that record spans into a :class:`Recorder`
and returns a function that puts the originals back.  No file under
``src/`` changes, and a wrapper only times the call and reads its
arguments and result, so RNG streams, budgets and reports are untouched.

A span's *self time* is its wall time minus the time covered by child
spans; nested calls into the same layer count as one call of that layer.
Only the process and thread that created the recorder record spans, so
forked pool workers (which inherit the wrappers) and helper threads run
the original code with one extra branch.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> the ``module:Class.method`` entry points it owns.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "core.optimizer": ("repro.core.optimizer:GlovaOptimizer.run",),
    "baselines": (
        "repro.baselines.pvtsizing:PVTSizingOptimizer.run",
        "repro.baselines.robustanalog:RobustAnalogOptimizer.run",
    ),
    "core.turbo": ("repro.core.turbo:TurboSampler.run",),
    "core.agent.update": ("repro.core.agent:RiskSensitiveAgent.update",),
    "core.agent.propose": ("repro.core.agent:RiskSensitiveAgent.propose",),
    "core.actor_critic.critic_train": (
        "repro.core.actor_critic:EnsembleCritic.train",
    ),
    "core.actor_critic.bound_gradient": (
        "repro.core.actor_critic:EnsembleCritic.bound_gradient",
    ),
    "core.actor_critic.predict": (
        "repro.core.actor_critic:EnsembleCritic.predict",
        "repro.core.actor_critic:EnsembleCritic.predict_components",
    ),
    "core.actor_critic.pretrain": (
        "repro.core.actor_critic:Actor.pretrain_towards",
    ),
    "core.replay.sample": ("repro.core.replay:WorstCaseReplayBuffer.sample",),
    "core.verification": ("repro.core.verification:Verifier.verify",),
    "core.mu_sigma": ("repro.core.mu_sigma:MuSigmaEvaluator.evaluate",),
    "variation.mismatch": ("repro.variation.mismatch:MismatchSampler.sample",),
    "circuits": (
        "repro.circuits.base:AnalogCircuit.evaluate",
        "repro.circuits.base:AnalogCircuit.evaluate_batch",
        "repro.circuits.base:AnalogCircuit.evaluate_design_batch",
    ),
    "simulation.simulator": tuple(
        f"repro.simulation.simulator:CircuitSimulator.{name}"
        for name in (
            "simulate",
            "simulate_mismatch_set",
            "submit_mismatch_set",
            "simulate_corners",
            "submit_corners",
            "simulate_corner_sweep",
            "submit_corner_sweep",
            "simulate_designs",
            "simulate_typical",
            "metrics_matrix",
        )
    )
    + ("repro.simulation.simulator:RecordsFuture.result",),
    "simulation.service": (
        "repro.simulation.service:SimulationService.run",
        "repro.simulation.service:SimulationService.submit",
        "repro.simulation.service:SimFuture.result",
        "repro.simulation.service:SimFuture.cancel",
    ),
    "simulation.sharding": (
        "repro.simulation.service:ShardedDispatcher.dispatch",
        "repro.simulation.sharding:WorkerPool.__init__",
        "repro.simulation.sharding:WorkerPool.submit",
        "repro.simulation.sharding:WorkerPool.shutdown",
        "repro.simulation.sharding:ShardHandle.result",
    ),
}


class Recorder:
    """In-memory span and counter store for one traced sweep."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Counters measured at layer boundaries (rows, jobs, seconds...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Open calls per layer (0 = not inside the layer).
        self.depth: Dict[str, int] = defaultdict(int)
        #: Open spans, innermost last: ``[child_seconds]``.
        self._stack: List[List[float]] = []

    def owns_current_call(self) -> bool:
        return os.getpid() == self.pid and threading.get_ident() == self.thread

    def covered_s(self) -> float:
        """Self time summed over every layer."""
        return sum(self.self_s.values())


def _rows(result: Any) -> int:
    if isinstance(result, dict) and result:
        first = next(iter(result.values()))
        return len(first) if hasattr(first, "__len__") else 1
    return 0


def _count_circuit(rec, args, result, elapsed, before):
    if rec.depth["circuits"] == 0:  # a scalar fallback inside a batch call
        rec.counts["circuits.rows"] += _rows(result)


def _count_mismatch(rec, args, result, elapsed, before):
    rec.counts["variation.mismatch.rows"] += len(result)


def _count_verification(rec, args, result, elapsed, before):
    rec.counts["core.verification.passed"] += bool(result.passed)
    rec.counts["core.verification.sims"] += int(result.simulations)


def _count_service_job(rec, args, result, elapsed, before):
    job = args[1]
    rec.counts["simulation.service.jobs"] += 1
    rec.counts["simulation.service.rows"] += job.batch


def _count_submit(rec, args, result, elapsed, before):
    _count_service_job(rec, args, result, elapsed, before)
    rec.counts["simulation.service.submitted"] += 1


def _was_cancelled(args):
    return args[0].cancelled()


def _count_cancel(rec, args, result, elapsed, before):
    if result and not before:
        rec.counts["simulation.service.cancelled"] += 1


def _count_pool_start(rec, args, result, elapsed, before):
    rec.counts["simulation.sharding.pool_start_s"] += elapsed


def _count_shard(rec, args, result, elapsed, before):
    rec.counts["simulation.sharding.shards"] += 1


def _count_shard_wait(rec, args, result, elapsed, before):
    rec.counts["simulation.sharding.wait_s"] += elapsed
    row_seconds = args[0].row_seconds
    if row_seconds is not None:
        rec.counts["simulation.sharding.worker_busy_s"] += float(
            row_seconds.sum()
        )


#: Counter hooks, keyed by entry point: ``hook(recorder, args, result,
#: elapsed, before)``, where ``before`` is what the matching :data:`_BEFORE`
#: hook returned (``None`` when there is none).  Hooks run on every call
#: that returned, nested ones included.
_AFTER: Dict[str, Callable] = {
    "repro.circuits.base:AnalogCircuit.evaluate": _count_circuit,
    "repro.circuits.base:AnalogCircuit.evaluate_batch": _count_circuit,
    "repro.circuits.base:AnalogCircuit.evaluate_design_batch": _count_circuit,
    "repro.variation.mismatch:MismatchSampler.sample": _count_mismatch,
    "repro.core.verification:Verifier.verify": _count_verification,
    "repro.simulation.service:SimulationService.run": _count_service_job,
    "repro.simulation.service:SimulationService.submit": _count_submit,
    "repro.simulation.service:SimFuture.cancel": _count_cancel,
    "repro.simulation.sharding:WorkerPool.__init__": _count_pool_start,
    "repro.simulation.sharding:WorkerPool.submit": _count_shard,
    "repro.simulation.sharding:ShardHandle.result": _count_shard_wait,
}
_BEFORE: Dict[str, Callable] = {
    "repro.simulation.service:SimFuture.cancel": _was_cancelled,
}


def _wrap(
    recorder: Recorder,
    layer: str,
    original: Callable,
    before: Optional[Callable],
    after: Optional[Callable],
) -> Callable:
    clock = time.perf_counter

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not recorder.owns_current_call():
            return original(*args, **kwargs)
        outermost = recorder.depth[layer] == 0
        state = before(args) if before is not None else None
        stack = recorder._stack
        frame = [0.0]  # seconds covered by child spans
        stack.append(frame)
        recorder.depth[layer] += 1
        start = clock()
        try:
            result = original(*args, **kwargs)
        finally:
            elapsed = clock() - start
            recorder.depth[layer] -= 1
            stack.pop()
            recorder.self_s[layer] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
            if outermost:
                recorder.calls[layer] += 1
        if after is not None:
            after(recorder, args, result, elapsed, state)
        return result

    return traced


def _resolve(entry: str) -> Tuple[type, str]:
    module_name, qualified = entry.split(":")
    class_name, attribute = qualified.split(".")
    module = importlib.import_module(module_name)
    return getattr(module, class_name), attribute


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every entry point in :data:`LAYERS`; returns the uninstaller."""
    originals: List[Tuple[type, str, Callable]] = []
    for layer, entries in LAYERS.items():
        for entry in entries:
            cls, attribute = _resolve(entry)
            original = cls.__dict__[attribute]
            originals.append((cls, attribute, original))
            setattr(
                cls,
                attribute,
                _wrap(
                    recorder,
                    layer,
                    original,
                    _BEFORE.get(entry),
                    _AFTER.get(entry),
                ),
            )

    def uninstall() -> None:
        for cls, attribute, original in reversed(originals):
            setattr(cls, attribute, original)

    return uninstall
