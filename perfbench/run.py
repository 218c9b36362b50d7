"""End-to-end sizing benchmark for the GLOVA reproduction.

Runs whole experiments through the public facade
(``repro.api.run_experiment``) in a closed loop: one process, one sizing
run at a time.  From the repository root::

    python3 perfbench/run.py --workload sizing --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs one untraced and one traced sweep and reports the
per-layer self times (see ``tracing.py``), the trace coverage and the
tracing overhead, and prints a "where the time goes" table.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those listed in ``BENCHMARK.json``.  Each invocation also writes a record
(host facts, raw per-run timings, digests) under ``perfbench/out/``.
``--table`` prints the tables of the traced records found there.

See ``perfbench/README.md`` for the workloads, the metrics, the speed
calibration and the held-out sizing seeds.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads here, in the set-up
# children and in forked pool workers: the host's two cores are shared,
# and a threaded matmul would turn contention into timing noise.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import gc
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

CIRCUITS = ("strongarm_latch", "floating_inverter_amplifier", "dram_core_ocsa")

#: Sizing seeds every run uses unless ``--pool held-out`` is given.  The
#: tuning pool is what changes are developed and accepted on; a claimed
#: gain is re-checked on the held-out pool, which no change may be tuned on.
SIZING_POOLS = {"tuning": (0,), "held-out": (1, 2)}

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Median :class:`SpeedProbe` time on an idle 2-vCPU Xeon VM, the host the
#: bounds in BENCHMARK.json were set on.
REFERENCE_PROBE_S = 0.003


@dataclass(frozen=True)
class Workload:
    algorithms: Tuple[str, ...]
    methods: Tuple[str, ...]
    workers: int


#: Why each exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "sizing": Workload(("glova",), ("C", "C-MCL", "C-MCG-L"), 1),
    "baselines-mc": Workload(("pvtsizing", "robustanalog"), ("C-MCL", "C-MCG-L"), 1),
    "mc-workers2": Workload(("glova",), ("C-MCL", "C-MCG-L"), 2),
}


@dataclass
class RunOutcome:
    key: str
    wall_s: float
    cpu_s: float
    run: Optional[object] = None  # repro.api.RunReport; None when it raised
    digest: str = ""
    problems: List[str] = field(default_factory=list)


@dataclass
class Sweep:
    outcomes: List[RunOutcome]
    #: Host slowdown while the sweep ran (see :class:`SpeedProbe`); kept in
    #: the record.
    slowdown: float

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


class SpeedProbe:
    """Times a fixed slice of interpreter and memory-bound work.

    The host's cores are shared with other tenants.  Contention slows
    this process by up to 2x for tens of seconds at a time, and the
    process's CPU/wall ratio does not show it.  Probes interleaved with
    the set-up samples and the sizing runs measure it: the slowdown is the
    mean probe time over :data:`REFERENCE_PROBE_S`, and reported timings
    are host seconds divided by the run's slowdown.  The probe runs no
    repository code, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._array = np.arange(1_000_000, dtype=float)  # 8 MB, past cache
        self.samples: List[float] = []

    def _work(self) -> None:
        total = 0
        for i in range(30_000):
            total += i * i
        for _ in range(4):
            self._array.sum()

    def __call__(self) -> None:
        # The untimed pass warms the caches, so the timing does not depend
        # on how much memory the preceding sizing run touched.
        self._work()
        start = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - start)

    def slowdown(self, since: int = 0) -> float:
        """Host slowdown over the samples from index ``since`` on."""
        return statistics.fmean(self.samples[since:]) / REFERENCE_PROBE_S


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def build_configs(workload: Workload, sizing_seeds: Sequence[int], workers: int):
    from repro.api import ExperimentConfig

    return {
        f"{algorithm}/{circuit}/{method}/seed{seed}": ExperimentConfig(
            circuit=circuit,
            method=method,
            algorithm=algorithm,
            seeds=(seed,),
            workers=workers,
        )
        for algorithm in workload.algorithms
        for circuit in CIRCUITS
        for method in workload.methods
        for seed in sizing_seeds
    }


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def measure_setup(probe: SpeedProbe) -> List[float]:
    """Seconds from process start through imports and circuit construction.

    Each sample is a fresh interpreter, timed from launch until it reports
    the circuits built.
    """
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import repro.api; from repro.circuits.registry import get_circuit; "
        "[get_circuit(name) for name in sys.argv[2:]]; print('ready', flush=True)"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code, str(SRC), *CIRCUITS],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up child failed")
        samples.append(elapsed)
    return samples


def run_digest(run) -> str:
    """Hash of every deterministic field of one run's report."""
    payload = json.dumps(run.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def check_run(config, run, circuit) -> List[str]:
    """Output checks for one run; returns the problems found."""
    import numpy as np

    problems = []
    sims = run.simulations
    phases = sims["initial_sampling"] + sims["optimization"] + sims["verification"]
    if sims["total"] != phases:
        problems.append(f"simulations.total {sims['total']} != phase sum {phases}")
    if not 1 <= run.iterations <= config.max_iterations:
        problems.append(f"iterations {run.iterations} out of range")
    if run.success:
        metrics = run.final_metrics
        if metrics is None or not circuit.is_feasible(metrics):
            problems.append(f"verified design violates constraints: {metrics}")
        elif circuit.evaluate(np.asarray(run.final_design)) != metrics:
            problems.append("final_metrics do not re-evaluate identically")
    return problems


def sweep(configs, circuits, order: Sequence[str], probe: SpeedProbe) -> Sweep:
    """One sizing run per config, in ``order``, each timed on its own."""
    from repro.api import run_experiment

    outcomes = []
    first_probe = len(probe.samples)
    for key in order:
        config = configs[key]
        probe()
        gc.collect()
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            report = run_experiment(config)
        except Exception:  # a raising run is counted as failed, not fatal
            wall = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            outcomes.append(
                RunOutcome(key, wall, cpu_seconds() - cpu_start, problems=["raised"])
            )
            continue
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        run = report.runs[0]
        outcomes.append(
            RunOutcome(
                key,
                wall,
                cpu,
                run=run,
                digest=run_digest(run),
                problems=check_run(config, run, circuits[config.circuit]),
            )
        )
    probe()
    return Sweep(outcomes, probe.slowdown(first_probe))


def digests(outcomes: List[RunOutcome]) -> Dict[str, str]:
    return {o.key: o.digest for o in outcomes if o.run is not None}


def compare_digests(
    reference: Dict[str, str], outcomes: List[RunOutcome], label: str
) -> None:
    """Mark every run whose digest differs from ``reference`` as failed."""
    for outcome in outcomes:
        expected = reference.get(outcome.key)
        if outcome.run is not None and expected and outcome.digest != expected:
            outcome.problems.append(f"digest {outcome.digest} != {label} {expected}")


def workload_digest(per_run: Dict[str, str]) -> str:
    text = "\n".join(f"{key}={per_run[key]}" for key in sorted(per_run))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def quality_metrics(outcomes: List[RunOutcome]) -> Dict[str, Tuple[float, str]]:
    """The paper's cost columns over one sweep (deterministic per pool)."""
    runs = [o.run for o in outcomes if o.run is not None]
    successes = sum(run.success for run in runs)
    simulations = sum(run.simulations["total"] for run in runs)
    return {
        "success_rate": (successes / len(outcomes), "ratio"),
        # With no verified run this degrades to the plain total.
        "sims_per_success": (simulations / max(successes, 1), "sims"),
        "rl_iterations_mean": (
            statistics.fmean(run.iterations for run in runs),
            "iterations",
        ),
        "modelled_runtime": (float(sum(run.runtime for run in runs)), "units"),
    }


# ----------------------------------------------------------------------
# Host facts and records
# ----------------------------------------------------------------------
def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def sweep_record(s: Sweep) -> Dict[str, object]:
    return {
        "host_wall_s": s.wall_s,
        "slowdown": s.slowdown,
        "runs": [
            {
                "key": o.key,
                "host_wall_s": o.wall_s,
                "cpu_per_wall": o.cpu_s / o.wall_s,
                "digest": o.digest,
                "success": None if o.run is None else o.run.success,
                "problems": o.problems,
            }
            for o in s.outcomes
        ],
    }


# ----------------------------------------------------------------------
# "Where the time goes"
# ----------------------------------------------------------------------
def time_table(records: Sequence[Dict[str, object]]) -> str:
    """Markdown table: each layer's self-time share of traced wall."""
    header = "| layer | " + " | ".join(r["workload"] for r in records) + " |"
    lines = [header, "|---" * (len(records) + 1) + "|"]
    for layer in records[0]["layers"]:
        cells = [
            f"{100 * r['layers'][layer]['self_s'] / r['traced_wall_s']:.1f}%"
            for r in records
        ]
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    lines.append(
        "| **trace.coverage** | "
        + " | ".join(f"{100 * r['coverage']:.1f}%" for r in records)
        + " |"
    )
    lines.append(
        "| traced wall, host s | "
        + " | ".join(f"{r['traced_wall_s']:.2f}" for r in records)
        + " |"
    )
    stamps = sorted(
        {
            f"commit {r['host']['commit'][:12]}, nproc {r['host']['nproc']}, "
            f"python {r['host']['python']}, numpy {r['host']['numpy']}, "
            f"scipy {r['host']['scipy']}"
            for r in records
        }
    )
    return "\n".join(lines + [""] + [f"Host: {s}" for s in stamps])


def print_table() -> int:
    paths = [OUT_DIR / f"{name}-trace.json" for name in WORKLOADS]
    records = [json.loads(path.read_text()) for path in paths if path.exists()]
    if not records:
        print(f"no traced records under {OUT_DIR}", file=sys.stderr)
        return 1
    print(time_table(records))
    return 0


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def untraced_mode(args, configs, circuits, probe):
    setup = measure_setup(probe)
    order_rng = random.Random(args.seed)
    keys = list(configs)
    sweeps: List[Sweep] = []
    started = time.perf_counter()
    # Whole sweeps only: another starts while it should end within
    # --seconds, so a contended host runs fewer sweeps, not longer runs.
    while not sweeps or (
        time.perf_counter() - started + sweeps[-1].wall_s <= args.seconds
    ):
        order = keys[:]
        order_rng.shuffle(order)
        sweeps.append(sweep(configs, circuits, order, probe))
    # One slowdown for the whole run: the few probes around the set-up
    # samples alone are too noisy to calibrate them.
    slowdown = probe.slowdown()
    first = digests(sweeps[0].outcomes)
    for later in sweeps[1:]:
        compare_digests(first, later.outcomes, "first sweep")
    outcomes = [o for s in sweeps for o in s.outcomes]
    run_walls = [o.wall_s for o in outcomes]
    if len(sweeps) == 1:
        # Nothing repeated: re-run the shortest config, untimed, so every
        # run still checks that a config reproduces its first digest.
        shortest = min(outcomes, key=lambda o: o.wall_s).key
        recheck = sweep(configs, circuits, [shortest], probe).outcomes
        compare_digests(first, recheck, "first sweep")
        outcomes += recheck
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in sweeps) / slowdown, "s"),
        "run_p50_s": (statistics.median(run_walls) / slowdown, "s"),
        "setup_s": (statistics.median(setup) / slowdown, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "failed_frac": (
            sum(bool(o.problems) for o in outcomes) / len(outcomes),
            "ratio",
        ),
        **quality_metrics(sweeps[0].outcomes),
    }
    record = {
        "sweeps": [sweep_record(s) for s in sweeps],
        "run_p50_samples": len(run_walls),
        "setup_host_s": setup,
        "slowdown": slowdown,
        "cpu_per_wall": sum(o.cpu_s for o in outcomes)
        / sum(o.wall_s for o in outcomes),
        "digest": workload_digest(first),
        "run_digests": first,
    }
    print(
        f"{args.workload}: {len(sweeps)} sweep(s) of {len(keys)} runs; host "
        f"sweep walls {[round(s.wall_s, 3) for s in sweeps]} s at slowdowns "
        f"{[round(s.slowdown, 3) for s in sweeps]} (run: {slowdown:.3f}); "
        f"run_p50_s over n={len(run_walls)} runs; "
        f"cpu/wall {record['cpu_per_wall']:.3f}; "
        f"digest {record['digest']}"
    )
    return metrics, record, outcomes


def traced_mode(args, configs, circuits, probe, workload):
    import tracing

    order = list(configs)
    random.Random(args.seed).shuffle(order)
    untraced = sweep(configs, circuits, order, probe)
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        traced = sweep(configs, circuits, order, probe)
    finally:
        uninstall()
    untraced_digests = digests(untraced.outcomes)
    compare_digests(untraced_digests, traced.outcomes, "untraced")
    outcomes = untraced.outcomes + traced.outcomes
    sweeps = [untraced, traced]
    if workload.workers > 1:
        # The pool must leave results untouched: the same configs
        # evaluated in-process give the same per-config digests.
        in_process = build_configs(workload, args.sizing_seeds, workers=1)
        reference = sweep(in_process, circuits, order, probe)
        compare_digests(digests(reference.outcomes), traced.outcomes, "in-process")
        outcomes += reference.outcomes
        sweeps.append(reference)

    counts = recorder.counts
    layers = {
        layer: {"self_s": recorder.self_s[layer], "calls": recorder.calls[layer]}
        for layer in tracing.LAYERS
    }

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {f"{layer}.self_s": (v["self_s"], "s") for layer, v in layers.items()}
    for layer in (
        "core.replay.sample",
        "core.turbo",
        "circuits",
        "core.verification",
        "core.mu_sigma",
        "simulation.simulator",
    ):
        metrics[f"{layer}.calls"] = (layers[layer]["calls"], "count")
    verifications = layers["core.verification"]["calls"]
    metrics.update(
        {
            "circuits.rows": (counts["circuits.rows"], "count"),
            "circuits.rows_per_call": (
                ratio(counts["circuits.rows"], layers["circuits"]["calls"]),
                "rows/call",
            ),
            "variation.mismatch.rows": (counts["variation.mismatch.rows"], "count"),
            "core.verification.pass_ratio": (
                ratio(counts["core.verification.passed"], verifications),
                "ratio",
            ),
            "core.verification.sims_per_call": (
                ratio(counts["core.verification.sims"], verifications),
                "sims/call",
            ),
            "simulation.service.jobs": (counts["simulation.service.jobs"], "count"),
            "simulation.service.rows": (counts["simulation.service.rows"], "count"),
            "simulation.service.cancelled_ratio": (
                ratio(
                    counts["simulation.service.cancelled"],
                    counts["simulation.service.submitted"],
                ),
                "ratio",
            ),
            "simulation.sharding.shards": (
                counts["simulation.sharding.shards"],
                "count",
            ),
            "trace.coverage": (ratio(recorder.covered_s(), traced.wall_s), "ratio"),
            # Both walls at reference speed, so host drift between the two
            # sweeps does not read as tracing cost.
            "trace.overhead": (
                (traced.wall_s / traced.slowdown)
                / (untraced.wall_s / untraced.slowdown)
                - 1.0,
                "ratio",
            ),
            "host.cpu_per_wall": (
                sum(o.cpu_s for o in traced.outcomes) / traced.wall_s,
                "ratio",
            ),
            "host.slowdown": (traced.slowdown, "ratio"),
        }
    )
    for name in ("pool_start_s", "wait_s", "worker_busy_s"):
        key = f"simulation.sharding.{name}"
        metrics[key] = (counts[key], "s")
    metrics = {
        name: (int(value) if unit == "count" else value, unit)
        for name, (value, unit) in metrics.items()
    }
    record = {
        "sweeps": [sweep_record(s) for s in sweeps],
        "layers": layers,
        "counts": dict(counts),
        "coverage": metrics["trace.coverage"][0],
        "traced_wall_s": traced.wall_s,
        "digest": workload_digest(digests(traced.outcomes)),
        "untraced_digest": workload_digest(untraced_digests),
        "run_digests": digests(traced.outcomes),
    }
    return metrics, record, outcomes


def result_line(mode_key: str, metrics, outcomes) -> Dict[str, object]:
    """The result object, with exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    selected = {}
    for entry in spec[mode_key]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} is in {unit}, not {entry['unit']}")
        selected[entry["name"]] = {"value": value, "unit": unit}
    failed = sum(bool(o.problems) for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": selected,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="orders the runs")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pool",
        choices=sorted(SIZING_POOLS),
        default="tuning",
        help="sizing seeds to run (re-check claims on held-out)",
    )
    parser.add_argument(
        "--table",
        action="store_true",
        help="print the where-the-time-goes table of the traced records",
    )
    args = parser.parse_args(argv)
    if args.table:
        return print_table()
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "api.py").is_file():
        print(f"no repro sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )

    from repro.circuits.registry import get_circuit

    workload = WORKLOADS[args.workload]
    args.sizing_seeds = SIZING_POOLS[args.pool]
    circuits = {name: get_circuit(name) for name in CIRCUITS}
    configs = build_configs(workload, args.sizing_seeds, workload.workers)
    probe = SpeedProbe()
    if args.trace:
        metrics, record, outcomes = traced_mode(args, configs, circuits, probe, workload)
    else:
        metrics, record, outcomes = untraced_mode(args, configs, circuits, probe)
    result = result_line("per_layer" if args.trace else "end_to_end", metrics, outcomes)
    record.update(
        workload=args.workload,
        seed=args.seed,
        pool=args.pool,
        sizing_seeds=list(args.sizing_seeds),
        trace=args.trace,
        host=host_facts(),
        metrics={name: value for name, (value, _) in metrics.items()},
        result=result,
    )
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-trace" if args.trace else f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"{name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    if args.trace:
        table = time_table([record])
        (OUT_DIR / f"{name}.md").write_text(table + "\n")
        print(table)
    for outcome in outcomes:
        for problem in outcome.problems:
            print(f"FAILED {outcome.key}: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    print(f"record: {OUT_DIR.name}/{name}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
