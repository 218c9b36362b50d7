"""Common helpers for the Table-II / Table-III benchmarks."""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
from typing import Dict, List, Sequence

from repro import api
from repro.analysis import MethodSummary, format_comparison_table

#: Regenerated table text is also written here so the rows survive pytest's
#: stdout capture and can be inspected after a benchmark run.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def experiment_config(
    circuit_name: str, scenario: str, scale: dict
) -> api.ExperimentConfig:
    """The GLOVA :class:`~repro.api.ExperimentConfig` for the chosen scale."""
    return api.ExperimentConfig(
        circuit=circuit_name,
        method=scenario,
        seeds=scale["seeds"],
        max_iterations=scale["max_iterations"],
        initial_samples=scale["initial_samples"],
        verification_samples=scale["verification_samples"],
        paper_scale=scale["paper_scale"],
    )


def run_table2_block(
    circuit_name: str,
    scale: dict,
    scenarios: Sequence[str] = ("C", "C-MCL", "C-MCG-L"),
    methods: Sequence[str] = ("glova", "pvtsizing", "robustanalog"),
) -> Dict[str, List[MethodSummary]]:
    """Run one circuit's Table-II columns and return per-scenario summaries."""
    block: Dict[str, List[MethodSummary]] = {}
    for scenario in scenarios:
        config = experiment_config(circuit_name, scenario, scale)
        block[scenario] = api.run_comparison(config, methods)
    return block


def environment_metadata() -> dict:
    """Library versions and host facts stamped into every benchmark record.

    Wall-clock numbers are only comparable across PRs when the BLAS/LAPACK
    stack and the host are known; this makes every ``BENCH_*.json``
    self-describing.  ``src/`` needs numpy alone, so ``scipy`` is ``None``
    on an install without it.
    """
    import numpy

    try:
        import scipy
    except ImportError:
        scipy_version = None
    else:
        scipy_version = scipy.__version__
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable benchmark record under benchmarks/results/.

    Perf benchmarks use this to track wall-clock trajectories across PRs
    (e.g. ``BENCH_batched_engine.json``); the file is rewritten on every run
    so the latest numbers are always a plain ``git diff`` away.  Every record
    carries :func:`environment_metadata` under the ``environment`` key.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload.setdefault("environment", environment_metadata())
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_table(block: Dict[str, List[MethodSummary]], title: str) -> str:
    """Print a Table-II/III block and persist it under benchmarks/results/."""
    text = format_comparison_table(block, title=title)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")
    return text
