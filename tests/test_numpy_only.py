"""``src/`` runs on numpy alone.

``setup.py`` requires only numpy; scipy is a test and benchmark
dependency.  Each check runs in a fresh interpreter, because this test
process may already have imported scipy for a reference computation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Expression, evaluated in the child, listing the loaded scipy modules.
LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter and parse its last stdout line."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_sizing_run_loads_no_scipy():
    """The public API, the three paper circuits and a GLOVA run whose
    TuRBO seeding fits the Gaussian process load no scipy module."""
    code = f"""
import json, sys
from repro import api
circuits = [api.ExperimentConfig(circuit=name).build_circuit().name
            for name in ("sal", "fia", "dram")]
report = api.run_experiment(api.ExperimentConfig(
    circuit="sal", method="C", max_iterations=2, initial_samples=8))
print(json.dumps({{"circuits": circuits, "runs": len(report.runs),
                  "scipy": {LOADED_SCIPY}}}))
"""
    outcome = _run_fresh(code)
    assert len(outcome["circuits"]) == 3
    assert outcome["runs"] == 1
    assert outcome["scipy"] == []


def test_blas_pin_reaches_numpy_openblas_without_scipy():
    """The pool workers' ctypes BLAS pin reaches the library numpy
    vendors and leaves scipy unimported."""
    code = f"""
import ctypes, json, sys
from repro.simulation import sharding
candidates = sharding._blas_library_candidates()
symbols = sharding._BLAS_SET_THREADS_SYMBOLS + (sharding._MKL_SET_THREADS_SYMBOL,)
vendored = sorted({{
    symbol
    for path in candidates
    for symbol in symbols
    if hasattr(ctypes.CDLL(path), symbol)
}})
pinned = sharding._ctypes_pin_blas_threads(1)
print(json.dumps({{"candidates": candidates, "vendored": vendored,
                  "pinned": pinned, "scipy": {LOADED_SCIPY}}}))
"""
    outcome = _run_fresh(code)
    assert outcome["scipy"] == []
    if not outcome["candidates"]:
        pytest.skip("numpy ships no vendored BLAS library here")
    assert all("numpy" in path for path in outcome["candidates"])
    assert outcome["vendored"], outcome["candidates"]
    assert set(outcome["vendored"]) <= set(outcome["pinned"])
