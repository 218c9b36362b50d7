"""Schema validation for the machine-readable ``BENCH_*.json`` records.

Every perf benchmark persists its numbers through
:func:`benchmarks.harness.write_bench_json`, and downstream tooling (PR
dashboards, regression diffs) assumes a stable shape: a ``description``,
an ``environment`` block stamped by :func:`harness.environment_metadata`,
and finite JSON-scalar leaves (``speedup`` entries positive, ``*_seconds``
entries non-negative).  This module validates every record in
``benchmarks/results/`` against that contract.

It runs two ways:

* as part of the default (tier-1) pytest pass — the check itself is pure
  JSON reading, no wall-clock timing, so it is safe to run everywhere;
* as a script: ``python benchmarks/check_bench_schema.py [files...]``.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from typing import Iterable, List

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Keys every ``environment`` block must carry (see
#: ``harness.environment_metadata``).  ``scipy`` is ``null`` on a
#: numpy-only install; the key is still required.
REQUIRED_ENVIRONMENT_KEYS = (
    "python",
    "numpy",
    "scipy",
    "platform",
    "machine",
    "cpu_count",
)


def iter_bench_files() -> List[pathlib.Path]:
    """All persisted benchmark records, sorted for stable reporting."""
    if not RESULTS_DIR.is_dir():
        return []
    return sorted(RESULTS_DIR.glob("BENCH_*.json"))


def _walk(node, path: str, errors: List[str]) -> None:
    """Recursively check that every leaf is a finite JSON scalar."""
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                errors.append(f"{path}: non-string key {key!r}")
                continue
            _walk(value, f"{path}.{key}" if path else key, errors)
        return
    if isinstance(node, list):
        for index, value in enumerate(node):
            _walk(value, f"{path}[{index}]", errors)
        return
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return
    if isinstance(node, (int, float)):
        if isinstance(node, float) and not math.isfinite(node):
            errors.append(f"{path}: non-finite number {node!r}")
            return
        leaf = path.rsplit(".", 1)[-1]
        if leaf == "speedup" and node <= 0:
            errors.append(f"{path}: speedup must be positive, got {node!r}")
        if leaf.endswith("_seconds") and node < 0:
            errors.append(f"{path}: negative wall clock {node!r}")
        return
    errors.append(f"{path}: non-JSON value of type {type(node).__name__}")


def validate_bench_payload(payload) -> List[str]:
    """Schema errors for one parsed record (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object"]
    description = payload.get("description")
    if not isinstance(description, str) or not description.strip():
        errors.append("missing or empty 'description'")
    environment = payload.get("environment")
    if not isinstance(environment, dict):
        errors.append("missing 'environment' block")
    else:
        for key in REQUIRED_ENVIRONMENT_KEYS:
            if key not in environment:
                errors.append(f"environment missing {key!r}")
    _walk(payload, "", errors)
    return errors


def validate_bench_file(path: pathlib.Path) -> List[str]:
    """Schema errors for one record file (empty list = valid)."""
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        return [f"invalid JSON: {error}"]
    return validate_bench_payload(payload)


# ----------------------------------------------------------------------
# pytest entry point (collected in the default tier-1 pass)
# ----------------------------------------------------------------------
def test_bench_records_match_schema():
    files = iter_bench_files()
    assert files, "no BENCH_*.json records found under benchmarks/results/"
    failures = {
        path.name: errors
        for path in files
        if (errors := validate_bench_file(path))
    }
    assert not failures, f"bench schema violations: {failures}"


def test_environment_stamp_without_scipy(monkeypatch):
    """On a numpy-only install the stamp records ``"scipy": null`` and the
    record still validates."""
    from harness import environment_metadata

    monkeypatch.setitem(sys.modules, "scipy", None)  # import scipy fails
    environment = environment_metadata()
    assert environment["scipy"] is None
    record = {"description": "numpy-only stamp", "environment": environment}
    assert validate_bench_payload(json.loads(json.dumps(record))) == []


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main(argv: Iterable[str] = ()) -> int:
    paths = [pathlib.Path(arg) for arg in argv] or iter_bench_files()
    status = 0
    for path in paths:
        errors = validate_bench_file(path)
        if errors:
            status = 1
            print(f"FAIL {path}")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"ok   {path}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
