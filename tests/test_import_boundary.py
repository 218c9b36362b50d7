"""What a fresh interpreter loads: the simulation fabric only on use.

The package inits resolve their re-exports on first access, and the
``ngspice``, ``chaos`` and ``remote`` backends load when their name is
first resolved.  So a run on the default ``batched`` engine never imports
the process pool, the ngspice bridge, the deck compiler, the daemon or
the stdlib machinery behind them.  Each check runs in a new interpreter,
because this test process has long since imported all of it.
"""

from __future__ import annotations

import json

from test_numpy_only import _run_fresh

#: Modules a ``batched`` run must never import, at any worker count.
FABRIC = (
    [
        f"repro.simulation.{name}"
        for name in (
            "sharding",
            "ngspice",
            "faults",
            "remote",
            "protocol",
            "server",
            "atomic",
        )
    ]
    + [f"repro.spice.{name}" for name in ("deck", "netlist", "rawfile", "trim")]
    + [
        "repro.analysis.waveform",
        "repro.analysis.tables",
        "multiprocessing",
        "concurrent.futures.process",
        "socket",
        "subprocess",
    ]
)

#: Every package whose init re-exports lazily.
LAZY_PACKAGES = ("repro", "repro.simulation", "repro.spice", "repro.analysis")


def test_batched_runs_never_import_the_fabric():
    """The facade, the three circuits, GLOVA at workers 1 and 2 and a
    Table-II baseline, all on ``batched``, leave no fabric module loaded."""
    code = f"""
import json, sys
from repro import api
circuits = [api.ExperimentConfig(circuit=name).build_circuit().name
            for name in ("sal", "fia", "dram")]
runs = []
for workers in (1, 2):
    runs += api.run_experiment(api.ExperimentConfig(
        circuit="sal", method="C-MCL", max_iterations=2, initial_samples=8,
        verification_samples=4, workers=workers)).runs
runs += api.run_experiment(api.ExperimentConfig(
    circuit="fia", method="C", algorithm="pvtsizing", max_iterations=2,
    initial_samples=8)).runs
print(json.dumps({{
    "circuits": circuits,
    "simulations": [sum(run.simulations.values()) for run in runs],
    "loaded": sorted(m for m in {json.dumps(FABRIC)} if m in sys.modules),
}}))
"""
    outcome = _run_fresh(code)
    assert len(outcome["circuits"]) == 3
    assert len(outcome["simulations"]) == 3
    assert all(count > 0 for count in outcome["simulations"])
    assert outcome["loaded"] == []


def test_deck_compiler_loads_no_core_module():
    """``repro.spice.deck``, the fake ngspice's first import, loads the
    service and the circuits but nothing of the RL core."""
    code = """
import json, sys
import repro.spice.deck
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro.core"))))
"""
    assert _run_fresh(code) == []


def test_every_backend_is_named_before_any_loads_and_resolves_by_name():
    code = """
import json, os, sys
from repro.simulation.service import available_backends, resolve_backend
names = available_backends()
loaded = sorted(m for m in sys.modules if m.startswith("repro.simulation."))
# RemoteBackend() needs an endpoint; building one connects to nothing.
os.environ["REPRO_REMOTE_ENDPOINTS"] = "127.0.0.1:1"
built = {name: resolve_backend(name).name for name in names}
print(json.dumps({"names": names, "loaded": loaded, "built": built}))
"""
    outcome = _run_fresh(code)
    assert outcome["names"] == ["batched", "chaos", "ngspice", "remote", "scalar"]
    assert outcome["loaded"] == [
        "repro.simulation.budget",
        "repro.simulation.service",
    ]
    assert outcome["built"] == {name: name for name in outcome["names"]}


def test_star_import_binds_all_and_unknown_names_raise():
    code = f"""
import importlib, json
missing = {{}}
unknown = {{}}
for package in {json.dumps(LAZY_PACKAGES)}:
    namespace = {{}}
    exec(f"from {{package}} import *", namespace)
    module = importlib.import_module(package)
    missing[package] = [n for n in module.__all__ if n not in namespace]
    try:
        getattr(module, "no_such_name")
    except AttributeError as error:
        unknown[package] = str(error)
print(json.dumps({{"missing": missing, "unknown": unknown}}))
"""
    outcome = _run_fresh(code)
    assert outcome["missing"] == {package: [] for package in LAZY_PACKAGES}
    assert outcome["unknown"] == {
        package: f"module {package!r} has no attribute 'no_such_name'"
        for package in LAZY_PACKAGES
    }
