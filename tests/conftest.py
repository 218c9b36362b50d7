"""Shared fixtures for the test suite.

Consolidates the circuit/service setup that used to be duplicated across
``test_service_api.py``, ``test_loop_batching.py`` and
``test_verification_chunked.py``:

* ``paper_circuit`` — parametrized over the three paper testbenches, so a
  test taking this fixture runs once per circuit;
* ``service_factory`` / ``simulator_factory`` — build a
  :class:`SimulationService` / :class:`CircuitSimulator` for any circuit;
* ``mismatch_sampler`` / ``seeded_mismatch`` — deterministic mismatch
  sampling helpers;
* ``seeded_rng`` — a generator factory (``seeded_rng(seed)``);
* ``conditions_job`` — a seeded condition-axis :class:`SimJob` factory
  (one design at typical across ``rows`` mismatch rows);
* ``pool_submissions`` — records every shard submitted to a
  :class:`WorkerPool`, so pool tests can assert their shards really ran;
* ``fake_ngspice`` — installs the hermetic fake simulator
  (``tests/fake_ngspice.py``) as an executable and points
  ``$REPRO_NGSPICE`` at it, so ``NgspiceBackend`` runs end-to-end with no
  ngspice installed.

Tests marked ``requires_ngspice`` are auto-skipped when no real ngspice
binary is on PATH, keeping tier-1 hermetic.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys

import numpy as np
import pytest

from repro.circuits import DramCoreSenseAmp, FloatingInverterAmplifier, StrongArmLatch
from repro.core.spec import DesignSpec
from repro.simulation import (
    CircuitSimulator,
    SimJob,
    SimulationPhase,
    SimulationService,
    WorkerPool,
)
from repro.simulation.ngspice import (
    EXECUTABLE_ENV,
    MEASUREMENT_ENV,
    PAYLOAD_AWARE_ENV,
)
from repro.variation.corners import typical_corner
from repro.variation.mismatch import MismatchSampler

#: The three paper testbenches (kept importable for explicit parametrize).
ALL_CIRCUIT_CLASSES = (StrongArmLatch, FloatingInverterAmplifier, DramCoreSenseAmp)

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")


def pytest_collection_modifyitems(config, items):
    """Auto-skip ``requires_ngspice`` tests when the binary is absent."""
    if shutil.which("ngspice"):
        return
    skip = pytest.mark.skip(reason="ngspice binary not on PATH")
    for item in items:
        if "requires_ngspice" in item.keywords:
            item.add_marker(skip)


#: Per-test wall-clock ceiling for the tier-1 lane (seconds; 0 disables).
#: A hand-rolled SIGALRM guard because ``pytest-timeout`` is not part of
#: the baked toolchain: a regression in the hang-handling machinery (a
#: wedged shard, a watchdog that never fires) fails *that one test* fast
#: instead of wedging the whole CI run.  Generous by design — the slowest
#: legitimate tier-1 tests (pool warm-up under load) finish well inside it.
TIER1_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Arm a per-test deadline around the test body (POSIX main thread)."""
    if TIER1_TEST_TIMEOUT <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} exceeded the {TIER1_TEST_TIMEOUT:.0f}s tier-1 "
            f"per-test timeout guard (REPRO_TEST_TIMEOUT overrides)"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, TIER1_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Circuits
# ----------------------------------------------------------------------
@pytest.fixture(params=ALL_CIRCUIT_CLASSES, ids=lambda cls: cls.name)
def paper_circuit(request):
    """One fresh instance of each paper testbench (parametrized)."""
    return request.param()


@pytest.fixture
def strongarm():
    return StrongArmLatch()


@pytest.fixture
def fia():
    return FloatingInverterAmplifier()


@pytest.fixture
def dram():
    return DramCoreSenseAmp()


@pytest.fixture
def strongarm_spec(strongarm):
    return DesignSpec.from_circuit(strongarm)


@pytest.fixture
def typical():
    return typical_corner()


# ----------------------------------------------------------------------
# RNG / sampling
# ----------------------------------------------------------------------
@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def seeded_rng():
    """Factory: ``seeded_rng(seed)`` -> a fresh deterministic Generator."""

    def make(seed: int = 1234) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


@pytest.fixture
def mismatch_sampler():
    """Factory for a deterministic global+local :class:`MismatchSampler`."""

    def make(circuit, seed=21, include_global=True, include_local=True):
        return MismatchSampler(
            circuit.mismatch_model,
            include_global=include_global,
            include_local=include_local,
            rng=np.random.default_rng(seed),
        )

    return make


@pytest.fixture
def seeded_mismatch(mismatch_sampler):
    """Factory: a seeded :class:`MismatchSet` for a normalised design."""

    def make(circuit, x, count, seed=5):
        sampler = mismatch_sampler(circuit, seed=seed)
        return sampler.sample(circuit.denormalize(x), count)

    return make


@pytest.fixture
def conditions_job():
    """Factory: ``conditions_job(circuit, rows=10, seed=0, phase=...)`` ->
    a condition-axis :class:`SimJob`: one seeded design at the typical
    corner across ``rows`` standard-normal mismatch rows.  ``rows``,
    ``seed`` and ``phase`` fix the job's content hash (``job_id``)."""

    def make(circuit, rows=10, seed=0, phase=SimulationPhase.OPTIMIZATION):
        rng = np.random.default_rng(seed)
        return SimJob.conditions(
            circuit.name,
            rng.uniform(0.2, 0.8, circuit.dimension),
            (typical_corner(),),
            rng.standard_normal((rows, circuit.mismatch_dimension)),
            phase,
        )

    return make


# ----------------------------------------------------------------------
# Service / simulator construction
# ----------------------------------------------------------------------
@pytest.fixture
def service_factory():
    """Factory: ``service_factory(circuit, **kwargs)`` -> SimulationService.

    Services own their worker pools since the async redesign; the factory
    closes every service it built at teardown so pools never outlive the
    test that spawned them.
    """
    services = []

    def make(circuit, **kwargs) -> SimulationService:
        service = SimulationService(circuit, **kwargs)
        services.append(service)
        return service

    yield make
    for service in services:
        service.close()


@pytest.fixture
def simulator_factory():
    """Factory: ``simulator_factory(circuit, **kwargs)`` -> CircuitSimulator.

    Closes every simulator it built at teardown (releasing the underlying
    service's worker pool).
    """
    simulators = []

    def make(circuit, **kwargs) -> CircuitSimulator:
        simulator = CircuitSimulator(circuit, **kwargs)
        simulators.append(simulator)
        return simulator

    yield make
    for simulator in simulators:
        simulator.close()


@pytest.fixture
def pool_submissions(monkeypatch):
    """The shard jobs submitted to any :class:`WorkerPool` during the test.

    Pool tests assert this is non-empty: an engine that never shards
    would otherwise pass them in-process without touching a pool.
    """
    submitted = []
    original = WorkerPool.submit

    def recording(pool, fn, /, *args):
        submitted.extend(arg for arg in args if hasattr(arg, "job_id"))
        return original(pool, fn, *args)

    monkeypatch.setattr(WorkerPool, "submit", recording)
    return submitted


# ----------------------------------------------------------------------
# External-simulator harness
# ----------------------------------------------------------------------
@pytest.fixture
def fake_ngspice(tmp_path, monkeypatch):
    """Install the hermetic fake simulator and select it via the env.

    Writes an executable launcher that runs ``tests/fake_ngspice.py`` with
    the repo's ``src`` on ``sys.path`` (the fake evaluates decks with the
    analytic engine), points ``$REPRO_NGSPICE`` at it and returns the
    launcher path.  Every ``NgspiceBackend()`` built afterwards — including
    ones rebuilt by name inside *newly forked* worker processes — shells
    out to the fake.  The fake parses the machine payload (it *is*
    payload-aware), so ``$REPRO_NGSPICE_PAYLOAD_AWARE`` is set too: batched
    jobs run as one multi-row deck instead of one subprocess per row.
    """
    launcher = tmp_path / "fake-ngspice"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"sys.path.insert(0, {TESTS_DIR!r})\n"
        f"sys.path.insert(0, {SRC_DIR!r})\n"
        "from fake_ngspice import main\n"
        "raise SystemExit(main())\n"
    )
    launcher.chmod(0o755)
    monkeypatch.setenv(EXECUTABLE_ENV, str(launcher))
    monkeypatch.setenv(PAYLOAD_AWARE_ENV, "1")
    monkeypatch.delenv(MEASUREMENT_ENV, raising=False)
    monkeypatch.delenv("FAKE_NGSPICE_MODE", raising=False)
    monkeypatch.delenv("FAKE_NGSPICE_FAIL_ONCE", raising=False)
    return str(launcher)


@pytest.fixture
def fake_ngspice_waveform(fake_ngspice, monkeypatch):
    """The fake simulator with waveform measurement selected via the env.

    Backends built afterwards (including ones rebuilt by name inside
    worker processes) run ``.tran`` + rawfile decks and extract metrics
    host-side; the fake answers with canonical binary rawfiles rendered
    from the analytic engine's values.
    """
    monkeypatch.setenv(MEASUREMENT_ENV, "waveform")
    return fake_ngspice


@pytest.fixture
def feasible_strongarm_design(strongarm, strongarm_spec, rng):
    """A normalised StrongARM design that meets its targets at typical."""
    from repro.core.reward import reward_from_metrics

    for _ in range(5000):
        x = strongarm.random_sizing(rng)
        metrics = strongarm.evaluate(x, typical_corner())
        if reward_from_metrics(strongarm_spec, metrics) >= 0.2:
            return x
    raise RuntimeError("could not find a feasible StrongARM design for tests")
