"""External-simulator backend: run :class:`SimJob` decks through ngspice.

The paper's method is simulator-agnostic — the control loop only consumes a
metrics tensor per (design, corner, mismatch) block — so the real-SPICE
adapter is just another :class:`~repro.simulation.service.SimulationBackend`
behind the service boundary:

* :class:`NgspiceRunner` — writes a compiled deck
  (:func:`repro.spice.deck.compile_job_deck`) to a scratch directory and
  shells out to ``ngspice -b -o run.log deck.cir`` with a wall-clock
  timeout.  The executable path is **explicit**: constructor argument
  first, then the :data:`EXECUTABLE_ENV` environment variable (read at
  call time so worker processes resolve it too), then plain ``ngspice`` —
  which is exactly what lets the test suite inject a hermetic fake
  simulator without any ngspice installed.
* :class:`NgspiceBackend` — compiles the job, runs the deck(s), and
  reassembles the ``(B, metrics)`` tensor from the measure log
  (:func:`repro.spice.deck.parse_measure_log`).  Failure handling is
  deliberately graceful by default: a timeout or a nonzero exit degrades
  to a NaN block (with a warning) and failed / partial measures become NaN
  cells — the reward pipeline already treats NaN metrics as constraint
  violations, so a flaky simulator slows the search instead of crashing
  it.  Set ``strict=True`` (or :data:`STRICT_ENV`) to raise
  :class:`NgspiceError` instead, e.g. in CI.  Deployment errors — a
  missing executable, a circuit whose measures could never be reported
  by the engine, or a mismatch row a real engine cannot see (below) —
  always raise, strict or not.

Batched jobs and real engines
-----------------------------
Multi-row decks carry their batch in the machine payload plus per-row
``.param`` sections, which only *payload-aware* runners (the hermetic fake
simulator, a future ``.alter``-capable dialect) evaluate row by row.  A
real ngspice binary instead resolves the repeated ``.param`` sections
last-wins and evaluates every ``.measure`` in that single final
environment — i.e. it would silently report wrong numbers for every row
but the last.  The backend therefore runs **one single-row deck per batch
row** by default (each row is plain valid ngspice; a failed row degrades
to a NaN row without discarding its siblings).  Pass
``payload_aware=True`` (or set :data:`PAYLOAD_AWARE_ENV`) only when the
executable genuinely understands multi-row decks — the test suite does,
so batched fake runs stay one subprocess per job.

A real engine also cannot see a row's **mismatch vector**: the deck's
``.model`` cards carry the row's corner and element-static shifts, not
its Monte-Carlo sample, so every row would simulate at σ = 0 and a
C-MCL or C-MCG-L run would verify nothing.  Until per-row mismatch is
lowered into the cards, a backend that is not payload-aware refuses any
job with a non-zero mismatch row (:class:`NgspiceError`, before any deck
is compiled); zero-mismatch jobs — corners, design batches — still run.

Registered in :data:`~repro.simulation.service.BACKENDS` as ``"ngspice"``,
so ``ExperimentConfig(backend="ngspice")`` / ``--backend ngspice`` select it
with zero control-loop changes, and it composes with
:class:`~repro.simulation.service.CachingBackend` and
:class:`~repro.simulation.service.ShardedDispatcher` like any terminal
backend (workers rebuild it by name from the registry).
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.simulation.service import BACKENDS, FAILURE_NAN, SimJob, SimulationBackend
from repro.spice.deck import Deck, compile_job_deck, parse_measure_log

#: Environment variable naming the simulator executable (tests point this at
#: the fake simulator; production deployments at a pinned ngspice build).
EXECUTABLE_ENV = "REPRO_NGSPICE"

#: Environment variable turning simulator failures into raised errors.
STRICT_ENV = "REPRO_NGSPICE_STRICT"

#: Environment variable declaring the executable payload-aware: it
#: evaluates multi-row decks row by row from the machine payload (the fake
#: simulator does; a real ngspice binary does NOT — see the module
#: docstring).  Read at backend *construction* time; sharded workers agree
#: because they rebuild the backend (re-running ``__init__``) in their own
#: process.
PAYLOAD_AWARE_ENV = "REPRO_NGSPICE_PAYLOAD_AWARE"

#: Environment variable selecting the measurement mode: ``measure`` (the
#: default; per-metric ``.measure`` cards parsed from the log) or
#: ``waveform`` (``.tran`` + binary rawfile capture, with all metric
#: extraction done host-side in :mod:`repro.analysis.waveform`).  Read at
#: backend construction time, like :data:`PAYLOAD_AWARE_ENV`.
MEASUREMENT_ENV = "REPRO_NGSPICE_MEASUREMENT"

#: Fallback executable name resolved through PATH.
DEFAULT_EXECUTABLE = "ngspice"

#: Default wall-clock limit for one deck run (seconds).
DEFAULT_TIMEOUT = 120.0


class NgspiceError(RuntimeError):
    """A simulator invocation failed (missing binary, timeout, bad exit)."""


@dataclass
class NgspiceRun:
    """Outcome of one simulator invocation."""

    command: list
    returncode: Optional[int]
    log_text: str = ""
    stdout: str = ""
    stderr: str = ""
    timed_out: bool = False
    #: Raw bytes of the requested rawfile (waveform mode); ``None`` when no
    #: rawfile was requested or the engine never wrote one.
    raw_bytes: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out

    def describe_failure(self) -> str:
        if self.timed_out:
            return f"timed out: {' '.join(self.command)}"
        tail = self.stderr.strip().splitlines()[-3:]
        detail = ("; " + " | ".join(tail)) if tail else ""
        return f"exit {self.returncode}: {' '.join(self.command)}{detail}"


class NgspiceRunner:
    """Runs deck text through an external simulator in batch mode."""

    def __init__(
        self,
        executable: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self._executable = executable
        self.timeout = float(timeout)

    @property
    def executable(self) -> str:
        """Explicit path, else :data:`EXECUTABLE_ENV`, else ``ngspice``.

        The environment is consulted at call time (not construction time) so
        sharded worker processes — which rebuild backends by registry name —
        resolve the same executable as the parent.  Path-like values (ones
        containing a separator, e.g. ``./tools/ngspice``) are absolutized
        against the caller's cwd: the subprocess runs inside a scratch temp
        directory, which would otherwise silently break relative paths.
        """
        resolved = self._executable or os.environ.get(EXECUTABLE_ENV) or (
            DEFAULT_EXECUTABLE
        )
        if os.sep in resolved or (os.altsep and os.altsep in resolved):
            return os.path.abspath(resolved)
        return resolved

    def run_deck(
        self, deck_text: str, tag: str = "job", rawfile: bool = False
    ) -> NgspiceRun:
        """Execute one deck; never raises for simulator-side failures.

        With ``rawfile=True`` the engine is invoked with ``-r <tag>.raw``
        (waveform mode) and whatever bytes it writes there are returned on
        :attr:`NgspiceRun.raw_bytes` before the scratch directory vanishes.

        A missing executable raises :class:`NgspiceError` (the deployment is
        broken, not the simulation); everything else — timeouts, nonzero
        exits — is reported on the returned :class:`NgspiceRun` so the
        backend can decide between NaN degradation and strict failure.

        On POSIX the engine runs in its **own session** (process group) and
        a timeout kills the *whole group* with ``SIGKILL``: a hung ngspice
        that spawned helpers (shell wrappers, license daemons, the fake
        simulator's children in tests) cannot leave orphans holding the
        scratch directory or leaking into later shards — the old
        ``subprocess.run(timeout=...)`` path only killed the direct child.
        """
        with tempfile.TemporaryDirectory(prefix="repro-ngspice-") as scratch:
            deck_path = os.path.join(scratch, f"{tag}.cir")
            log_path = os.path.join(scratch, f"{tag}.log")
            with open(deck_path, "w", encoding="utf-8") as handle:
                handle.write(deck_text)
            raw_path = os.path.join(scratch, f"{tag}.raw")
            command = [self.executable, "-b"]
            if rawfile:
                command += ["-r", raw_path]
            command += ["-o", log_path, deck_path]
            timed_out = False
            try:
                process = subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    cwd=scratch,
                    start_new_session=(os.name == "posix"),
                )
            except FileNotFoundError:
                raise NgspiceError(
                    f"simulator executable {self.executable!r} not found; "
                    f"install ngspice or point ${EXECUTABLE_ENV} at it"
                ) from None
            try:
                stdout, stderr = process.communicate(timeout=self.timeout)
                returncode: Optional[int] = process.returncode
            except subprocess.TimeoutExpired as expired:
                timed_out = True
                returncode = None
                _kill_process_group(process)
                # Reap the killed group leader; the group is dead, so this
                # cannot block indefinitely.
                late_out, late_err = process.communicate()
                stdout = _decode(expired.stdout) or _decode(late_out)
                stderr = _decode(expired.stderr) or _decode(late_err)
            log_text = ""
            if os.path.exists(log_path):
                with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
                    log_text = handle.read()
            raw_bytes: Optional[bytes] = None
            if rawfile and os.path.exists(raw_path):
                with open(raw_path, "rb") as handle:
                    raw_bytes = handle.read()
            return NgspiceRun(
                command=command,
                returncode=returncode,
                log_text=log_text,
                stdout=stdout,
                stderr=stderr,
                timed_out=timed_out,
                raw_bytes=raw_bytes,
            )


def _kill_process_group(process: "subprocess.Popen") -> None:
    """SIGKILL a timed-out engine and everything it spawned.

    The engine was started with ``start_new_session=True`` (POSIX), so its
    process group id is its own pid and ``os.killpg`` reaps helpers and
    grandchildren too.  Windows (no process groups of this kind) and
    already-exited leaders fall back to killing the direct child only.
    """
    if os.name == "posix":
        import signal

        try:
            os.killpg(os.getpgid(process.pid), signal.SIGKILL)
            return
        except (ProcessLookupError, PermissionError, OSError):
            pass
    try:
        process.kill()
    except OSError:  # pragma: no cover - already gone
        pass


def _decode(raw) -> str:
    if raw is None:
        return ""
    if isinstance(raw, bytes):
        return raw.decode("utf-8", errors="replace")
    return str(raw)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in ("1", "true", "yes")


class NgspiceBackend(SimulationBackend):
    """Terminal backend evaluating jobs through an external ngspice binary.

    Parameters
    ----------
    executable:
        Simulator binary; defaults to ``$REPRO_NGSPICE`` then ``ngspice``.
    timeout:
        Per-deck wall-clock limit in seconds.
    strict:
        Raise :class:`NgspiceError` on simulator failure instead of
        degrading to NaN metrics; defaults to ``$REPRO_NGSPICE_STRICT``.
    payload_aware:
        The executable evaluates multi-row decks row by row from the
        machine payload (the fake simulator does).  When ``False`` — the
        default, and the only correct setting for a real ngspice binary,
        which resolves repeated per-row ``.param`` sections last-wins —
        batched jobs are run as one single-row deck per row.  Defaults to
        ``$REPRO_NGSPICE_PAYLOAD_AWARE``.
    measurement:
        ``"measure"`` (default) parses per-metric ``.measure`` cards from
        the engine log; ``"waveform"`` runs ``.tran`` with a binary
        rawfile per row, parses it (:mod:`repro.spice.rawfile`) and
        extracts every metric host-side through the circuit's
        :meth:`waveform_specs` via :mod:`repro.analysis.waveform` — the
        same code path the analytic engine uses.  Defaults to
        ``$REPRO_NGSPICE_MEASUREMENT``.
    """

    name = "ngspice"

    def __init__(
        self,
        executable: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        strict: Optional[bool] = None,
        payload_aware: Optional[bool] = None,
        measurement: Optional[str] = None,
    ):
        self.runner = NgspiceRunner(executable=executable, timeout=timeout)
        self.strict = _env_flag(STRICT_ENV) if strict is None else bool(strict)
        self.payload_aware = (
            _env_flag(PAYLOAD_AWARE_ENV)
            if payload_aware is None
            else bool(payload_aware)
        )
        resolved_measurement = (
            os.environ.get(MEASUREMENT_ENV, "").strip().lower() or "measure"
            if measurement is None
            else str(measurement)
        )
        if resolved_measurement not in ("measure", "waveform"):
            raise ValueError(
                f"unknown measurement mode {resolved_measurement!r} "
                "(expected 'measure' or 'waveform')"
            )
        self.measurement = resolved_measurement
        # Constructor-configured instances cannot be rebuilt by name inside
        # a worker (the zero-argument rebuild reads only the environment),
        # so they must not shard — see `worker_reconstructible`.
        self._env_configured = (
            executable is None
            and strict is None
            and payload_aware is None
            and measurement is None
            and timeout == DEFAULT_TIMEOUT
        )

    @property
    def worker_reconstructible(self) -> bool:
        """Only an env-configured instance survives the by-name rebuild
        inside pool workers; explicit constructor configuration (a custom
        executable, timeout, strictness or payload-awareness) would be
        silently dropped there, so such instances refuse to shard and run
        their rows in-process instead."""
        return self._env_configured

    @property
    def row_parallel(self) -> bool:
        """Whether each batch row is an individually expensive subprocess.

        For real (non-payload-aware) engines every row is its own deck and
        its own ngspice invocation, so the sharded dispatcher fans *any*
        multi-row job out across the service's warm worker pool — one row
        per worker if there are enough workers — instead of looping the
        rows serially in one process (see
        :func:`repro.simulation.sharding.shardable`).  Payload-aware
        executables evaluate the whole batch from one deck in one
        subprocess, so the normal rows-per-worker threshold applies —
        except in waveform mode, where every row is always its own
        ``.tran`` + rawfile run.
        """
        return not self.payload_aware or self.measurement == "waveform"

    def compile(self, circuit: AnalogCircuit, job: SimJob) -> Deck:
        """The deck this backend would run for ``job`` (exposed for tests,
        golden files and debugging).  Note that a non-payload-aware engine
        never sees this multi-row deck whole: :meth:`evaluate` hands it one
        single-row deck per batch row instead."""
        return compile_job_deck(job, circuit, measurement=self.measurement)

    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        if not self.payload_aware and job.mismatch is not None:
            # Deployment error: a real engine reads the netlist, whose
            # .model cards carry the row's corner but not its mismatch
            # vector, so it would simulate every row at sigma = 0.
            shifted = np.flatnonzero(np.any(job.mismatch != 0.0, axis=1))
            if shifted.size:
                raise NgspiceError(
                    f"circuit {circuit.name!r}: row {int(shifted[0])} of "
                    f"{job.batch} has a non-zero mismatch vector, which a "
                    f"real (non-payload-aware) engine cannot see — its deck "
                    f"carries corners, not per-row mismatch — so it would "
                    f"silently simulate sigma = 0; run zero-mismatch jobs "
                    f"or a payload-aware executable (${PAYLOAD_AWARE_ENV}=1)"
                )
        if self.measurement == "waveform":
            if not self.payload_aware:
                specs = circuit.waveform_specs()
                if specs and all(spec.placeholder for spec in specs):
                    raise NgspiceError(
                        f"circuit {circuit.name!r} declares only placeholder "
                        f"waveform specs; a real (non-payload-aware) engine "
                        f"cannot produce their probe traces — override "
                        f"waveform_specs() with real probes or run a "
                        f"payload-aware executable (${PAYLOAD_AWARE_ENV}=1)"
                    )
            return self._evaluate_waveform(circuit, job)
        if not self.payload_aware:
            # Deployment error, not a simulation error: a circuit with only
            # placeholder measure specs emits no .meas card at all, so a
            # real engine could never report a metric: every run would
            # degrade to the all-NaN failure block (uncached, never
            # charged) and make no progress.
            specs = circuit.measure_specs()
            if specs and all(spec.is_placeholder for spec in specs):
                raise NgspiceError(
                    f"circuit {circuit.name!r} declares only placeholder "
                    f"measures; a real (non-payload-aware) engine can never "
                    f"report a metric for it — override measure_specs() "
                    f"with real .measure expressions or run a payload-aware "
                    f"executable (${PAYLOAD_AWARE_ENV}=1)"
                )
        if job.batch > 1 and not self.payload_aware:
            return self._evaluate_per_row(circuit, job)
        deck = self.compile(circuit, job)
        run = self.runner.run_deck(deck.text, tag=circuit.name)
        if not run.ok:
            message = f"ngspice run failed ({run.describe_failure()})"
            if self.strict:
                raise NgspiceError(message)
            warnings.warn(
                f"{message}; reporting NaN metrics for the whole "
                f"{job.batch}-row block",
                RuntimeWarning,
                stacklevel=2,
            )
            # FAILURE_NAN, not plain NaN: the engine never ran, so the
            # service charges nothing and the cache refuses the block.
            return {
                name: np.full(job.batch, FAILURE_NAN)
                for name in circuit.metric_names
            }
        # Measures land in the -o log; ngspice also echoes them on stdout,
        # so parse both (the fake writes only the log).
        return parse_measure_log(
            run.log_text + "\n" + run.stdout, job.batch, circuit.metric_names
        )

    def _evaluate_per_row(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        """One single-row deck per batch row, for engines that only speak
        plain ngspice.  Failed rows degrade to NaN rows (or raise in strict
        mode) without discarding their siblings."""
        # Rows whose subprocess fails keep their FAILURE_NAN initializer:
        # the engine never produced them, so they are uncacheable.
        metrics = {
            name: np.full(job.batch, FAILURE_NAN)
            for name in circuit.metric_names
        }
        failures = []
        for row in range(job.batch):
            row_job = job.shard(row, row + 1)
            deck = compile_job_deck(row_job, circuit)
            run = self.runner.run_deck(deck.text, tag=f"{circuit.name}_r{row}")
            if not run.ok:
                if self.strict:
                    raise NgspiceError(
                        f"ngspice run failed for row {row} of "
                        f"{job.batch} ({run.describe_failure()})"
                    )
                failures.append((row, run.describe_failure()))
                continue
            row_metrics = parse_measure_log(
                run.log_text + "\n" + run.stdout, 1, circuit.metric_names
            )
            for name in circuit.metric_names:
                metrics[name][row] = row_metrics[name][0]
        if failures:
            detail = "; ".join(
                f"row {row}: {reason}" for row, reason in failures[:3]
            )
            warnings.warn(
                f"{len(failures)}/{job.batch} ngspice row runs failed "
                f"({detail}); reporting NaN metrics for those rows",
                RuntimeWarning,
                stacklevel=3,
            )
        return metrics

    def _evaluate_waveform(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        """One ``.tran`` + rawfile run per batch row, metrics host-side.

        Per row: compile a trimmed single-row waveform deck, run it with a
        rawfile request, parse the rawfile (NaN samples allowed — an
        engine-reported NaN is a genuine failed measurement) and apply the
        circuit's :meth:`waveform_specs` recipes.  A failed run, a
        missing/unparseable rawfile, or a missing/short probe trace leaves
        the affected cells at :data:`FAILURE_NAN` ("the engine never
        produced this"): the cache refuses them, and a block of nothing
        else is never charged — the identical degradation contract as
        measure mode, which is what keeps caching, sharding, retry and the
        remote fabric composing unchanged.
        """
        from repro.analysis.waveform import TraceMissingError, extract_metric
        from repro.spice.rawfile import RawfileError, parse_rawfile

        specs = {spec.metric: spec for spec in circuit.waveform_specs()}
        metrics = {
            name: np.full(job.batch, FAILURE_NAN)
            for name in circuit.metric_names
        }
        failures = []
        for row in range(job.batch):
            row_job = job.shard(row, row + 1)
            deck = compile_job_deck(row_job, circuit, measurement="waveform")
            run = self.runner.run_deck(
                deck.text, tag=f"{circuit.name}_r{row}", rawfile=True
            )
            if not run.ok:
                if self.strict:
                    raise NgspiceError(
                        f"ngspice waveform run failed for row {row} of "
                        f"{job.batch} ({run.describe_failure()})"
                    )
                failures.append((row, run.describe_failure()))
                continue
            if run.raw_bytes is None:
                message = "engine wrote no rawfile"
                if self.strict:
                    raise NgspiceError(
                        f"ngspice waveform run for row {row} of {job.batch}: "
                        f"{message}"
                    )
                failures.append((row, message))
                continue
            try:
                raw = parse_rawfile(run.raw_bytes, allow_nan=True)
            except RawfileError as error:
                if self.strict:
                    raise NgspiceError(
                        f"unparseable rawfile for row {row} of {job.batch}: "
                        f"{error}"
                    ) from error
                failures.append((row, f"unparseable rawfile: {error}"))
                continue
            times = raw.time
            traces = raw.traces()
            vdd = float(row_job.row_corners[0].vdd)
            for name in circuit.metric_names:
                try:
                    metrics[name][row] = extract_metric(
                        specs[name], times, traces, vdd
                    )
                except TraceMissingError as error:
                    # This cell was never produced (probe absent/short):
                    # keep FAILURE_NAN for it, but let sibling metrics of
                    # the same row stand.
                    if self.strict:
                        raise NgspiceError(
                            f"waveform metric {name!r} unavailable for row "
                            f"{row} of {job.batch}: {error}"
                        ) from error
                    failures.append((row, f"metric {name}: {error}"))
        if failures:
            detail = "; ".join(
                f"row {row}: {reason}" for row, reason in failures[:3]
            )
            warnings.warn(
                f"{len(failures)} waveform-mode failure(s) across "
                f"{job.batch} row(s) ({detail}); reporting NaN metrics for "
                f"the affected cells",
                RuntimeWarning,
                stacklevel=3,
            )
        return metrics


BACKENDS[NgspiceBackend.name] = NgspiceBackend
