"""Deterministic chaos injection for the simulation fabric.

The fault-tolerance paths — retries that charge only the attempt that
succeeds, pool healing, shard watchdogs — guard against failures that are
inherently hard to reproduce: a worker segfaulting mid-shard, an engine
hanging past its timeout, a flaky license server.  This module makes
those failures *scriptable and seeded* so CI can exercise every recovery
path on demand:

``FaultInjectingBackend`` (registry name ``"chaos"``) wraps any terminal
backend and injects faults according to a :class:`FaultSchedule`:

========  =============================================================
mode      behaviour when a fault fires
========  =============================================================
raise     raise :class:`ChaosFault` (an ``NgspiceError`` — the retry
          classifier treats it as an engine failure)
hang      sleep ``hang_seconds`` before evaluating — trips the shard
          watchdog / test-timeout machinery
kill      ``os._exit(kill_exit_code)`` **when running inside a pool
          worker** — the real worker-death signature (breaks the whole
          executor).  In the main process this downgrades to ``raise``
          so a mis-configured schedule can never kill the test runner.
nan       return a full :data:`~repro.simulation.service.FAILURE_NAN` block
          (the never-produced signature: uncacheable, uncharged,
          retried)
========  =============================================================

"Flaky-then-succeed" is ``raise`` with ``faults=N``: the first N matching
evaluations fail, then the engine behaves.

**Cross-process fault tickets.**  A sharded run evaluates in worker
processes, each holding its *own* backend instance — an in-memory
fault counter cannot coordinate "fail exactly once" across them.  The
schedule therefore supports a *ticket directory*: :meth:`FaultSchedule.arm`
creates ``faults`` ticket files, and every matching evaluation tries to
claim one with ``os.unlink`` (atomic on POSIX — exactly one claimant wins
each ticket, in any process).  No tickets left → the engine behaves.
Without a ticket directory the schedule falls back to a per-instance
in-memory counter, which is exactly right for single-process use.

**Seeded targeting.**  With ``probability`` set, whether a given *job* is
fault-eligible is drawn from ``default_rng([seed, job_hash])`` — keyed by
the job's content hash, so the decision is identical in every process and
on every retry of the same job (the ticket budget, not the draw, is what
lets a retry eventually succeed).

**Worker reconstruction.**  The zero-argument constructor rebuilds the
whole configuration from ``REPRO_CHAOS_*`` environment variables (see
:meth:`FaultSchedule.from_env` / :meth:`FaultSchedule.to_env`), which is
what makes the chaos backend ``worker_reconstructible`` and therefore
shardable — chaos runs exercise the *real* pool paths.

**Network chaos.**  The remote fabric (:mod:`repro.simulation.protocol` /
``repro serve``) has its own failure surface — frames dropped, delayed,
truncated mid-send, or duplicated.  :class:`NetworkFaultSchedule` scripts
those with the same seeded targeting and cross-process ticket accounting:
:func:`install_network_chaos` arms a plan (module-global plus
``REPRO_NETCHAOS_*`` env so a ``repro serve`` child process injects too),
and :func:`repro.simulation.protocol.send_frame` consults
:func:`active_network_chaos` on every outgoing frame.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import uuid
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.simulation.ngspice import NgspiceError
from repro.simulation.service import (
    BACKENDS,
    FAILURE_NAN,
    SimJob,
    SimulationBackend,
    resolve_backend,
)

#: Environment variables carrying a chaos schedule across process
#: boundaries (fork or spawn): the worker-side zero-argument constructor
#: reads them back.
INNER_ENV = "REPRO_CHAOS_INNER"
MODE_ENV = "REPRO_CHAOS_MODE"
FAULTS_ENV = "REPRO_CHAOS_FAULTS"
TICKET_DIR_ENV = "REPRO_CHAOS_TICKETS"
HANG_SECONDS_ENV = "REPRO_CHAOS_HANG_SECONDS"
SEED_ENV = "REPRO_CHAOS_SEED"
PROBABILITY_ENV = "REPRO_CHAOS_PROBABILITY"
KILL_EXIT_CODE_ENV = "REPRO_CHAOS_EXIT_CODE"

#: Environment variables carrying a *network* chaos plan across process
#: boundaries (a ``repro serve`` child must inject server-side too).
NET_MODE_ENV = "REPRO_NETCHAOS_MODE"
NET_FAULTS_ENV = "REPRO_NETCHAOS_FAULTS"
NET_TICKET_DIR_ENV = "REPRO_NETCHAOS_TICKETS"
NET_DELAY_SECONDS_ENV = "REPRO_NETCHAOS_DELAY_SECONDS"
NET_SEED_ENV = "REPRO_NETCHAOS_SEED"
NET_PROBABILITY_ENV = "REPRO_NETCHAOS_PROBABILITY"

VALID_MODES = ("raise", "hang", "kill", "nan")
VALID_NETWORK_MODES = ("drop", "delay", "truncate", "duplicate")


class ChaosFault(NgspiceError):
    """An injected engine failure.

    Subclasses :class:`~repro.simulation.ngspice.NgspiceError` so the
    retry classifier files it under ``FailureKind.ENGINE`` — injected
    faults flow through exactly the recovery paths a real engine failure
    would.
    """


def _in_pool_worker() -> bool:
    """True inside a ``ProcessPoolExecutor`` worker (any start method)."""
    return multiprocessing.current_process().name != "MainProcess"


# ----------------------------------------------------------------------
# Ticket-file accounting, shared by backend and network schedules
# ----------------------------------------------------------------------
def _arm_tickets(ticket_dir: str, count: int) -> int:
    """Write ``count`` one-shot ticket files into ``ticket_dir``."""
    os.makedirs(ticket_dir, exist_ok=True)
    for _ in range(count):
        path = os.path.join(ticket_dir, f"ticket-{uuid.uuid4().hex}")
        with open(path, "w") as handle:
            handle.write("armed\n")
    return count


def _tickets_left(ticket_dir: Optional[str]) -> int:
    if ticket_dir is None or not os.path.isdir(ticket_dir):
        return 0
    return len(
        [
            name
            for name in os.listdir(ticket_dir)
            if name.startswith("ticket-")
        ]
    )


def _claim_one_ticket(ticket_dir: Optional[str]) -> bool:
    """Atomically consume one ticket file; False when none remain.

    ``os.unlink`` is the claim: on POSIX exactly one process wins a
    given file, so N tickets yield exactly N faults fleet-wide no
    matter how many workers race.
    """
    if ticket_dir is None or not os.path.isdir(ticket_dir):
        return False
    for name in sorted(os.listdir(ticket_dir)):
        if not name.startswith("ticket-"):
            continue
        try:
            os.unlink(os.path.join(ticket_dir, name))
        except FileNotFoundError:
            continue  # another process won this ticket; try the next
        return True
    return False


def _disarm_tickets(ticket_dir: Optional[str]) -> int:
    """Remove every unclaimed ticket file; returns how many were removed.

    Chaos runs that end with tickets unclaimed (a schedule armed more
    faults than the run consumed) would otherwise leak ``ticket-*`` files
    into tmp directories — teardown should always disarm.
    """
    if ticket_dir is None or not os.path.isdir(ticket_dir):
        return 0
    removed = 0
    for name in os.listdir(ticket_dir):
        if not name.startswith("ticket-"):
            continue
        try:
            os.unlink(os.path.join(ticket_dir, name))
        except FileNotFoundError:
            continue
        removed += 1
    return removed


@dataclass(frozen=True)
class FaultSchedule:
    """What to inject, how often, and how the decision is seeded.

    Frozen so a schedule can ride inside a frozen config; mutable fault
    *state* lives in the ticket directory (cross-process) or in the
    owning backend's counter (single-process).
    """

    mode: str = "raise"
    #: Total faults to inject before the engine behaves (``None`` =
    #: unlimited — every eligible evaluation faults).
    faults: Optional[int] = 1
    #: Directory of one-shot ticket files (cross-process accounting); when
    #: unset, accounting is a per-backend-instance counter.
    ticket_dir: Optional[str] = None
    #: How long ``hang`` sleeps.  Long by design — the watchdog, not the
    #: sleep running out, is what should end a hung shard.
    hang_seconds: float = 300.0
    #: Optional seeded per-job targeting: a job is fault-eligible when
    #: ``default_rng([seed, job_hash]).random() < probability``.
    probability: Optional[float] = None
    seed: int = 0
    kill_exit_code: int = 13

    def __post_init__(self):
        if self.mode not in VALID_MODES:
            raise ValueError(
                f"unknown chaos mode {self.mode!r}; valid: {VALID_MODES}"
            )
        if self.faults is not None and self.faults < 0:
            raise ValueError("faults must be non-negative or None")

    # ------------------------------------------------------------------
    # Ticket accounting
    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Create the ticket files in :attr:`ticket_dir`.

        Returns the number of tickets written.  Requires a bounded
        ``faults`` count and a ticket directory.
        """
        if self.ticket_dir is None:
            raise ValueError("arm() requires a ticket_dir")
        if self.faults is None:
            raise ValueError("arm() requires a bounded fault count")
        return _arm_tickets(self.ticket_dir, self.faults)

    def tickets_left(self) -> int:
        return _tickets_left(self.ticket_dir)

    def disarm(self) -> int:
        """Remove unclaimed ticket files; returns how many were removed.

        The teardown counterpart of :meth:`arm` — call it when a chaos
        run ends so leftover tickets neither leak into tmp directories
        nor arm a *later* schedule that reuses the same directory.
        """
        return _disarm_tickets(self.ticket_dir)

    def _claim_ticket(self) -> bool:
        return _claim_one_ticket(self.ticket_dir)

    # ------------------------------------------------------------------
    # Seeded targeting
    # ------------------------------------------------------------------
    def eligible(self, job: SimJob) -> bool:
        """Whether this job may fault at all (before ticket accounting)."""
        if self.probability is None:
            return True
        key = int(job.job_id[:16], 16) % (2**32)
        draw = np.random.default_rng([self.seed, key]).random()
        return bool(draw < self.probability)

    # ------------------------------------------------------------------
    # Environment round trip (worker reconstruction)
    # ------------------------------------------------------------------
    def to_env(self, inner: str) -> Dict[str, str]:
        """The ``REPRO_CHAOS_*`` mapping reconstructing this schedule."""
        env = {
            INNER_ENV: inner,
            MODE_ENV: self.mode,
            FAULTS_ENV: "" if self.faults is None else str(self.faults),
            TICKET_DIR_ENV: self.ticket_dir or "",
            HANG_SECONDS_ENV: repr(float(self.hang_seconds)),
            SEED_ENV: str(self.seed),
            PROBABILITY_ENV: (
                "" if self.probability is None else repr(self.probability)
            ),
            KILL_EXIT_CODE_ENV: str(self.kill_exit_code),
        }
        return env

    def apply_env(self, inner: str) -> None:
        """Publish this schedule (and the inner backend name) to
        ``os.environ`` so forked/spawned workers rebuild it."""
        os.environ.update(self.to_env(inner))

    @classmethod
    def from_env(cls) -> "FaultSchedule":
        faults_raw = os.environ.get(FAULTS_ENV, "1")
        probability_raw = os.environ.get(PROBABILITY_ENV, "")
        return cls(
            mode=os.environ.get(MODE_ENV, "raise"),
            faults=int(faults_raw) if faults_raw else None,
            ticket_dir=os.environ.get(TICKET_DIR_ENV) or None,
            hang_seconds=float(os.environ.get(HANG_SECONDS_ENV, "300")),
            probability=float(probability_raw) if probability_raw else None,
            seed=int(os.environ.get(SEED_ENV, "0")),
            kill_exit_code=int(os.environ.get(KILL_EXIT_CODE_ENV, "13")),
        )


class FaultInjectingBackend(SimulationBackend):
    """A terminal backend that injects scheduled faults around another.

    ``FaultInjectingBackend()`` (zero arguments — the worker-side rebuild)
    reads the inner backend name and the schedule from ``REPRO_CHAOS_*``;
    the parent-side constructor takes them explicitly and, for sharded
    runs, :meth:`FaultSchedule.apply_env` must have published the same
    configuration first (:func:`install_chaos` does both).
    """

    name = "chaos"

    def __init__(
        self,
        inner: Union[str, SimulationBackend, None] = None,
        schedule: Optional[FaultSchedule] = None,
    ):
        if inner is None:
            inner = os.environ.get(INNER_ENV, "batched")
        self.inner = resolve_backend(inner)
        self.schedule = schedule if schedule is not None else FaultSchedule.from_env()
        #: In-memory fault budget, used only without a ticket directory.
        self._local_faults_left = (
            self.schedule.faults if self.schedule.ticket_dir is None else None
        )
        #: Faults actually injected by *this instance* (observable).
        self.injected = 0

    # Delegate engine traits to the wrapped backend.
    @property
    def row_parallel(self) -> bool:
        return bool(self.inner.row_parallel)

    @property
    def vectorized(self) -> bool:
        return bool(self.inner.vectorized)

    @property
    def worker_reconstructible(self) -> bool:
        return bool(self.inner.worker_reconstructible)

    # ------------------------------------------------------------------
    def _claim_fault(self, job: SimJob) -> bool:
        schedule = self.schedule
        if not schedule.eligible(job):
            return False
        if schedule.ticket_dir is not None:
            return schedule._claim_ticket()
        if self._local_faults_left is None:  # unlimited
            return True
        if self._local_faults_left <= 0:
            return False
        self._local_faults_left -= 1
        return True

    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        if self._claim_fault(job):
            self.injected += 1
            mode = self.schedule.mode
            if mode == "kill" and _in_pool_worker():
                os._exit(self.schedule.kill_exit_code)
            if mode == "kill" or mode == "raise":
                # kill in the main process downgrades to raise: killing
                # the driver (and the test runner with it) is never the
                # intent of a chaos schedule.
                raise ChaosFault(
                    f"injected {mode!r} fault for job {job.job_id[:12]}"
                )
            if mode == "hang":
                time.sleep(self.schedule.hang_seconds)
                # Fall through to a normal evaluation: if nothing above
                # this layer enforced a deadline, the caller still gets
                # correct metrics — just catastrophically late.
            elif mode == "nan":
                return {
                    name: np.full(job.batch, FAILURE_NAN)
                    for name in circuit.metric_names
                }
        return self.inner.evaluate(circuit, job)


BACKENDS[FaultInjectingBackend.name] = FaultInjectingBackend


def install_chaos(
    inner: Union[str, SimulationBackend],
    schedule: FaultSchedule,
    arm: bool = True,
) -> FaultInjectingBackend:
    """Build a chaos backend and publish its configuration for workers.

    Applies the schedule to the environment (so sharded workers rebuild
    the same wrapper), arms the ticket directory when one is configured,
    and returns the parent-side instance.  Test fixtures should pair this
    with ``monkeypatch.setenv``-style cleanup of the ``REPRO_CHAOS_*``
    variables.
    """
    inner_name = (
        inner if isinstance(inner, str) else inner.name
    ) or "batched"
    schedule.apply_env(inner_name)
    if arm and schedule.ticket_dir is not None and schedule.faults is not None:
        schedule.arm()
    return FaultInjectingBackend(inner_name, schedule)


# ----------------------------------------------------------------------
# Network chaos (remote fabric)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkFaultSchedule:
    """What to do to outgoing protocol frames, and how often.

    ========   ==========================================================
    mode       behaviour when a fault fires (in ``send_frame``)
    ========   ==========================================================
    drop       abort the connection without sending — the peer sees EOF
    delay      sleep ``delay_seconds`` before an otherwise normal send
    truncate   send roughly half the frame, then hard-close (RST) — the
               peer's ``recv_frame`` dies mid-read with a typed error
    duplicate  send the frame twice — exercises hash-keyed idempotency
    ========   ==========================================================

    Accounting and targeting mirror :class:`FaultSchedule`: a ticket
    directory bounds injections fleet-wide (client *and* a ``repro
    serve`` child process), and ``probability`` draws per-request
    eligibility from ``default_rng([seed, request_hash])`` so the same
    request gets the same decision in every process.
    """

    mode: str = "drop"
    faults: Optional[int] = 1
    ticket_dir: Optional[str] = None
    delay_seconds: float = 0.05
    probability: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in VALID_NETWORK_MODES:
            raise ValueError(
                f"unknown network chaos mode {self.mode!r}; "
                f"valid: {VALID_NETWORK_MODES}"
            )
        if self.faults is not None and self.faults < 0:
            raise ValueError("faults must be non-negative or None")

    # -- ticket accounting (same semantics as FaultSchedule) -----------
    def arm(self) -> int:
        if self.ticket_dir is None:
            raise ValueError("arm() requires a ticket_dir")
        if self.faults is None:
            raise ValueError("arm() requires a bounded fault count")
        return _arm_tickets(self.ticket_dir, self.faults)

    def tickets_left(self) -> int:
        return _tickets_left(self.ticket_dir)

    def disarm(self) -> int:
        """Remove unclaimed ticket files; returns how many were removed."""
        return _disarm_tickets(self.ticket_dir)

    def _claim_ticket(self) -> bool:
        return _claim_one_ticket(self.ticket_dir)

    def eligible(self, request_hex: str) -> bool:
        """Seeded per-request targeting (before ticket accounting)."""
        if self.probability is None:
            return True
        try:
            key = int(request_hex[:16], 16) % (2**32)
        except ValueError:
            key = 0
        draw = np.random.default_rng([self.seed, key]).random()
        return bool(draw < self.probability)

    # -- environment round trip ----------------------------------------
    def to_env(self) -> Dict[str, str]:
        return {
            NET_MODE_ENV: self.mode,
            NET_FAULTS_ENV: "" if self.faults is None else str(self.faults),
            NET_TICKET_DIR_ENV: self.ticket_dir or "",
            NET_DELAY_SECONDS_ENV: repr(float(self.delay_seconds)),
            NET_SEED_ENV: str(self.seed),
            NET_PROBABILITY_ENV: (
                "" if self.probability is None else repr(self.probability)
            ),
        }

    def apply_env(self) -> None:
        os.environ.update(self.to_env())

    @classmethod
    def from_env(cls) -> "NetworkFaultSchedule":
        faults_raw = os.environ.get(NET_FAULTS_ENV, "1")
        probability_raw = os.environ.get(NET_PROBABILITY_ENV, "")
        return cls(
            mode=os.environ.get(NET_MODE_ENV, "drop"),
            faults=int(faults_raw) if faults_raw else None,
            ticket_dir=os.environ.get(NET_TICKET_DIR_ENV) or None,
            delay_seconds=float(
                os.environ.get(NET_DELAY_SECONDS_ENV, "0.05")
            ),
            probability=float(probability_raw) if probability_raw else None,
            seed=int(os.environ.get(NET_SEED_ENV, "0")),
        )


class NetworkChaos:
    """A live network-fault plan: one schedule plus mutable accounting.

    Injected-fault counting lives here (not on the frozen schedule):
    with a ticket directory the count is fleet-wide and crash-safe;
    without one it is a per-process counter — right for single-process
    tests, wrong across a ``repro serve`` boundary (use tickets there).
    """

    def __init__(self, schedule: NetworkFaultSchedule):
        self.schedule = schedule
        self._local_faults_left = (
            schedule.faults if schedule.ticket_dir is None else None
        )
        #: Faults injected through *this* plan object (observable).
        self.injected = 0

    def claim(self, request_hex: str) -> Optional[str]:
        """The action for one outgoing frame, or ``None`` (send normally)."""
        schedule = self.schedule
        if not schedule.eligible(request_hex):
            return None
        if schedule.ticket_dir is not None:
            if not schedule._claim_ticket():
                return None
        elif self._local_faults_left is not None:
            if self._local_faults_left <= 0:
                return None
            self._local_faults_left -= 1
        self.injected += 1
        return schedule.mode


#: The process-local active plan, set by :func:`install_network_chaos`.
_ACTIVE_NETWORK_CHAOS: Optional[NetworkChaos] = None


def install_network_chaos(
    schedule: Optional[NetworkFaultSchedule],
    arm: bool = True,
    publish_env: bool = True,
) -> Optional[NetworkChaos]:
    """Activate (or with ``None``, deactivate) a network-fault plan.

    Sets the process-local plan consulted by ``send_frame``, optionally
    publishes ``REPRO_NETCHAOS_*`` so child processes (a ``repro serve``
    daemon) rebuild and inject on their side too, and arms the ticket
    directory.  Deactivating also scrubs the environment variables.
    """
    global _ACTIVE_NETWORK_CHAOS
    if schedule is None:
        _ACTIVE_NETWORK_CHAOS = None
        for key in (
            NET_MODE_ENV,
            NET_FAULTS_ENV,
            NET_TICKET_DIR_ENV,
            NET_DELAY_SECONDS_ENV,
            NET_SEED_ENV,
            NET_PROBABILITY_ENV,
        ):
            os.environ.pop(key, None)
        return None
    if publish_env:
        schedule.apply_env()
    if arm and schedule.ticket_dir is not None and schedule.faults is not None:
        schedule.arm()
    _ACTIVE_NETWORK_CHAOS = NetworkChaos(schedule)
    return _ACTIVE_NETWORK_CHAOS


def active_network_chaos() -> Optional[NetworkChaos]:
    """The plan ``send_frame`` should apply, if any.

    Process-local installation wins; otherwise a plan published to the
    environment by a parent process (``REPRO_NETCHAOS_MODE`` set) is
    rebuilt once and cached — this is how a ``repro serve`` child starts
    injecting without any code on its command line.
    """
    global _ACTIVE_NETWORK_CHAOS
    if _ACTIVE_NETWORK_CHAOS is not None:
        return _ACTIVE_NETWORK_CHAOS
    if os.environ.get(NET_MODE_ENV):
        _ACTIVE_NETWORK_CHAOS = NetworkChaos(NetworkFaultSchedule.from_env())
        return _ACTIVE_NETWORK_CHAOS
    return None


__all__ = [
    "ChaosFault",
    "FaultInjectingBackend",
    "FaultSchedule",
    "NetworkChaos",
    "NetworkFaultSchedule",
    "active_network_chaos",
    "install_chaos",
    "install_network_chaos",
]
