"""``RemoteBackend`` — ship :class:`SimJob` s to ``repro serve`` daemons.

The client half of the remote simulation fabric.  Registered as
``"remote"`` in ``BACKENDS``, it behaves exactly like any terminal
backend — :class:`~repro.simulation.service.SimulationService` wraps it
in the cache and the accounting loop unchanged — except that
``evaluate`` serializes the job over the frame protocol to one of a
fleet of endpoints and validates the metric block that comes back.

Failure handling is layered, cheapest first:

1. **Timeouts.**  Every connection has a connect timeout and an
   *activity* timeout: the clock resets on any frame from the server, so
   a long job on a healthy server (heartbeats flowing) never times out,
   while a hung server (silence) is abandoned quickly.
2. **Retries with seeded backoff.**  Transient failures — refused
   connections, dropped/truncated frames, engine errors the server
   reported — rotate to the next endpoint and back off via the existing
   :class:`~repro.simulation.service.RetryPolicy` delay machinery
   (deterministic per job hash and attempt: reruns wait the same
   delays).  The job hash is the idempotency key, so resubmitting after
   an ambiguous failure is always safe — the server coalesces or serves
   the retained result.
3. **Per-endpoint circuit breakers.**  ``breaker_threshold`` consecutive
   failures open an endpoint's breaker; while open the endpoint is
   skipped entirely (no connect timeout paid per job).  After
   ``breaker_reset_seconds`` one probe request is allowed through
   (half-open): success closes the breaker, failure re-opens it.
4. **Degrade to local.**  When every endpoint is open or attempts are
   exhausted, the job runs on a local in-process fallback backend
   (default ``batched``).  The run *finishes correctly, just slower* —
   and because all budget/cache accounting lives client-side in the
   service, the results and budget trajectory are bit-identical to a
   fully-local run no matter when the fabric degraded.

Configuration is environment-first (the ngspice pattern), which is what
makes the zero-argument constructor — and therefore
``worker_reconstructible`` — work::

    REPRO_REMOTE_ENDPOINTS         host:port[,host:port...]   (required)
    REPRO_REMOTE_FALLBACK          local backend name (default: batched)
    REPRO_REMOTE_CONNECT_TIMEOUT   seconds (default: 2.0)
    REPRO_REMOTE_ACTIVITY_TIMEOUT  seconds of server silence (default: 10.0)
    REPRO_REMOTE_ATTEMPTS          total tries across the fleet (default: 3)
    REPRO_REMOTE_BREAKER_THRESHOLD consecutive failures to open (default: 3)
    REPRO_REMOTE_BREAKER_RESET     seconds until half-open (default: 5.0)
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import socket
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.simulation.protocol import (
    FrameType,
    ProtocolError,
    RemoteError,
    dumps_payload,
    loads_error,
    loads_metrics,
    recv_frame,
    request_id_bytes,
    send_frame,
)
from repro.simulation.service import (
    BACKENDS,
    RetryPolicy,
    SimJob,
    SimulationBackend,
    resolve_backend,
)

logger = logging.getLogger(__name__)

ENDPOINTS_ENV = "REPRO_REMOTE_ENDPOINTS"
FALLBACK_ENV = "REPRO_REMOTE_FALLBACK"
CONNECT_TIMEOUT_ENV = "REPRO_REMOTE_CONNECT_TIMEOUT"
ACTIVITY_TIMEOUT_ENV = "REPRO_REMOTE_ACTIVITY_TIMEOUT"
ATTEMPTS_ENV = "REPRO_REMOTE_ATTEMPTS"
BREAKER_THRESHOLD_ENV = "REPRO_REMOTE_BREAKER_THRESHOLD"
BREAKER_RESET_ENV = "REPRO_REMOTE_BREAKER_RESET"

DEFAULT_CONNECT_TIMEOUT = 2.0
DEFAULT_ACTIVITY_TIMEOUT = 10.0
DEFAULT_ATTEMPTS = 3
DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_RESET = 5.0


def liveness_settings(
    connect_timeout: Optional[float] = None,
    activity_timeout: Optional[float] = None,
    breaker_reset_seconds: Optional[float] = None,
    attempts: Optional[int] = None,
    breaker_threshold: Optional[int] = None,
) -> Tuple[float, float, float, int, int]:
    """The connect and activity timeouts, the breaker reset period, the
    fleet-wide attempts and the breaker threshold, each from its
    argument, else its variable, else its default.

    A timeout must be finite and > 0: ``socket`` refuses a negative or
    NaN one and overflows on inf, and at 0 every connect fails.  A reset
    must be finite and >= 0: a NaN one never half-opens a breaker.  The
    attempts and the threshold must be integers >= 1 (a decimal string
    in a variable).  A bad value is refused here, naming its variable,
    not mid-run.
    """
    settings = []
    for name, value, variable, default, zero_ok in (
        ("connect_timeout", connect_timeout, CONNECT_TIMEOUT_ENV,
         DEFAULT_CONNECT_TIMEOUT, False),
        ("activity_timeout", activity_timeout, ACTIVITY_TIMEOUT_ENV,
         DEFAULT_ACTIVITY_TIMEOUT, False),
        ("breaker_reset_seconds", breaker_reset_seconds, BREAKER_RESET_ENV,
         DEFAULT_BREAKER_RESET, True),
    ):
        seconds = float(os.environ.get(variable, default) if value is None else value)
        if not math.isfinite(seconds) or seconds < 0 or (seconds == 0 and not zero_ok):
            raise ValueError(
                f"{name} (${variable}) must be finite and "
                f"{'>= 0' if zero_ok else '> 0'} seconds, got {seconds}"
            )
        settings.append(seconds)
    for name, value, variable, default in (
        ("attempts", attempts, ATTEMPTS_ENV, DEFAULT_ATTEMPTS),
        ("breaker_threshold", breaker_threshold, BREAKER_THRESHOLD_ENV,
         DEFAULT_BREAKER_THRESHOLD),
    ):
        raw = count = os.environ.get(variable, default) if value is None else value
        if isinstance(raw, str):
            try:
                count = int(raw)
            except ValueError:
                pass
        if (
            isinstance(count, bool)
            or not isinstance(count, numbers.Integral)
            or count < 1
        ):
            raise ValueError(
                f"{name} (${variable}) must be an integer >= 1, got {raw!r}"
            )
        settings.append(int(count))
    return tuple(settings)


def parse_endpoints(spec: Union[str, Sequence[str]]) -> Tuple[Tuple[str, int], ...]:
    """``"host:port,host:port"`` (or a sequence of such) → address tuples."""
    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split(",")]
    else:
        parts = [str(part).strip() for part in spec]
    endpoints = []
    for part in parts:
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"endpoint {part!r} is not of the form host:port"
            )
        try:
            endpoints.append((host, int(port)))
        except ValueError:
            raise ValueError(
                f"endpoint {part!r} has a non-integer port"
            ) from None
    return tuple(endpoints)


class CircuitBreaker:
    """Closed → open after K consecutive failures → half-open probe.

    Plain state machine, injectable clock for tests.  ``allows()`` is
    the gate: always True when closed; when open it stays False until
    ``reset_seconds`` have passed, then returns True exactly once (the
    half-open probe) — the probe's outcome closes or re-opens the
    breaker via :meth:`record_success` / :meth:`record_failure`.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        reset_seconds: float = DEFAULT_BREAKER_RESET,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half-open"
        return "open"

    def allows(self) -> bool:
        """Whether a request may be sent to this endpoint right now."""
        if self._opened_at is None:
            return True
        if self._probing:
            return False  # one probe at a time
        if self._clock() - self._opened_at >= self.reset_seconds:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        self._probing = False
        if (
            self._opened_at is not None
            or self._consecutive_failures >= self.failure_threshold
        ):
            # A failed probe re-opens immediately; fresh failures open
            # once the threshold is met.  Re-stamp the clock so the
            # next probe waits a full reset period.
            self._opened_at = self._clock()


class RemoteBackend(SimulationBackend):
    """Terminal backend evaluating jobs on ``repro serve`` endpoints.

    Zero arguments (the worker-side rebuild) reads everything from
    ``REPRO_REMOTE_*`` — no endpoints configured is a deployment error
    and raises immediately; a fabric that silently never leaves the
    fallback would defeat the point.
    """

    name = "remote"

    def __init__(
        self,
        endpoints: Union[None, str, Sequence[str]] = None,
        fallback: Union[None, str, SimulationBackend] = None,
        connect_timeout: Optional[float] = None,
        activity_timeout: Optional[float] = None,
        attempts: Optional[int] = None,
        breaker_threshold: Optional[int] = None,
        breaker_reset_seconds: Optional[float] = None,
    ):
        self._env_configured = all(
            value is None
            for value in (
                endpoints,
                fallback,
                connect_timeout,
                activity_timeout,
                attempts,
                breaker_threshold,
                breaker_reset_seconds,
            )
        )
        if endpoints is None:
            endpoints = os.environ.get(ENDPOINTS_ENV, "")
        self.endpoints = parse_endpoints(endpoints)
        if not self.endpoints:
            raise ValueError(
                "RemoteBackend needs at least one endpoint: pass "
                f"endpoints= or set {ENDPOINTS_ENV}=host:port[,host:port]"
            )
        if fallback is None:
            fallback = os.environ.get(FALLBACK_ENV) or "batched"
        self._fallback_name = (
            fallback if isinstance(fallback, str) else fallback.name
        )
        self._fallback: Optional[SimulationBackend] = (
            None if isinstance(fallback, str) else fallback
        )
        (
            self.connect_timeout,
            self.activity_timeout,
            reset_seconds,
            attempts,
            threshold,
        ) = liveness_settings(
            connect_timeout,
            activity_timeout,
            breaker_reset_seconds,
            attempts,
            breaker_threshold,
        )
        #: Seeded deterministic backoff between fleet-wide attempts; the
        #: retry classification itself (what counts as transient) is
        #: handled here, not by the service policy.
        self.policy = RetryPolicy(
            max_attempts=attempts, backoff=0.05, jitter=0.1
        )
        self.breakers: Dict[Tuple[str, int], CircuitBreaker] = {
            endpoint: CircuitBreaker(threshold, reset_seconds)
            for endpoint in self.endpoints
        }
        self._cursor = 0
        self._warned_degraded = False
        #: Observable counters (tests and operators read these).
        self.remote_evaluations = 0
        self.fallback_used = 0

    # ------------------------------------------------------------------
    # Backend traits
    # ------------------------------------------------------------------
    @property
    def row_parallel(self) -> bool:
        return False

    @property
    def worker_reconstructible(self) -> bool:
        """True only for the env-configured form (the ngspice pattern):
        a worker's ``RemoteBackend()`` must rebuild *this* fleet."""
        return self._env_configured

    @property
    def fallback(self) -> SimulationBackend:
        """The local backend degraded jobs run on (built lazily so a
        healthy fabric never pays for it)."""
        if self._fallback is None:
            self._fallback = resolve_backend(self._fallback_name)
        return self._fallback

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, circuit: AnalogCircuit, job: SimJob
    ) -> Dict[str, np.ndarray]:
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.policy.max_attempts + 1):
            tried_any = False
            for endpoint in self._rotation():
                breaker = self.breakers[endpoint]
                if not breaker.allows():
                    continue
                tried_any = True
                try:
                    metrics = self._request(endpoint, circuit, job)
                except RemoteError as error:
                    if error.kind == "deployment":
                        # A misconfigured server (unknown circuit, broken
                        # backend) must surface, not be papered over by
                        # the local fallback.
                        raise
                    breaker.record_failure()
                    last_error = error
                    continue
                except (
                    ProtocolError,
                    OSError,
                    TimeoutError,
                    socket.timeout,
                ) as error:
                    breaker.record_failure()
                    last_error = error
                    continue
                breaker.record_success()
                self.remote_evaluations += 1
                return metrics
            if not tried_any:
                break  # every breaker open — no point backing off
            if attempt < self.policy.max_attempts:
                self.policy.sleep(job.job_id, attempt)
        return self._degrade(circuit, job, last_error)

    def _rotation(self) -> List[Tuple[str, int]]:
        """Endpoints starting at the cursor (simple round-robin spread)."""
        start = self._cursor % len(self.endpoints)
        self._cursor += 1
        return list(self.endpoints[start:]) + list(self.endpoints[:start])

    def _degrade(
        self,
        circuit: AnalogCircuit,
        job: SimJob,
        last_error: Optional[BaseException],
    ) -> Dict[str, np.ndarray]:
        if not self._warned_degraded:
            self._warned_degraded = True
            logger.warning(
                "remote fabric unavailable (%s); degrading to local "
                "%r backend — results are unaffected, throughput is",
                last_error,
                self._fallback_name,
            )
        self.fallback_used += 1
        return self.fallback.evaluate(circuit, job)

    # ------------------------------------------------------------------
    def _request(
        self,
        endpoint: Tuple[str, int],
        circuit: AnalogCircuit,
        job: SimJob,
    ) -> Dict[str, np.ndarray]:
        """One attempt against one endpoint: connect, submit, await."""
        request_id = request_id_bytes(job.job_id)
        with socket.create_connection(
            endpoint, timeout=self.connect_timeout
        ) as sock:
            # From here on the clock is *activity*: any frame from the
            # server (heartbeats included) proves it is alive and resets
            # the timeout — only true silence gives up.
            sock.settimeout(self.activity_timeout)
            send_frame(
                sock,
                FrameType.REQUEST,
                dumps_payload(job),
                request_id=request_id,
            )
            while True:
                kind, reply_id, payload = recv_frame(sock)
                if kind == FrameType.HEARTBEAT:
                    # Echo back: the echo is what renews our server-side
                    # lease.  A failed echo means the server is gone.
                    send_frame(
                        sock, FrameType.HEARTBEAT, request_id=request_id
                    )
                    continue
                if kind == FrameType.PONG:
                    continue
                if reply_id != request_id:
                    raise ProtocolError(
                        "reply correlates to a different request"
                    )
                if kind == FrameType.RESULT:
                    return loads_metrics(
                        payload, job.batch, circuit.metric_names
                    )
                if kind == FrameType.ERROR:
                    raise loads_error(payload)
                raise ProtocolError(f"unexpected {kind.name} frame")

    # ------------------------------------------------------------------
    def ping(self, endpoint: Tuple[str, int]) -> bool:
        """Health-probe one endpoint (used by operators and tests)."""
        try:
            with socket.create_connection(
                endpoint, timeout=self.connect_timeout
            ) as sock:
                sock.settimeout(self.activity_timeout)
                send_frame(sock, FrameType.PING)
                kind, _rid, _payload = recv_frame(sock)
                return kind == FrameType.PONG
        except (ProtocolError, OSError, TimeoutError, socket.timeout):
            return False


BACKENDS[RemoteBackend.name] = RemoteBackend


__all__ = [
    "ACTIVITY_TIMEOUT_ENV",
    "ATTEMPTS_ENV",
    "BREAKER_RESET_ENV",
    "BREAKER_THRESHOLD_ENV",
    "CONNECT_TIMEOUT_ENV",
    "CircuitBreaker",
    "DEFAULT_ACTIVITY_TIMEOUT",
    "DEFAULT_ATTEMPTS",
    "DEFAULT_BREAKER_RESET",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_CONNECT_TIMEOUT",
    "ENDPOINTS_ENV",
    "FALLBACK_ENV",
    "RemoteBackend",
    "parse_endpoints",
]
