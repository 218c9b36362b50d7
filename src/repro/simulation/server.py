"""``repro serve`` — the worker daemon of the remote simulation fabric.

One :class:`SimulationServer` owns a listening socket, a terminal backend
(any ``BACKENDS``-resolvable name — ``batched``, ``scalar``, ``ngspice``,
even ``chaos``) and, for ``workers > 1`` on an engine that can shard, a
warm :class:`~repro.simulation.sharding.WorkerPool` behind a
:class:`~repro.simulation.service.ShardedDispatcher`.  Clients
(:class:`~repro.simulation.remote.RemoteBackend`) connect over the frame
protocol of :mod:`repro.simulation.protocol` and get *exactly* the metric
blocks the same backend would produce in-process — the server never
touches budgets, caches or retries; all accounting stays client-side,
which is what keeps budget trajectories bit-identical no matter which
side of the wire a job ran on.  It runs on the shared
:class:`~repro.simulation.daemon.Daemon` core with a REQUEST handler.

Robustness model, in the order things go wrong:

**Duplicate submissions coalesce.**  The request id *is* the job's
content hash, so two clients (or one client retrying) submitting the same
job attach to one in-flight execution — at-least-once delivery costs one
simulation, not N.

**Leases with heartbeats.**  While a job executes, the handler sends the
client a HEARTBEAT every ``heartbeat_interval`` seconds (so a long but
healthy job never trips the client's activity timeout) and expects echoes
back; each frame received from the client renews its lease.  A client
silent for ``lease_seconds`` — crashed, partitioned, gone — has its lease
expired: the handler abandons the connection, but the execution *runs to
completion* and the result is **retained** for ``retention_seconds``
keyed by job hash.  The reconnecting client's retry of the same job is
then a cheap dictionary lookup, not a re-simulation.

**Malformed input never kills the daemon.**  A request id that does not
match the job it carries is a typed ERROR, like every protocol violation
the daemon core answers; the other connections keep serving.

The daemon is **trusted-perimeter** infrastructure (payloads are pickled,
exactly like the process-pool boundary it generalizes): bind it to
loopback or a private cluster network, never the open internet.
"""

from __future__ import annotations

import argparse
import collections
import logging
import select
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.circuits.registry import get_circuit
from repro.simulation.daemon import Daemon, serve
from repro.simulation.ngspice import NgspiceError
from repro.simulation.protocol import (
    FrameType,
    ProtocolError,
    dumps_payload,
    loads_payload,
    recv_frame,
    send_frame,
)
from repro.simulation.service import (
    ShardedDispatcher,
    SimJob,
    SimulationBackend,
    available_backends,
    resolve_backend,
)
from repro.simulation.sharding import WorkerPool, can_shard

logger = logging.getLogger(__name__)

#: Default liveness parameters.  A lease outlives several missed
#: heartbeats (transient scheduling stalls must not expire a healthy
#: client); retention outlives a client-side reconnect + backoff cycle.
DEFAULT_LEASE_SECONDS = 10.0
DEFAULT_RETENTION_SECONDS = 60.0
DEFAULT_HEARTBEAT_INTERVAL = 0.5


class _LeaseExpired(Exception):
    """Internal: the client went silent past its lease."""


class _Execution:
    """One in-flight (or just-finished) evaluation of a job hash."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.metrics: Optional[Dict[str, np.ndarray]] = None
        self.error: Optional[BaseException] = None


class SimulationServer(Daemon):
    """A socket front end executing :class:`SimJob` s on a local backend.

    Parameters
    ----------
    backend:
        Registry name (or instance) of the terminal backend that actually
        simulates.  Resolved once at startup — an unknown name fails fast,
        before the listener opens.
    host / port:
        Bind address.  ``port=0`` (the test default) binds an ephemeral
        port; read :attr:`address` after :meth:`start`.
    workers:
        ``> 1`` stands up a warm :class:`WorkerPool` and shards big
        batches across it in equal-size work-stealing chunks, exactly
        like the in-process service would.  Like the service, a
        terminal backend that cannot shard (the vectorized ``batched``
        engine) gets no pool and evaluates in-process.
    lease_seconds / retention_seconds / heartbeat_interval:
        The liveness model described in the module docstring.
    retention_max_entries:
        Hard count bound on the retention store (LRU by deposit time).
        Time-based expiry alone lets a burst of expired-lease results
        grow memory without limit inside one retention window; with a
        bound, the oldest deposits are evicted first (counted in
        ``stats["retention_evictions"]``).  ``None`` = unbounded.
    """

    def __init__(
        self,
        backend: str = "batched",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        retention_seconds: float = DEFAULT_RETENTION_SECONDS,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        retention_max_entries: Optional[int] = None,
    ):
        super().__init__(
            host,
            port,
            counters=(
                "executions",
                "coalesced",
                "retention_hits",
                "lease_expiries",
                "requests",
                "retention_evictions",
            ),
        )
        self._terminal = resolve_backend(backend)
        self.workers = max(1, int(workers))
        self.lease_seconds = float(lease_seconds)
        self.connection_timeout = max(self.lease_seconds * 2.0, 5.0)
        self.retention_seconds = float(retention_seconds)
        self.heartbeat_interval = float(heartbeat_interval)
        self.retention_max_entries = (
            None if retention_max_entries is None else int(retention_max_entries)
        )
        if self.retention_max_entries is not None and self.retention_max_entries < 1:
            raise ValueError("retention_max_entries must be at least 1")

        self._pool: Optional[WorkerPool] = None
        self._engine: SimulationBackend = self._terminal
        if self.workers > 1 and can_shard(self._terminal):
            self._pool = WorkerPool(
                self.workers, backend_names=(self._terminal.name,)
            )
            self._engine = ShardedDispatcher(self._terminal, self._pool)

        self._executor: Optional[ThreadPoolExecutor] = None
        self._circuits: Dict[str, AnalogCircuit] = {}
        self._inflight: Dict[str, _Execution] = {}
        #: hash -> (metrics, expiry deadline); insertion-ordered so the
        #: sweep can stop at the first unexpired entry.
        self._retained: "collections.OrderedDict[str, Tuple[Dict[str, np.ndarray], float]]" = (
            collections.OrderedDict()
        )
        self.handlers = {
            FrameType.REQUEST: self._handle_request,
            # A stray heartbeat echo between requests is harmless.
            FrameType.HEARTBEAT: lambda sock, request_id, payload: True,
        }

    # ------------------------------------------------------------------
    # Daemon hooks
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.workers),
            thread_name_prefix="repro-serve-exec",
        )
        logger.info(
            "repro serve listening on %s (backend=%s, workers=%d)",
            self.endpoint,
            self._terminal.name,
            self.workers,
        )

    def _on_stop(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _in_flight(self) -> bool:
        return bool(self._inflight)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _handle_request(
        self, sock: socket.socket, request_id: bytes, payload: bytes
    ) -> bool:
        """Serve one REQUEST frame.  Returns False when the connection
        should not be reused (error sent, lease expired, or draining)."""
        self._count("requests")
        try:
            job = self._decode_job(request_id, payload)
        except ProtocolError as error:
            self._count("protocol_errors")
            self._reply_error(sock, request_id, "protocol", error)
            return False

        job_hash = request_id.hex()

        # Cheap path: a lease expired earlier but the work finished — the
        # retry pays a dictionary lookup, not a simulation.
        retained = self._retained_metrics(job_hash)
        if retained is not None:
            self._count("retention_hits")
            return self._send_result(sock, request_id, retained)

        execution, owner = self._attach_execution(job_hash)
        if owner:
            assert self._executor is not None
            self._executor.submit(self._execute, job_hash, job)
        else:
            self._count("coalesced")

        try:
            self._await_execution(sock, request_id, execution)
        except _LeaseExpired:
            self._count("lease_expiries")
            logger.warning(
                "lease expired for job %s; result will be retained",
                job_hash[:12],
            )
            return False
        except (OSError, ProtocolError):
            # Heartbeat send failed — client is gone.  Same story as an
            # expired lease: the execution finishes and is retained.
            return False

        if execution.error is not None:
            kind = (
                "engine"
                if isinstance(execution.error, NgspiceError)
                else "deployment"
            )
            self._reply_error(sock, request_id, kind, execution.error)
            return False
        assert execution.metrics is not None
        return self._send_result(sock, request_id, execution.metrics)

    def _send_result(
        self,
        sock: socket.socket,
        request_id: bytes,
        metrics: Dict[str, np.ndarray],
    ) -> bool:
        """Send the RESULT.  False ends the connection: the client is gone
        (retention already has the result), or the daemon is draining and
        answers the request a connection is inside but no further ones."""
        sent = self._reply(
            sock, FrameType.RESULT, request_id, dumps_payload(metrics)
        )
        return sent and not self._draining.is_set()

    # ------------------------------------------------------------------
    # Execution, coalescing, retention
    # ------------------------------------------------------------------
    def _decode_job(self, request_id: bytes, payload: bytes) -> SimJob:
        decoded = loads_payload(payload)
        if not isinstance(decoded, SimJob):
            raise ProtocolError(
                f"REQUEST payload must be a SimJob, got "
                f"{type(decoded).__name__}"
            )
        # Recompute the content hash from the job's actual payload (a
        # fresh instance drops any hash the client pickled along) and
        # cross-check the header: a mismatch means corruption or a
        # confused client, and executing under the wrong idempotency key
        # would poison coalescing and retention for everyone.
        import dataclasses

        recomputed = dataclasses.replace(decoded)
        if recomputed.job_id != request_id.hex():
            raise ProtocolError(
                f"request id {request_id.hex()[:12]} does not match the "
                f"job's content hash {recomputed.job_id[:12]}"
            )
        return recomputed

    def _attach_execution(self, job_hash: str) -> Tuple[_Execution, bool]:
        """The execution for this hash, creating it if absent.

        Returns ``(execution, owner)`` — the owner submits the actual
        work; everyone else just waits on the same event.
        """
        with self._lock:
            execution = self._inflight.get(job_hash)
            if execution is not None:
                return execution, False
            execution = _Execution()
            self._inflight[job_hash] = execution
            return execution, True

    def _execute(self, job_hash: str, job: SimJob) -> None:
        execution = self._inflight[job_hash]
        try:
            circuit = self._circuit(job.circuit_name)
            execution.metrics = self._engine.evaluate(circuit, job)
            self._count("executions")
        except BaseException as error:  # noqa: BLE001 - reported to client
            execution.error = error
        finally:
            with self._lock:
                self._inflight.pop(job_hash, None)
                if execution.metrics is not None:
                    self._sweep_retained_locked()
                    self._retained[job_hash] = (
                        execution.metrics,
                        time.monotonic() + self.retention_seconds,
                    )
                    # LRU count bound: deposits past the cap evict the
                    # oldest entries — a long-lived daemon's memory stays
                    # bounded even when a burst of expired-lease results
                    # lands inside one retention window.
                    while (
                        self.retention_max_entries is not None
                        and len(self._retained) > self.retention_max_entries
                    ):
                        self._retained.popitem(last=False)
                        self._count_locked("retention_evictions")
            execution.done.set()

    def _circuit(self, name: str) -> AnalogCircuit:
        with self._lock:
            circuit = self._circuits.get(name)
        if circuit is None:
            circuit = get_circuit(name)
            with self._lock:
                self._circuits.setdefault(name, circuit)
        return circuit

    def _retained_metrics(
        self, job_hash: str
    ) -> Optional[Dict[str, np.ndarray]]:
        with self._lock:
            self._sweep_retained_locked()
            entry = self._retained.get(job_hash)
            return entry[0] if entry is not None else None

    def _sweep_retained_locked(self) -> None:
        now = time.monotonic()
        while self._retained:
            job_hash, (_metrics, deadline) = next(iter(self._retained.items()))
            if deadline > now:
                break
            self._retained.popitem(last=False)

    def _await_execution(
        self, sock: socket.socket, request_id: bytes, execution: _Execution
    ) -> None:
        """Heartbeat the client while the job runs; enforce its lease."""
        lease_deadline = time.monotonic() + self.lease_seconds
        while not execution.done.wait(self.heartbeat_interval):
            # Drain client echoes without blocking: every frame received
            # renews the lease.
            while True:
                ready, _, _ = select.select([sock], [], [], 0)
                if not ready:
                    break
                kind, _rid, _payload = recv_frame(sock)
                lease_deadline = time.monotonic() + self.lease_seconds
                if kind not in (FrameType.HEARTBEAT, FrameType.PING):
                    raise ProtocolError(
                        f"unexpected {kind.name} frame while a job "
                        f"is executing"
                    )
            if time.monotonic() > lease_deadline:
                raise _LeaseExpired()
            send_frame(sock, FrameType.HEARTBEAT, request_id=request_id)


# ----------------------------------------------------------------------
# CLI entry point: ``python -m repro serve ...``
# ----------------------------------------------------------------------
def serve_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run a simulation daemon. --mode job (default): clients with "
            "--backend remote --endpoints HOST:PORT ship raw SimJobs "
            "here. --mode experiment: clients submit whole "
            "ExperimentConfigs (run_experiment(endpoint=...)) and the "
            "daemon drives them against a durable journal. "
            "Trusted-perimeter only — bind to loopback or a private "
            "network."
        ),
    )
    parser.add_argument(
        "--mode",
        default="job",
        choices=("job", "experiment"),
        help=(
            "job = raw SimJob executor (PR-7 fabric); experiment = "
            "journaled experiment front end (requires --journal-dir)"
        ),
    )
    parser.add_argument(
        "--backend",
        default="batched",
        choices=available_backends(),
        help="terminal backend that executes jobs (default: batched)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=7741,
        help="listen port (0 = ephemeral, printed at startup)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for sharding big batches; the vectorized "
            "batched engine runs in-process at any count (default: 1)"
        ),
    )
    parser.add_argument(
        "--lease-seconds", type=float, default=DEFAULT_LEASE_SECONDS
    )
    parser.add_argument(
        "--retention-seconds", type=float, default=DEFAULT_RETENTION_SECONDS
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
    )
    parser.add_argument(
        "--retention-max-entries",
        type=int,
        default=None,
        help=(
            "LRU count bound on the job-mode result-retention store "
            "(default: unbounded; expiry is then purely time-based)"
        ),
    )
    # Experiment-mode flags (rejected under --mode job).
    parser.add_argument(
        "--journal-dir",
        default=None,
        help=(
            "durable root for the experiment journal + checkpoints; "
            "required for --mode experiment (restart on the same "
            "directory to resume interrupted runs)"
        ),
    )
    parser.add_argument(
        "--run-workers",
        type=int,
        default=None,
        help="experiment runs executed concurrently (default: 1)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help=(
            "bound on accepted-but-unstarted experiment runs; "
            "submissions past it are shed with BUSY (default: 8)"
        ),
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help=(
            "per-tenant simulation cap gating experiment admission "
            "(default: unlimited)"
        ),
    )
    arguments = parser.parse_args(argv)
    experiment_options = {
        name: getattr(arguments, name)
        for name in ("journal_dir", "run_workers", "max_queue", "tenant_quota")
        if getattr(arguments, name) is not None
    }
    if arguments.mode == "job" and experiment_options:
        flags = ", ".join(
            "--" + name.replace("_", "-") for name in experiment_options
        )
        parser.error(f"{flags}: only valid with --mode experiment")
    if arguments.mode == "experiment" and arguments.journal_dir is None:
        parser.error("--mode experiment requires --journal-dir")

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s"
    )
    if arguments.mode == "experiment":
        from repro.simulation.frontend import ExperimentFrontend

        return serve(
            ExperimentFrontend(
                host=arguments.host, port=arguments.port, **experiment_options
            )
        )
    return serve(
        SimulationServer(
            backend=arguments.backend,
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            lease_seconds=arguments.lease_seconds,
            retention_seconds=arguments.retention_seconds,
            heartbeat_interval=arguments.heartbeat_interval,
            retention_max_entries=arguments.retention_max_entries,
        )
    )


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_RETENTION_SECONDS",
    "SimulationServer",
    "serve_main",
]
