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
side of the wire a job ran on.

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

**Malformed input never kills the daemon.**  A protocol violation on one
connection — garbage bytes, an unknown frame type, a request id that does
not match the job it carries — is answered with a typed ``protocol``
ERROR frame when the stream still has integrity, or ends that connection
otherwise; the listener and the other connections keep serving.

**Shutdown drains.**  SIGTERM/SIGINT stop the listener, let leased
executions finish and deliver (or retain) their results, then exit 0.

The daemon is **trusted-perimeter** infrastructure (payloads are pickled,
exactly like the process-pool boundary it generalizes): bind it to
loopback or a private cluster network, never the open internet.
"""

from __future__ import annotations

import argparse
import collections
import logging
import math
import select
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.circuits.registry import get_circuit
from repro.simulation.ngspice import NgspiceError
from repro.simulation.protocol import (
    NULL_REQUEST_ID,
    ConnectionClosed,
    FrameType,
    ProtocolError,
    dumps_error,
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

#: Seconds ``drain`` gives handler threads, once in-flight work is done,
#: to flush final frames to clients before the sockets are torn down.
DRAIN_GRACE_SECONDS = 5.0


class _LeaseExpired(Exception):
    """Internal: the client went silent past its lease."""


class _Execution:
    """One in-flight (or just-finished) evaluation of a job hash."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.metrics: Optional[Dict[str, np.ndarray]] = None
        self.error: Optional[BaseException] = None


class SimulationServer:
    """A socket daemon executing :class:`SimJob` s on a local backend.

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
        The liveness model described in the module docstring.  The lease
        and the heartbeat must be finite and positive (a zero heartbeat
        would send HEARTBEAT frames back to back while a job runs, and a
        NaN lease never expires); retention must be finite and may be 0.
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
        self.lease_seconds = float(lease_seconds)
        self.retention_seconds = float(retention_seconds)
        self.heartbeat_interval = float(heartbeat_interval)
        for name in ("lease_seconds", "heartbeat_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (
            math.isfinite(self.retention_seconds) and self.retention_seconds >= 0
        ):
            raise ValueError(
                f"retention_seconds must be finite and >= 0, got "
                f"{self.retention_seconds}"
            )
        self.retention_max_entries = (
            None if retention_max_entries is None else int(retention_max_entries)
        )
        if self.retention_max_entries is not None and self.retention_max_entries < 1:
            raise ValueError("retention_max_entries must be at least 1")
        #: Seconds a connection may stay silent before its thread is
        #: reclaimed.
        self.connection_timeout = max(self.lease_seconds * 2.0, 5.0)

        self.host = host
        self._requested_port = int(port)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._drain_requested = threading.Event()
        #: Live accepted sockets.  stop() must close these too: a handler
        #: thread blocked in recv keeps an ESTABLISHED socket on our port,
        #: which blocks a successor daemon's bind (SO_REUSEADDR only
        #: clears TIME_WAIT) — a restart would fail for up to the idle
        #: timeout.
        self._connections: set = set()
        self._lock = threading.Lock()
        #: Event counters (tests and operators read these).
        self.stats: Dict[str, int] = dict.fromkeys(
            (
                "executions",
                "coalesced",
                "retention_hits",
                "lease_expiries",
                "requests",
                "retention_evictions",
                "protocol_errors",
            ),
            0,
        )

        self._terminal = resolve_backend(backend)
        self.workers = max(1, int(workers))
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

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._listener is None:
            raise RuntimeError("SimulationServer is not started")
        return self._listener.getsockname()[:2]

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "SimulationServer":
        """Bind, listen, and serve connections on background threads."""
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(32)
        self._listener = listener
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
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def _close_listener(self) -> None:
        """Stop accepting: close the listening socket, join its thread."""
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() before close(): a close alone does not wake a
            # thread blocked in accept() — the in-progress syscall keeps
            # the kernel file referenced, leaving the port in LISTEN and
            # failing a successor's bind until the thread dies.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def stop(self) -> None:
        """Idempotent hard shutdown (no drain: use :meth:`drain` for that)."""
        self._stopping.set()
        self._close_listener()
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work, stop.

        New connections are refused the moment the listener closes;
        executions already accepted run to completion (up to ``timeout``
        seconds) and their clients get a short grace to collect their
        final frames before the sockets are torn down.
        """
        self._draining.set()
        self._close_listener()
        deadline = time.monotonic() + float(timeout)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            time.sleep(0.05)
        grace = min(deadline, time.monotonic() + DRAIN_GRACE_SECONDS)
        while time.monotonic() < grace:
            with self._lock:
                if not self._connections:
                    break
            time.sleep(0.05)
        self.stop()

    def request_drain(self) -> None:
        """Signal-handler-safe drain trigger (consumed by serve_forever).

        Handlers must not block; the actual drain — joins, sleeps, socket
        teardown — runs on the main loop's thread.
        """
        self._drain_requested.set()

    def serve_forever(self) -> None:
        """Block until stopped or a requested (or interrupted) drain ends."""
        self.start()
        try:
            while not self._stopping.is_set():
                if self._drain_requested.is_set():
                    self.drain()
                    break
                time.sleep(0.2)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            self.drain()
        finally:
            self.stop()

    def __enter__(self) -> "SimulationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Accept / connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set() and listener is not None:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed — shutdown or drain
            with self._lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._handle_connection,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            thread.start()

    def _handle_connection(self, sock: socket.socket) -> None:
        """Serve one client connection until it closes or misbehaves."""
        try:
            sock.settimeout(self.connection_timeout)
            while not self._stopping.is_set():
                try:
                    kind, request_id, payload = recv_frame(sock)
                except ConnectionClosed:
                    return  # clean goodbye
                except ProtocolError as error:
                    self._count("protocol_errors")
                    logger.warning("protocol error from client: %s", error)
                    self._reply_error(sock, NULL_REQUEST_ID, "protocol", error)
                    return  # framing lost — the stream is unusable
                except (TimeoutError, socket.timeout):
                    return  # idle client gone silent; reclaim the thread
                if kind == FrameType.PING:
                    send_frame(sock, FrameType.PONG)
                elif kind == FrameType.REQUEST:
                    if not self._handle_request(sock, request_id, payload):
                        return
                elif kind != FrameType.HEARTBEAT:
                    # A stray heartbeat echo between requests is harmless;
                    # anything else a client sends is a protocol error.
                    self._count("protocol_errors")
                    self._reply_error(
                        sock,
                        request_id,
                        "protocol",
                        f"unexpected {kind.name} frame on a SimulationServer",
                    )
                    return
        except (OSError, ProtocolError):
            # The client vanished mid-reply (or chaos aborted the socket):
            # nothing left to say to it; its work finishes regardless.
            return
        finally:
            with self._lock:
                self._connections.discard(sock)
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

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

    # ------------------------------------------------------------------
    # Replies and counters
    # ------------------------------------------------------------------
    def _reply(
        self,
        sock: socket.socket,
        kind: FrameType,
        request_id: bytes,
        payload: bytes = b"",
    ) -> bool:
        """Send one frame; False when the client is gone."""
        try:
            send_frame(sock, kind, payload, request_id=request_id)
            return True
        except (OSError, ProtocolError):
            return False

    def _reply_error(
        self, sock: socket.socket, request_id: bytes, kind: str, error: object
    ) -> bool:
        """Send a typed ERROR frame; False when the client is gone."""
        return self._reply(
            sock, FrameType.ERROR, request_id, dumps_error(kind, str(error))
        )

    def _count(self, key: str) -> None:
        with self._lock:
            self._count_locked(key)

    def _count_locked(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1


# ----------------------------------------------------------------------
# CLI entry point: ``python -m repro serve ...``
# ----------------------------------------------------------------------
def serve_main(argv=None) -> int:
    """Run a :class:`SimulationServer` in the foreground; exit 0 on drain.

    Prints ``repro serve listening on HOST:PORT`` once bound: scripts
    discover an ephemeral port (``--port 0``) from that line.  SIGTERM and
    SIGINT only set an event (:meth:`SimulationServer.request_drain` is
    async-signal-safe); ``serve_forever`` notices it and drains on the
    main thread.  Installing the handlers is best-effort: signals only
    work on the main thread.
    """
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run a simulation worker daemon: sizing runs started with "
            "--backend remote --endpoints HOST:PORT ship their SimJobs "
            "here and get back exactly the metrics the backend would "
            "produce in-process. Trusted-perimeter only — bind to "
            "loopback or a private network."
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
            "LRU count bound on the result-retention store (default: "
            "unbounded; expiry is then purely time-based)"
        ),
    )
    arguments = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s"
    )
    try:
        server = SimulationServer(
            backend=arguments.backend,
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            lease_seconds=arguments.lease_seconds,
            retention_seconds=arguments.retention_seconds,
            heartbeat_interval=arguments.heartbeat_interval,
            retention_max_entries=arguments.retention_max_entries,
        )
    except ValueError as error:
        parser.error(str(error))

    def _handle(signum, _frame):  # pragma: no cover - exercised in subprocess
        logger.info("received signal %d; draining", signum)
        server.request_drain()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _handle)
        except ValueError:  # not the main thread
            break
    server.start()
    print(f"repro serve listening on {server.endpoint}", flush=True)
    server.serve_forever()
    return 0


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_RETENTION_SECONDS",
    "SimulationServer",
    "serve_main",
]
