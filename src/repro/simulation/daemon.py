"""The daemon core shared by both ``repro serve`` modes.

:class:`Daemon` owns the listener, the per-connection frame loop, the
``stats`` counters, the ERROR reply and the lifecycle (``start``,
``stop``, ``drain``, the signal-driven :func:`serve`).  Its subclasses —
:class:`~repro.simulation.server.SimulationServer` (``--mode job``) and
:class:`~repro.simulation.frontend.ExperimentFrontend`
(``--mode experiment``) — each supply a frame-handler table and their
own workers and state; where the modes behave differently, the handlers
decide.  A protocol violation on one connection is answered with a typed
``protocol`` ERROR frame when the stream still has integrity, or ends
that connection otherwise; the listener and other connections keep
serving.
"""

from __future__ import annotations

import logging
import signal
import socket
import threading
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.simulation.protocol import (
    NULL_REQUEST_ID,
    ConnectionClosed,
    FrameType,
    ProtocolError,
    dumps_error,
    recv_frame,
    send_frame,
)

logger = logging.getLogger(__name__)

#: Seconds ``drain`` gives handler threads, once in-flight work is done,
#: to flush final frames to clients before the sockets are torn down.
DRAIN_GRACE_SECONDS = 5.0


class Daemon:
    """Listener, connection loop and lifecycle of one serving daemon.

    ``host`` / ``port`` are the bind address (``port=0`` binds an
    ephemeral port; read :attr:`endpoint` after :meth:`start`).
    ``counters`` names the subclass's ``stats`` keys; every daemon also
    counts ``protocol_errors``.  :attr:`handlers` maps each frame kind
    the subclass serves to ``handler(sock, request_id, payload)``, which
    returns whether to keep reading the connection; PING is answered here.
    """

    #: Seconds a connection may stay silent before its thread is reclaimed.
    connection_timeout: float = 30.0
    #: Default seconds :meth:`drain` waits for in-flight work.
    drain_timeout: float = 30.0

    def __init__(self, host: str, port: int, counters: Sequence[str]):
        self.host = host
        self._requested_port = int(port)
        self.handlers: Dict[
            FrameType, Callable[[socket.socket, bytes, bytes], bool]
        ] = {}
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
            (*counters, "protocol_errors"), 0
        )

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        """Start the subclass's workers (the listener is already bound)."""

    def _on_stop(self) -> None:
        """Stop the subclass's workers (idempotent)."""

    def _in_flight(self) -> bool:
        """Whether accepted work is still running; called under ``_lock``."""
        return False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._listener is None:
            raise RuntimeError(f"{type(self).__name__} is not started")
        return self._listener.getsockname()[:2]

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def start(self) -> "Daemon":
        """Bind, listen, and serve connections on background threads."""
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(32)
        self._listener = listener
        self._on_start()
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
        self._on_stop()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: stop accepting, finish in-flight work, stop.

        New connections are refused the moment the listener closes; work
        already accepted runs to completion (up to ``timeout``, default
        :attr:`drain_timeout`) and its clients get a short grace to
        collect their final frames before the sockets are torn down.
        """
        self._draining.set()
        self._close_listener()
        if timeout is None:
            timeout = self.drain_timeout
        deadline = time.monotonic() + float(timeout)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._in_flight():
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

    def __enter__(self) -> "Daemon":
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
                    continue
                handler = self.handlers.get(kind)
                if handler is None:
                    self._count("protocol_errors")
                    self._reply_error(
                        sock,
                        request_id,
                        "protocol",
                        f"unexpected {kind.name} frame on a "
                        f"{type(self).__name__}",
                    )
                    return
                if not handler(sock, request_id, payload):
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


def serve(daemon: Daemon) -> int:
    """Run ``daemon`` in the foreground; SIGTERM/SIGINT drain it, exit 0.

    Prints ``repro serve listening on HOST:PORT`` once bound: scripts
    discover an ephemeral port (``--port 0``) from that line.  The signal
    handler only sets an event (request_drain is async-signal-safe);
    serve_forever notices it and drains on the main thread.  Installation
    is best-effort: signals only work on the main thread, and embedding
    callers still get drain via request_drain().
    """

    def _handle(signum, _frame):  # pragma: no cover - exercised in subprocess
        logger.info("received signal %d; draining", signum)
        daemon.request_drain()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _handle)
        except ValueError:  # not the main thread
            break
    daemon.start()
    print(f"repro serve listening on {daemon.endpoint}", flush=True)
    daemon.serve_forever()
    return 0


__all__ = ["Daemon", "serve"]
