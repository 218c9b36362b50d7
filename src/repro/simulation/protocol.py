"""Wire protocol of the remote simulation fabric.

One frame format carries every message between a :class:`~repro.simulation
.remote.RemoteBackend` client and a ``repro serve`` daemon
(:mod:`repro.simulation.server`).  The format is deliberately boring —
length-prefixed binary frames over a plain TCP stream — because boring is
what survives the failure modes a network transport must stay correct
under: connections dropping mid-frame, peers vanishing, bytes arriving
truncated or corrupted, and hostile garbage landing on the listening port.

Frame layout (network byte order)::

    magic      4 bytes   b"RSIM"
    version    u16       PROTOCOL_VERSION (peers reject mismatches)
    type       u8        FrameType value
    reserved   u8        zero (room for flags)
    length     u32       payload byte count (<= MAX_FRAME_BYTES)
    checksum   u32       zlib.crc32 of the payload
    request    32 bytes  the SimJob content hash (raw digest bytes) —
                         the request id that correlates every frame of
                         one evaluation, and the idempotency key that
                         makes at-least-once delivery safe
    payload    `length` bytes

Every malformed input — bad magic, unknown version, oversized length,
short read, checksum mismatch, an unpicklable payload — raises the *typed*
:class:`ProtocolError` (never a hang, never a partial result), which is
what the client's retry/breaker machinery and the server's per-connection
error handling key on.  The oversized-length check runs **before** any
allocation, so a garbage length field cannot balloon memory.

Payloads are pickled (jobs and metric blocks already cross the process
boundary by pickle for the worker pool).  That makes the fabric a
**trusted-perimeter** transport — same machine, same cluster, same user —
exactly like the multiprocessing pool it extends; do not expose a
``repro serve`` port to untrusted networks.

Chaos hooks: :func:`send_frame` consults the active network-fault plan
(:func:`repro.simulation.faults.active_network_chaos`) so CI can inject
dropped / delayed / truncated / duplicated frames deterministically —
seeded by request id and bounded by the same cross-process ticket
accounting the backend chaos harness uses.
"""

from __future__ import annotations

import enum
import io
import pickle
import socket
import struct
import zlib
from typing import Any, Optional, Tuple

MAGIC = b"RSIM"
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's payload (checked before allocation).  Job
#: and metrics payloads are kilobytes; even a pathological mega-batch fits
#: comfortably under this.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("!4sHBBII32s")
HEADER_BYTES = _HEADER.size

#: Request id carried by frames that do not belong to a job (PING/PONG).
NULL_REQUEST_ID = b"\x00" * 32


class FrameType(enum.IntEnum):
    """What one frame means."""

    #: client → server: evaluate the pickled :class:`SimJob` in the payload.
    REQUEST = 1
    #: server → client: the pickled ``{metric: (B,) array}`` block.
    RESULT = 2
    #: server → client: a typed failure (pickled ``{kind, message}``).
    ERROR = 3
    #: either direction: liveness.  The server emits one per poll interval
    #: while a job executes (so the client's activity timeout never fires
    #: on a long but healthy job); the client echoes each one back, which
    #: is what renews its server-side lease.
    HEARTBEAT = 4
    #: client → server: health probe (the circuit breaker's half-open
    #: probe uses this to test an endpoint without paying for a job).
    PING = 5
    #: server → client: probe response.
    PONG = 6
    # Older builds used types 7–10 for whole-run submission; a new frame
    # type must not reuse them, or an old peer would misread it.


class ProtocolError(RuntimeError):
    """A malformed, corrupted or truncated frame (either direction).

    The one typed error every protocol failure collapses to: clients
    count it against the endpoint's circuit breaker and retry or degrade;
    the server answers with an ERROR frame (when the stream still has
    integrity) or drops the connection — never crashes, never hangs.
    """


class ConnectionClosed(ProtocolError):
    """The peer closed the stream cleanly *between* frames.

    Still a :class:`ProtocolError` (callers that only care about "the
    stream is unusable" need not distinguish), but a server can treat it
    as a normal end-of-conversation rather than a corruption event.
    """


class RemoteError(RuntimeError):
    """A failure the *server* reported via an ERROR frame.

    ``kind`` mirrors :class:`~repro.simulation.service.FailureKind` values
    so the client can distinguish transient engine trouble (retry / fall
    back) from deployment errors (raise — a misconfigured fabric must not
    be silently papered over by the local fallback).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


def request_id_bytes(job_id: str) -> bytes:
    """The 32 raw digest bytes of a :attr:`SimJob.job_id` hex hash."""
    try:
        raw = bytes.fromhex(job_id)
    except ValueError:
        raise ProtocolError(f"malformed job id {job_id!r}") from None
    if len(raw) != 32:
        raise ProtocolError(f"job id must be 32 bytes, got {len(raw)}")
    return raw


def encode_frame(
    frame_type: int, payload: bytes = b"", request_id: bytes = NULL_REQUEST_ID
) -> bytes:
    """One complete wire frame for ``payload``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    if len(request_id) != 32:
        raise ProtocolError("request id must be exactly 32 bytes")
    header = _HEADER.pack(
        MAGIC,
        PROTOCOL_VERSION,
        int(frame_type),
        0,
        len(payload),
        zlib.crc32(payload) & 0xFFFFFFFF,
        request_id,
    )
    return header + payload


def _recv_exact(
    sock: socket.socket, count: int, at_boundary: bool = False
) -> bytes:
    """Exactly ``count`` bytes from the stream, or a typed error.

    EOF mid-read — the peer vanished or chaos truncated the frame — is a
    :class:`ProtocolError` (:class:`ConnectionClosed` when it lands on a
    frame boundary with ``at_boundary`` set: a clean goodbye, not
    corruption); a socket timeout propagates as the standard
    :class:`TimeoutError` so callers can treat "peer silent" differently
    from "peer sent garbage".
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and remaining == count:
                raise ConnectionClosed("peer closed the connection")
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[FrameType, bytes, bytes]:
    """Read one frame: ``(type, request_id, payload)``.

    Every integrity violation raises :class:`ProtocolError`; the stream
    should be considered unusable afterwards (framing is lost).
    """
    header = _recv_exact(sock, HEADER_BYTES, at_boundary=True)
    magic, version, frame_type, _reserved, length, checksum, request_id = (
        _HEADER.unpack(header)
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (not a repro fabric peer?)")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    try:
        kind = FrameType(frame_type)
    except ValueError:
        raise ProtocolError(f"unknown frame type {frame_type}") from None
    payload = _recv_exact(sock, length) if length else b""
    if (zlib.crc32(payload) & 0xFFFFFFFF) != checksum:
        raise ProtocolError("payload checksum mismatch (corrupt frame)")
    return kind, request_id, payload


def send_frame(
    sock: socket.socket,
    frame_type: int,
    payload: bytes = b"",
    request_id: bytes = NULL_REQUEST_ID,
) -> None:
    """Write one frame, applying any armed network-chaos plan.

    Chaos modes (see :class:`~repro.simulation.faults.NetworkFaultSchedule`):
    ``delay`` sleeps before an otherwise normal send; ``duplicate`` sends
    the frame twice (the receiver must cope — REQUEST duplicates coalesce
    on the job hash, late duplicate RESULTs land on a closed stream);
    ``drop`` aborts the connection without sending; ``truncate`` sends a
    partial frame then aborts.  Drop and truncate raise
    :class:`ProtocolError` on the *sender* too, mirroring what a real
    half-written ``sendall`` failure looks like.
    """
    frame = encode_frame(frame_type, payload, request_id)
    from repro.simulation.faults import active_network_chaos

    chaos = active_network_chaos()
    if chaos is not None:
        action = chaos.claim(request_id.hex())
        if action == "delay":
            import time

            time.sleep(chaos.schedule.delay_seconds)
        elif action == "duplicate":
            sock.sendall(frame)
        elif action == "drop":
            _abort_socket(sock)
            raise ProtocolError("chaos: frame dropped (connection aborted)")
        elif action == "truncate":
            try:
                sock.sendall(frame[: max(1, len(frame) // 2)])
            except OSError:
                pass
            _abort_socket(sock)
            raise ProtocolError("chaos: frame truncated (connection aborted)")
    sock.sendall(frame)


def _abort_socket(sock: socket.socket) -> None:
    """Hard-close a socket so the peer sees the stream die immediately.

    ``SO_LINGER`` with a zero timeout turns the close into a TCP RST —
    the closest a test can get to a yanked cable without a real one.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            struct.pack("ii", 1, 0),
        )
    except OSError:  # pragma: no cover - platform-dependent
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Payload (de)serialization
# ----------------------------------------------------------------------
def dumps_payload(value: Any) -> bytes:
    """Pickle one payload object for the wire."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def loads_payload(payload: bytes) -> Any:
    """Unpickle one payload, collapsing every failure to a typed error.

    ``pickle.loads`` on hostile bytes can raise nearly anything
    (``UnpicklingError``, ``EOFError``, ``AttributeError``, ``ValueError``,
    ``MemoryError`` on absurd allocations is pre-empted by the frame size
    cap); all of it means the same thing to the fabric — the peer sent
    something that is not a valid payload.
    """
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise ProtocolError(f"undecodable frame payload: {error}") from None


def dumps_error(kind: str, message: str) -> bytes:
    """The payload of an ERROR frame: a typed ``{kind, message}`` dict."""
    return dumps_payload({"kind": kind, "message": message})


def loads_error(payload: bytes) -> RemoteError:
    """Decode an ERROR frame payload into the :class:`RemoteError` sent."""
    decoded = loads_payload(payload)
    if not isinstance(decoded, dict):
        raise ProtocolError("malformed ERROR payload")
    return RemoteError(
        str(decoded.get("kind", "error")), str(decoded.get("message", ""))
    )


def loads_metrics(payload: bytes, batch: int, metric_names) -> dict:
    """Decode and *validate* a RESULT payload into a metrics block.

    The client refuses anything that is not exactly one finite-shape
    ``(batch,)`` float array per expected metric — a truncated or
    corrupted result can therefore never masquerade as a partial
    :class:`~repro.simulation.service.SimResult`; it is a
    :class:`ProtocolError` and the job re-runs elsewhere.
    """
    import numpy as np

    decoded = loads_payload(payload)
    if not isinstance(decoded, dict):
        raise ProtocolError(
            f"RESULT payload must be a metrics dict, got "
            f"{type(decoded).__name__}"
        )
    expected = set(metric_names)
    if set(decoded) != expected:
        raise ProtocolError(
            f"RESULT metrics {sorted(decoded)} do not match the circuit's "
            f"{sorted(expected)}"
        )
    metrics = {}
    for name, values in decoded.items():
        try:
            block = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"RESULT metric {name!r} is not a float array"
            ) from None
        if block.shape != (batch,):
            raise ProtocolError(
                f"RESULT metric {name!r} has shape {block.shape}, "
                f"expected ({batch},)"
            )
        metrics[name] = block
    return metrics


def read_frame_from_bytes(data: bytes) -> Tuple[FrameType, bytes, bytes]:
    """Parse one frame from an in-memory byte string (fuzz-test helper).

    Wraps the buffer in a minimal socket-shaped reader so the exact
    production code path — header parse, size cap, checksum — is what the
    fuzzer exercises.
    """

    class _Reader:
        def __init__(self, raw: bytes):
            self._stream = io.BytesIO(raw)

        def recv(self, count: int) -> bytes:
            return self._stream.read(count)

    return recv_frame(_Reader(data))  # type: ignore[arg-type]


__all__ = [
    "ConnectionClosed",
    "FrameType",
    "HEADER_BYTES",
    "MAGIC",
    "MAX_FRAME_BYTES",
    "NULL_REQUEST_ID",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteError",
    "dumps_error",
    "dumps_payload",
    "encode_frame",
    "loads_error",
    "loads_metrics",
    "loads_payload",
    "read_frame_from_bytes",
    "recv_frame",
    "request_id_bytes",
    "send_frame",
]
