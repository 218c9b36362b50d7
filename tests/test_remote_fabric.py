"""Tests of the remote simulation fabric (PR 7).

Covers, roughly client-outward:

* the frame protocol — round trips, and a fuzz battery proving every
  malformed input (truncated, garbage, oversized, wrong-version,
  corrupted) dies with a clean typed :class:`ProtocolError`, never a
  hang or a partial result, on both the client and server side;
* the ``repro serve`` daemon — bit-identical execution, duplicate
  coalescing, lease expiry with result retention (time- and
  count-bounded), surviving hostile connections (an older build's
  whole-run frames included), rebinding its port right after a stop,
  draining in-flight work, SIGTERM and SIGINT exiting 0, and refusing
  bad liveness settings and the retired experiment-mode flags before it
  binds;
* the ``RemoteBackend`` client — endpoint parsing, circuit breakers
  (open / half-open / recovery), retries under injected network chaos
  (drop / delay / truncate / duplicate frames), and graceful
  degradation to the local fallback;
* the end-to-end acceptance property: a seeded sizing run over the
  fabric — including one whose server is killed mid-run while frames
  drop — produces bit-identical reports to the in-process backend;
* chaos-harness hygiene: ``FaultSchedule.disarm()`` and the
  ``repro cache`` CLI's zero-exit behaviour on missing stores.

A ``stress``-marked soak (excluded from tier-1) hammers the fabric with
probabilistic chaos across many jobs.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.circuits.registry import get_circuit
from repro.simulation.faults import (
    FaultSchedule,
    NetworkFaultSchedule,
    install_network_chaos,
)
from repro.simulation.ngspice import NgspiceError
from repro.simulation.protocol import (
    ConnectionClosed,
    FrameType,
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    dumps_payload,
    encode_frame,
    loads_metrics,
    loads_payload,
    read_frame_from_bytes,
    recv_frame,
    request_id_bytes,
    send_frame,
)
from repro.simulation.remote import (
    ACTIVITY_TIMEOUT_ENV,
    ATTEMPTS_ENV,
    BREAKER_RESET_ENV,
    BREAKER_THRESHOLD_ENV,
    CONNECT_TIMEOUT_ENV,
    ENDPOINTS_ENV,
    CircuitBreaker,
    RemoteBackend,
    parse_endpoints,
)
from repro.simulation.server import SimulationServer, serve_main
from repro.simulation.service import (
    BACKENDS,
    SimulationBackend,
    SimulationService,
    resolve_backend,
)
from repro.simulation.sharding import can_shard, shardable

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def assert_metrics_equal(circuit, metrics, reference):
    for name in circuit.metric_names:
        np.testing.assert_array_equal(metrics[name], reference[name])


class _SleepyBackend(SimulationBackend):
    """Terminal backend that sleeps before delegating — long enough for
    heartbeat/lease machinery to engage, short enough for tests."""

    name = "sleepytest"
    sleep_seconds = 0.8

    def __init__(self):
        self.inner = resolve_backend("batched")

    def evaluate(self, circuit, job):
        time.sleep(self.sleep_seconds)
        return self.inner.evaluate(circuit, job)


class _BoomBackend(SimulationBackend):
    """Terminal backend whose every evaluation is a deployment error."""

    name = "boomtest"

    def evaluate(self, circuit, job):
        raise RuntimeError("boom: misconfigured server backend")


class _EngineFailBackend(SimulationBackend):
    """Terminal backend whose every evaluation is a simulator failure."""

    name = "enginefailtest"

    def evaluate(self, circuit, job):
        raise NgspiceError("simulator exited with status 1")


_TEST_BACKENDS = (_SleepyBackend, _BoomBackend, _EngineFailBackend)


@pytest.fixture()
def test_backends():
    """Register the test-only terminal backends for the fixture's scope."""
    for backend in _TEST_BACKENDS:
        BACKENDS[backend.name] = backend
    yield
    for backend in _TEST_BACKENDS:
        BACKENDS.pop(backend.name, None)


@pytest.fixture(autouse=True)
def no_leaked_network_chaos():
    """Every test leaves the process without an armed network plan."""
    yield
    install_network_chaos(None)


@pytest.fixture()
def server():
    with SimulationServer(heartbeat_interval=0.1) as srv:
        yield srv


def remote_for(server, **kwargs):
    kwargs.setdefault("attempts", 3)
    kwargs.setdefault("connect_timeout", 1.0)
    kwargs.setdefault("activity_timeout", 5.0)
    return RemoteBackend(endpoints=server.endpoint, **kwargs)


# ----------------------------------------------------------------------
# Frame protocol: round trips
# ----------------------------------------------------------------------
class TestProtocolRoundTrip:
    def test_frame_round_trip(self):
        request_id = bytes(range(32))
        payload = dumps_payload({"hello": [1.0, 2.0]})
        frame = encode_frame(FrameType.RESULT, payload, request_id)
        kind, rid, body = read_frame_from_bytes(frame)
        assert kind == FrameType.RESULT
        assert rid == request_id
        assert body == payload

    def test_empty_payload_frame(self):
        frame = encode_frame(FrameType.HEARTBEAT)
        kind, rid, body = read_frame_from_bytes(frame)
        assert kind == FrameType.HEARTBEAT
        assert body == b""

    # Clients and daemons of different builds talk to each other as long
    # as they agree on these six values.
    @pytest.mark.parametrize(
        "name, value",
        [
            ("REQUEST", 1),
            ("RESULT", 2),
            ("ERROR", 3),
            ("HEARTBEAT", 4),
            ("PING", 5),
            ("PONG", 6),
        ],
    )
    def test_job_frame_types_keep_their_wire_values(self, name, value):
        frame_type = FrameType[name]
        assert int(frame_type) == value
        request_id = bytes(range(32))
        frame = encode_frame(frame_type, b"body", request_id)
        assert frame[6] == value  # the header's frame-type byte
        assert read_frame_from_bytes(frame) == (frame_type, request_id, b"body")

    def test_retired_run_frame_types_stay_unassigned(self):
        assert {7, 8, 9, 10}.isdisjoint(int(kind) for kind in FrameType)

    def test_request_id_bytes_round_trip(self, strongarm, conditions_job):
        job = conditions_job(strongarm, rows=8)
        assert request_id_bytes(job.job_id).hex() == job.job_id

    def test_request_id_bytes_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            request_id_bytes("not-hex")
        with pytest.raises(ProtocolError):
            request_id_bytes("abcd")  # wrong length

    def test_bad_request_id_length_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="32 bytes"):
            encode_frame(FrameType.RESULT, b"x" * 10, b"y" * 31)

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="frame limit"):
            encode_frame(FrameType.RESULT, bytes(MAX_FRAME_BYTES + 1))

    def test_oversized_declared_length_refused_before_allocation(self):
        # Hand-craft a header whose length field claims 2 GiB; the parser
        # must die on the declared length, never attempt the read.
        header = struct.pack(
            "!4sHBBII32s",
            MAGIC,
            PROTOCOL_VERSION,
            int(FrameType.RESULT),
            0,
            2**31,
            0,
            b"\x00" * 32,
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            read_frame_from_bytes(header)


# ----------------------------------------------------------------------
# Frame protocol: fuzz battery (satellite: protocol robustness)
# ----------------------------------------------------------------------
class TestProtocolFuzz:
    def _valid_frame(self):
        payload = dumps_payload({"metric": np.arange(4.0)})
        return encode_frame(FrameType.RESULT, payload, b"\x07" * 32)

    def test_every_truncation_is_a_typed_error(self):
        frame = self._valid_frame()
        for cut in range(len(frame)):
            with pytest.raises(ProtocolError):
                read_frame_from_bytes(frame[:cut])

    def test_garbage_bytes_are_typed_errors(self):
        rng = np.random.default_rng(1234)
        for size in (1, 7, HEADER_BYTES, HEADER_BYTES + 13, 500):
            garbage = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            with pytest.raises(ProtocolError):
                read_frame_from_bytes(garbage)

    def test_wrong_magic(self):
        frame = bytearray(self._valid_frame())
        frame[:4] = b"HTTP"
        with pytest.raises(ProtocolError, match="magic"):
            read_frame_from_bytes(bytes(frame))

    def test_wrong_version(self):
        payload = b""
        header = struct.pack(
            "!4sHBBII32s",
            MAGIC,
            PROTOCOL_VERSION + 1,
            int(FrameType.HEARTBEAT),
            0,
            0,
            0,
            b"\x00" * 32,
        )
        with pytest.raises(ProtocolError, match="version"):
            read_frame_from_bytes(header + payload)

    # 7-10 were an older build's whole-run submission frames: a frame
    # from such a client is refused like any other unknown type.
    @pytest.mark.parametrize("frame_type", [7, 8, 9, 10, 250])
    def test_unknown_frame_type(self, frame_type):
        header = struct.pack(
            "!4sHBBII32s",
            MAGIC,
            PROTOCOL_VERSION,
            frame_type,
            0,
            0,
            0,
            b"\x00" * 32,
        )
        with pytest.raises(ProtocolError, match="frame type"):
            read_frame_from_bytes(header)

    def test_corrupted_payload_fails_checksum(self):
        frame = bytearray(self._valid_frame())
        frame[-1] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            read_frame_from_bytes(bytes(frame))

    def test_undecodable_payload_is_typed(self):
        frame = encode_frame(FrameType.RESULT, b"\x80\x04notpickle")
        _kind, _rid, payload = read_frame_from_bytes(frame)
        with pytest.raises(ProtocolError, match="undecodable"):
            loads_metrics(payload, 4, ("metric",))

    def test_result_validation_never_yields_partial_blocks(self, strongarm):
        batch = 4
        names = strongarm.metric_names
        good = {
            name: np.zeros(batch) for name in names
        }
        # Missing metric
        partial = dict(good)
        partial.pop(names[0])
        with pytest.raises(ProtocolError, match="do not match"):
            loads_metrics(dumps_payload(partial), batch, names)
        # Wrong shape
        short = dict(good)
        short[names[0]] = np.zeros(batch - 1)
        with pytest.raises(ProtocolError, match="shape"):
            loads_metrics(dumps_payload(short), batch, names)
        # Not a dict at all
        with pytest.raises(ProtocolError, match="metrics dict"):
            loads_metrics(dumps_payload([1, 2, 3]), batch, names)

    def test_result_with_a_timing_key_is_refused(self, strongarm):
        """A RESULT holds the circuit's metrics and nothing else: a
        ``__``-prefixed key beside them is a mismatch, not a key to drop."""
        batch = 4
        names = strongarm.metric_names
        block = {name: np.zeros(batch) for name in names}
        block["__row_seconds__"] = np.full(batch, 0.5)
        with pytest.raises(ProtocolError, match="do not match"):
            loads_metrics(dumps_payload(block), batch, names)

    def test_empty_stream_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            read_frame_from_bytes(b"")


# ----------------------------------------------------------------------
# Endpoint parsing and circuit breaker units
# ----------------------------------------------------------------------
class TestParseEndpoints:
    def test_parses_comma_separated(self):
        assert parse_endpoints("a:1,b:2, c:3 ,") == (
            ("a", 1),
            ("b", 2),
            ("c", 3),
        )

    def test_parses_sequence(self):
        assert parse_endpoints(["host:7741"]) == (("host", 7741),)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_endpoints("nonsense")
        with pytest.raises(ValueError):
            parse_endpoints("host:notaport")


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker(3, 5.0, clock=lambda: clock[0])
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allows()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allows()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(2, 5.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_and_recovery(self):
        clock = [0.0]
        breaker = CircuitBreaker(1, 5.0, clock=lambda: clock[0])
        breaker.record_failure()
        assert not breaker.allows()
        clock[0] = 5.1
        assert breaker.allows()  # the single half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allows()  # no second concurrent probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allows()

    def test_failed_probe_reopens_for_a_full_reset(self):
        clock = [0.0]
        breaker = CircuitBreaker(1, 5.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 5.1
        assert breaker.allows()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        clock[0] = 10.0
        assert not breaker.allows()  # not yet a full reset after reopen
        clock[0] = 10.3
        assert breaker.allows()


# ----------------------------------------------------------------------
# Server behaviour
# ----------------------------------------------------------------------
class TestServer:
    def test_round_trip_bit_identical(self, strongarm, server, conditions_job):
        job = conditions_job(strongarm, rows=8)
        remote = remote_for(server)
        reference = resolve_backend("batched").evaluate(strongarm, job)
        assert_metrics_equal(
            strongarm, remote.evaluate(strongarm, job), reference
        )
        assert remote.remote_evaluations == 1
        assert remote.fallback_used == 0

    def test_repeat_submission_hits_retention(self, strongarm, server, conditions_job):
        job = conditions_job(strongarm, rows=8)
        remote = remote_for(server)
        first = remote.evaluate(strongarm, job)
        second = remote.evaluate(strongarm, job)
        assert_metrics_equal(strongarm, second, first)
        assert server.stats["executions"] == 1
        assert server.stats["retention_hits"] == 1

    def test_ping(self, server):
        remote = remote_for(server)
        assert remote.ping(server.address)

    def test_concurrent_duplicates_coalesce(
        self, strongarm, test_backends, conditions_job
    ):
        with SimulationServer(
            backend="sleepytest", heartbeat_interval=0.1
        ) as server:
            job = conditions_job(strongarm, rows=8)
            results = [None, None]

            def submit(slot):
                remote = remote_for(server)
                results[slot] = remote.evaluate(strongarm, job)

            threads = [
                threading.Thread(target=submit, args=(slot,))
                for slot in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert server.stats["executions"] == 1
            assert server.stats["coalesced"] == 1
            assert_metrics_equal(strongarm, results[0], results[1])

    def test_lease_expires_for_silent_client_and_result_is_retained(
        self, strongarm, test_backends, conditions_job
    ):
        with SimulationServer(
            backend="sleepytest",
            heartbeat_interval=0.05,
            lease_seconds=0.3,
        ) as server:
            job = conditions_job(strongarm, rows=8)
            # A hand-rolled client that submits, then never echoes a
            # heartbeat — the signature of a client that froze.
            sock = socket.create_connection(server.address, timeout=5.0)
            sock.sendall(
                encode_frame(
                    FrameType.REQUEST,
                    dumps_payload(job),
                    request_id_bytes(job.job_id),
                )
            )
            deadline = time.monotonic() + 10.0
            while (
                server.stats["lease_expiries"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            sock.close()
            assert server.stats["lease_expiries"] == 1
            # The abandoned execution still completes and is retained:
            # the reconnecting retry is a lookup, not a re-simulation.
            deadline = time.monotonic() + 10.0
            while not server._retained and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server._retained
            remote = remote_for(server)
            reference = resolve_backend("batched").evaluate(strongarm, job)
            assert_metrics_equal(
                strongarm, remote.evaluate(strongarm, job), reference
            )
            assert server.stats["executions"] == 1
            assert server.stats["retention_hits"] == 1

    def test_survives_garbage_and_keeps_serving(
        self, strongarm, server, conditions_job
    ):
        sock = socket.create_connection(server.address, timeout=5.0)
        sock.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
        sock.close()
        deadline = time.monotonic() + 5.0
        while (
            server.stats["protocol_errors"] == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert server.stats["protocol_errors"] >= 1
        # The daemon shrugged it off: real traffic still works.
        job = conditions_job(strongarm, rows=8)
        remote = remote_for(server)
        reference = resolve_backend("batched").evaluate(strongarm, job)
        assert_metrics_equal(
            strongarm, remote.evaluate(strongarm, job), reference
        )

    def test_mismatched_request_id_is_rejected(self, strongarm, server, conditions_job):
        job = conditions_job(strongarm, rows=8)
        sock = socket.create_connection(server.address, timeout=5.0)
        try:
            sock.sendall(
                encode_frame(
                    FrameType.REQUEST, dumps_payload(job), b"\x42" * 32
                )
            )
            kind, _rid, payload = recv_frame(sock)
            assert kind == FrameType.ERROR
            detail = loads_payload(payload)
            assert detail["kind"] == "protocol"
            assert "content hash" in detail["message"]
        finally:
            sock.close()
        assert server.stats["executions"] == 0

    def test_server_deployment_error_raises_client_side(
        self, strongarm, test_backends, conditions_job
    ):
        with SimulationServer(
            backend="boomtest", heartbeat_interval=0.1
        ) as server:
            remote = remote_for(server, attempts=1)
            with pytest.raises(RemoteError) as excinfo:
                remote.evaluate(strongarm, conditions_job(strongarm, rows=8))
            assert excinfo.value.kind == "deployment"
            assert remote.fallback_used == 0

    def test_server_engine_error_degrades_client_side(
        self, strongarm, test_backends, conditions_job
    ):
        """A simulator failure on the daemon is an ``engine`` ERROR: unlike
        a deployment error, the client degrades to its local fallback."""
        with SimulationServer(
            backend="enginefailtest", heartbeat_interval=0.1
        ) as server:
            remote = remote_for(server, attempts=1)
            job = conditions_job(strongarm, rows=8)
            reference = resolve_backend("batched").evaluate(strongarm, job)
            assert_metrics_equal(
                strongarm, remote.evaluate(strongarm, job), reference
            )
            assert remote.fallback_used == 1
            assert remote.remote_evaluations == 0
            assert server.stats["executions"] == 0

    def test_concurrent_distinct_jobs_all_complete(
        self, strongarm, test_backends, conditions_job
    ):
        """Clients with different jobs in flight at once each get their
        own result: none is coalesced with another, lost or degraded."""
        with SimulationServer(
            backend="sleepytest", heartbeat_interval=0.1
        ) as server:
            jobs = [
                conditions_job(strongarm, rows=4, seed=seed)
                for seed in (1, 2, 3)
            ]
            outcomes = {}

            def submit(job):
                remote = remote_for(server)
                metrics = remote.evaluate(strongarm, job)
                outcomes[job.job_id] = (metrics, remote.fallback_used)

            threads = [
                threading.Thread(target=submit, args=(job,)) for job in jobs
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert server.stats["executions"] == 3
            assert server.stats["coalesced"] == 0
            for job in jobs:
                metrics, fallback_used = outcomes[job.job_id]
                assert fallback_used == 0
                assert_metrics_equal(
                    strongarm,
                    metrics,
                    resolve_backend("batched").evaluate(strongarm, job),
                )

    # 7-10 were an older build's whole-run frames: such a client reaching
    # a job daemon gets a typed answer, not a hang or a dropped socket.
    @pytest.mark.parametrize("frame_type", [7, 8, 9, 10])
    def test_retired_run_frame_gets_a_protocol_error(self, server, frame_type):
        header = struct.pack(
            "!4sHBBII32s",
            MAGIC,
            PROTOCOL_VERSION,
            frame_type,
            0,
            0,
            0,
            b"\x00" * 32,
        )
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(header)
            kind, _rid, payload = recv_frame(sock)
        assert kind == FrameType.ERROR
        detail = loads_payload(payload)
        assert detail["kind"] == "protocol"
        assert f"unknown frame type {frame_type}" in detail["message"]
        assert server.stats["protocol_errors"] == 1
        assert remote_for(server).ping(server.address)

    @pytest.mark.parametrize(
        "frame_type", [FrameType.RESULT, FrameType.ERROR, FrameType.PONG]
    )
    def test_client_bound_frame_from_a_client_is_refused(
        self, server, frame_type
    ):
        request_id = b"\x09" * 32
        with socket.create_connection(server.address, timeout=5.0) as sock:
            send_frame(sock, frame_type, request_id=request_id)
            kind, rid, payload = recv_frame(sock)
            # The daemon answered, then ended the connection.
            with pytest.raises(ConnectionClosed):
                recv_frame(sock)
        assert kind == FrameType.ERROR
        assert rid == request_id
        detail = loads_payload(payload)
        assert detail["kind"] == "protocol"
        assert f"unexpected {frame_type.name} frame" in detail["message"]
        assert server.stats["protocol_errors"] == 1

    def test_stray_heartbeat_between_requests_is_ignored(self, server):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            for _ in range(2):
                send_frame(sock, FrameType.HEARTBEAT)
                send_frame(sock, FrameType.PING)
                assert recv_frame(sock)[0] == FrameType.PONG
        assert server.stats["protocol_errors"] == 0

    def test_zero_retention_re_executes_a_repeat(
        self, strongarm, conditions_job
    ):
        with SimulationServer(
            heartbeat_interval=0.1, retention_seconds=0.0
        ) as server:
            job = conditions_job(strongarm, rows=8)
            remote = remote_for(server)
            first = remote.evaluate(strongarm, job)
            assert_metrics_equal(
                strongarm, remote.evaluate(strongarm, job), first
            )
            assert server.stats["executions"] == 2
            assert server.stats["retention_hits"] == 0

    def test_garbage_is_counted_and_ping_still_answers(self, server):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n" + b"X" * 64)
            kind, _rid, payload = recv_frame(sock)
        assert kind == FrameType.ERROR
        assert loads_payload(payload)["kind"] == "protocol"
        assert server.stats["protocol_errors"] == 1
        with socket.create_connection(server.address, timeout=5.0) as sock:
            send_frame(sock, FrameType.PING)
            kind, _rid, _payload = recv_frame(sock)
        assert kind == FrameType.PONG

    def test_successor_binds_the_port_right_after_stop(self):
        first = SimulationServer(heartbeat_interval=0.1).start()
        host, port = first.address
        # A live client connection across the stop must not hold the port.
        idle = socket.create_connection((host, port), timeout=5.0)
        try:
            send_frame(idle, FrameType.PING)
            assert recv_frame(idle)[0] == FrameType.PONG
            first.stop()
            successor = SimulationServer(
                port=port, heartbeat_interval=0.1
            ).start()
            try:
                with socket.create_connection((host, port), timeout=5.0) as probe:
                    send_frame(probe, FrameType.PING)
                    assert recv_frame(probe)[0] == FrameType.PONG
            finally:
                successor.stop()
        finally:
            idle.close()


class TestRetentionBound:
    def test_lru_eviction_by_deposit_time(self, strongarm, conditions_job):
        with SimulationServer(
            heartbeat_interval=0.1,
            retention_seconds=600.0,
            retention_max_entries=2,
        ) as server:
            backend = RemoteBackend(endpoints=server.endpoint, attempts=2)
            jobs = [conditions_job(strongarm, rows=4, seed=seed) for seed in (1, 2, 3)]
            for job in jobs:
                backend.evaluate(strongarm, job)
            assert server.stats["executions"] == 3
            assert backend.fallback_used == 0
            with server._lock:
                retained = list(server._retained)
            # Oldest deposit evicted, newest two kept, eviction counted.
            assert retained == [jobs[1].job_id, jobs[2].job_id]
            assert server.stats["retention_evictions"] == 1

    @pytest.mark.parametrize(
        "option, value",
        [
            ("retention_max_entries", 0),
            ("heartbeat_interval", 0.0),
            ("heartbeat_interval", -0.5),
            ("heartbeat_interval", float("nan")),
            ("lease_seconds", 0.0),
            ("lease_seconds", float("nan")),
            ("lease_seconds", float("inf")),
            ("retention_seconds", -1.0),
            ("retention_seconds", float("nan")),
            ("retention_seconds", float("inf")),
        ],
    )
    def test_rejects_nonpositive_bound(self, option, value):
        """Refused by the constructor, and so by ``repro serve`` with a
        usage error (exit 2) before it binds."""
        with pytest.raises(ValueError, match=option):
            SimulationServer(**{option: value})
        flag = "--" + option.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            serve_main([flag, str(value), "--port", "0"])
        assert exit_info.value.code == 2

    # The smallest and largest settings the tests and the docs use.
    @pytest.mark.parametrize(
        "option, value",
        [
            ("heartbeat_interval", 0.05),
            ("heartbeat_interval", 0.5),
            ("lease_seconds", 0.3),
            ("retention_seconds", 0.0),
            ("retention_max_entries", 1),
        ],
    )
    def test_accepts_documented_setting(self, option, value):
        server = SimulationServer(**{option: value})
        assert getattr(server, option) == value
        server.stop()


class TestLifecycle:
    def test_address_needs_a_started_server(self):
        server = SimulationServer()
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        server.stop()  # stopping a server that never started is a no-op

    def test_start_and_stop_are_idempotent(self):
        server = SimulationServer(heartbeat_interval=0.1)
        try:
            assert server.start() is server
            address = server.address
            assert server.start() is server
            assert server.address == address
        finally:
            server.stop()
            server.stop()
        with pytest.raises(RuntimeError, match="not started"):
            server.address

    def test_unknown_backend_fails_before_binding(self, capsys):
        with pytest.raises(KeyError, match="no-such-engine"):
            SimulationServer(backend="no-such-engine")
        with pytest.raises(SystemExit) as exit_info:
            serve_main(["--backend", "no-such-engine", "--port", "0"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestDrain:
    def test_drain_completes_inflight_execution(
        self, strongarm, test_backends, conditions_job
    ):
        server = SimulationServer(
            backend=_SleepyBackend.name, heartbeat_interval=0.1
        ).start()
        address = server.address
        job = conditions_job(strongarm, rows=4, seed=7)
        reference = resolve_backend("batched").evaluate(strongarm, job)
        outcome = {}

        def _evaluate():
            backend = RemoteBackend(endpoints=server.endpoint, attempts=1)
            try:
                outcome["metrics"] = backend.evaluate(strongarm, job)
                outcome["fallback_used"] = backend.fallback_used
            except BaseException as error:  # noqa: BLE001
                outcome["error"] = error

        thread = threading.Thread(target=_evaluate)
        thread.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with server._lock:
                if server._inflight:
                    break
            time.sleep(0.01)
        else:
            server.stop()
            pytest.fail("execution never became in-flight")
        server.drain(timeout=30.0)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        # The leased execution completed and its result reached the
        # client despite the drain racing it — over the wire, not via
        # the client's local fallback.
        assert "error" not in outcome, outcome.get("error")
        assert outcome["fallback_used"] == 0
        assert_metrics_equal(strongarm, outcome["metrics"], reference)
        # And the daemon really stopped accepting.
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)


class TestSignals:
    def test_sigterm_exits_zero(self):
        proc, _endpoint = _spawn_serve_daemon()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

    def test_sigint_exits_zero(self):
        """Ctrl-C drains like SIGTERM: no KeyboardInterrupt traceback."""
        proc, _endpoint = _spawn_serve_daemon()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
        assert "Traceback" not in proc.stdout.read()


#: The flags of the retired experiment mode, each with a sample value.
_EXPERIMENT_FLAGS = (
    ("--mode", "experiment"),
    ("--journal-dir", "runs"),
    ("--run-workers", "2"),
    ("--max-queue", "2"),
    ("--tenant-quota", "10"),
)


def test_serve_has_one_mode(capsys):
    """``repro serve`` runs the job daemon alone: its help lists none of
    the experiment mode's flags."""
    with pytest.raises(SystemExit) as exit_info:
        serve_main(["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    assert "--heartbeat-interval" in usage
    assert [flag for flag, _ in _EXPERIMENT_FLAGS if flag in usage] == []


@pytest.mark.parametrize("flag, value", _EXPERIMENT_FLAGS)
def test_experiment_flag_is_a_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        serve_main([flag, value, "--port", "0"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_front_end_api_is_gone():
    """No alias of the retired whole-run front end is kept."""
    import importlib

    import repro.simulation as simulation
    from repro import api
    from repro.simulation import budget

    for name in (
        "ExperimentFrontend",
        "ExperimentClient",
        "ExperimentJournal",
        "FrontendBusy",
        "FrontendUnavailable",
        "TenantBudgetLedger",
        "run_key",
    ):
        assert not hasattr(simulation, name), name
    assert not hasattr(budget, "TenantBudgetLedger")
    for module in ("frontend", "daemon"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.simulation.{module}")
    with pytest.raises(TypeError, match="endpoint"):
        api.run_experiment(api.ExperimentConfig(), endpoint="127.0.0.1:9")
    assert {"SUBMIT", "STATUS", "CANCEL", "BUSY"}.isdisjoint(
        FrameType.__members__
    )


# ----------------------------------------------------------------------
# RemoteBackend: degradation and recovery
# ----------------------------------------------------------------------
class TestDegradeToLocal:
    def test_connection_refused_degrades_bit_identically(
        self, strongarm, conditions_job
    ):
        # Point at a closed port: every attempt is refused, the breaker
        # opens, and the job runs on the local fallback — same numbers.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        remote = RemoteBackend(
            endpoints=f"127.0.0.1:{dead_port}",
            attempts=2,
            connect_timeout=0.25,
            breaker_threshold=2,
        )
        job = conditions_job(strongarm, rows=8)
        reference = resolve_backend("batched").evaluate(strongarm, job)
        assert_metrics_equal(
            strongarm, remote.evaluate(strongarm, job), reference
        )
        assert remote.fallback_used == 1
        assert remote.remote_evaluations == 0
        breaker = remote.breakers[("127.0.0.1", dead_port)]
        assert breaker.state == "open"
        # With the breaker open the next job skips the endpoint entirely
        # (no connect timeout paid) and goes straight to the fallback.
        started = time.monotonic()
        remote.evaluate(strongarm, job)
        assert remote.fallback_used == 2
        assert time.monotonic() - started < 2.0

    def test_fleet_recovery_through_half_open_probe(self, strongarm, conditions_job):
        job = conditions_job(strongarm, rows=8)
        first = SimulationServer(heartbeat_interval=0.1).start()
        host, port = first.address
        first.stop()
        remote = RemoteBackend(
            endpoints=f"{host}:{port}",
            attempts=1,
            connect_timeout=0.25,
            breaker_threshold=1,
            breaker_reset_seconds=0.2,
        )
        remote.evaluate(strongarm, job)  # fleet down: degrade
        assert remote.fallback_used == 1
        assert remote.breakers[(host, port)].state == "open"
        # The fleet comes back on the same port; after the reset window
        # the half-open probe finds it and the breaker closes again.
        with SimulationServer(port=port, heartbeat_interval=0.1):
            time.sleep(0.25)
            reference = resolve_backend("batched").evaluate(strongarm, job)
            assert_metrics_equal(
                strongarm, remote.evaluate(strongarm, job), reference
            )
            assert remote.remote_evaluations == 1
            assert remote.breakers[(host, port)].state == "closed"

    def test_env_configured_backend_is_worker_reconstructible(
        self, monkeypatch, server
    ):
        monkeypatch.setenv(ENDPOINTS_ENV, server.endpoint)
        assert RemoteBackend().worker_reconstructible
        assert not RemoteBackend(endpoints=server.endpoint).worker_reconstructible

    def test_env_configured_backend_shards_client_side(
        self, monkeypatch, server, strongarm
    ):
        """Each pool worker rebuilds an env-configured client, so a
        ``workers > 1`` run fans its shards out over the fleet whatever
        engine the daemons serve."""
        monkeypatch.setenv(ENDPOINTS_ENV, server.endpoint)
        assert can_shard(RemoteBackend())
        assert shardable(strongarm, RemoteBackend(), 2, 4)
        assert not can_shard(RemoteBackend(endpoints=server.endpoint))

    def test_no_endpoints_is_a_deployment_error(self, monkeypatch):
        monkeypatch.delenv(ENDPOINTS_ENV, raising=False)
        with pytest.raises(ValueError, match="endpoint"):
            RemoteBackend()


# ----------------------------------------------------------------------
# Network chaos (drop / delay / truncate / duplicate)
# ----------------------------------------------------------------------
class TestNetworkChaos:
    @pytest.mark.parametrize("mode", ["drop", "truncate", "delay", "duplicate"])
    def test_single_fault_then_success(
        self, strongarm, server, tmp_path, mode, conditions_job
    ):
        schedule = NetworkFaultSchedule(
            mode=mode,
            faults=1,
            ticket_dir=str(tmp_path / "net-tickets"),
            delay_seconds=0.02,
        )
        chaos = install_network_chaos(schedule)
        try:
            job = conditions_job(strongarm, rows=8)
            remote = remote_for(server)
            reference = resolve_backend("batched").evaluate(strongarm, job)
            assert_metrics_equal(
                strongarm, remote.evaluate(strongarm, job), reference
            )
            assert chaos.injected >= 1
            assert schedule.tickets_left() == 0
        finally:
            schedule.disarm()
            install_network_chaos(None)

    def test_unlimited_drop_chaos_degrades_to_local(
        self, strongarm, server, conditions_job
    ):
        schedule = NetworkFaultSchedule(mode="drop", faults=None)
        install_network_chaos(schedule)
        try:
            job = conditions_job(strongarm, rows=8)
            remote = remote_for(server, attempts=2)
            reference = resolve_backend("batched").evaluate(strongarm, job)
            assert_metrics_equal(
                strongarm, remote.evaluate(strongarm, job), reference
            )
            assert remote.fallback_used == 1
        finally:
            install_network_chaos(None)

    def test_env_round_trip(self, monkeypatch, tmp_path):
        schedule = NetworkFaultSchedule(
            mode="truncate",
            faults=3,
            ticket_dir=str(tmp_path),
            delay_seconds=0.125,
            probability=0.5,
            seed=7,
        )
        for key, value in schedule.to_env().items():
            monkeypatch.setenv(key, value)
        assert NetworkFaultSchedule.from_env() == schedule

    def test_seeded_eligibility_is_deterministic(self):
        schedule = NetworkFaultSchedule(probability=0.5, seed=3)
        request = "ab" * 32
        draws = {schedule.eligible(request) for _ in range(5)}
        assert len(draws) == 1


# ----------------------------------------------------------------------
# Ticket hygiene (satellite: FaultSchedule.disarm)
# ----------------------------------------------------------------------
class TestDisarm:
    def test_fault_schedule_disarm_removes_unclaimed_tickets(self, tmp_path):
        schedule = FaultSchedule(
            mode="raise", faults=5, ticket_dir=str(tmp_path / "tickets")
        )
        schedule.arm()
        assert schedule.tickets_left() == 5
        assert schedule._claim_ticket()
        assert schedule.disarm() == 4
        assert schedule.tickets_left() == 0
        leftover = [
            name
            for name in os.listdir(schedule.ticket_dir)
            if name.startswith("ticket-")
        ]
        assert leftover == []

    def test_network_schedule_disarm(self, tmp_path):
        schedule = NetworkFaultSchedule(
            mode="drop", faults=3, ticket_dir=str(tmp_path / "net")
        )
        schedule.arm()
        assert schedule.disarm() == 3
        assert schedule.tickets_left() == 0

    def test_disarm_without_ticket_dir_is_a_noop(self):
        assert FaultSchedule(mode="raise").disarm() == 0
        assert NetworkFaultSchedule(mode="drop").disarm() == 0


# ----------------------------------------------------------------------
# Service composition: accounting stays client-side
# ----------------------------------------------------------------------
class TestServiceComposition:
    def test_service_budget_trajectory_identical_to_batched(
        self, strongarm, server, service_factory, conditions_job
    ):
        jobs = [conditions_job(strongarm, rows=6, seed=s) for s in range(3)]
        local = service_factory(strongarm, backend="batched", cache=True)
        remote = service_factory(
            strongarm, backend=remote_for(server), cache=True
        )
        for job in jobs + jobs:  # repeats exercise the client-side cache
            result_local = local.run(job)
            result_remote = remote.run(job)
            assert_metrics_equal(
                strongarm, result_remote.metrics, result_local.metrics
            )
            assert result_remote.cached == result_local.cached
        assert remote.budget.snapshot() == local.budget.snapshot()
        # The cache absorbed the repeats client-side: the server only ever
        # saw each unique job once.
        assert server.stats["executions"] == len(jobs)


class TestEndpointPublication:
    @pytest.mark.parametrize("previous", [None, "127.0.0.1:7"])
    def test_failed_construction_restores_endpoints(self, monkeypatch, previous):
        """``run_experiment`` publishes a config's endpoints for each seed;
        an optimizer whose construction raises (a worker pool that never
        warms up) must not leave them behind, or a later ``remote`` run
        naming no endpoints would silently reach the stale fleet."""
        from repro.api import ExperimentConfig, run_experiment

        monkeypatch.setenv(ENDPOINTS_ENV, previous or "unset")
        if previous is None:
            monkeypatch.delenv(ENDPOINTS_ENV)

        def warm_up_timeout(self, *args, **kwargs):
            raise RuntimeError("worker pool warm-up timed out")

        monkeypatch.setattr(SimulationService, "__init__", warm_up_timeout)
        config = ExperimentConfig(
            backend="remote",
            endpoints=("127.0.0.1:9",),
            max_iterations=1,
            initial_samples=2,
        )
        with pytest.raises(RuntimeError, match="warm-up timed out"):
            run_experiment(config)
        assert os.environ.get(ENDPOINTS_ENV) == previous

    def test_remote_config_without_endpoints_is_refused(self, monkeypatch):
        """A ``remote`` config naming no fleet fails when it is built, so
        the CLI exits with a usage error instead of a mid-run traceback."""
        from repro.api import ExperimentConfig

        monkeypatch.delenv(ENDPOINTS_ENV, raising=False)
        with pytest.raises(ValueError, match=ENDPOINTS_ENV):
            ExperimentConfig(backend="remote")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--circuit", "sal", "--method",
             "C", "--backend", "remote", "--dry-run"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 2, completed.stderr
        assert "needs endpoints" in completed.stderr
        monkeypatch.setenv(ENDPOINTS_ENV, "127.0.0.1:9")
        assert ExperimentConfig(backend="remote").endpoints is None

    def test_remote_config_naming_its_endpoints_needs_no_variable(
        self, monkeypatch
    ):
        from repro.api import ExperimentConfig

        monkeypatch.delenv(ENDPOINTS_ENV, raising=False)
        config = ExperimentConfig(backend="remote", endpoints="127.0.0.1:9")
        assert config.endpoints == ("127.0.0.1:9",)
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        # A blank variable names no fleet either.
        monkeypatch.setenv(ENDPOINTS_ENV, "  ")
        with pytest.raises(ValueError, match="needs endpoints"):
            ExperimentConfig(backend="remote")
        with pytest.raises(ValueError, match="needs endpoints"):
            ExperimentConfig.from_dict({"backend": "remote"})


class TestLivenessSettings:
    """Bad client timeouts, breaker resets, attempts and breaker
    thresholds fail when the backend or a ``remote`` config is built,
    naming their variable: at -1, NaN or inf ``socket`` raises mid-run, at
    0 every connect fails and the run silently degrades to local, a NaN
    reset never half-opens, and a count below 1 or not an integer would
    otherwise be clamped to 1 or truncated without a word."""

    BAD = [
        (CONNECT_TIMEOUT_ENV, "connect_timeout", value)
        for value in ("-1", "nan", "inf", "0")
    ] + [
        (ACTIVITY_TIMEOUT_ENV, "activity_timeout", value)
        for value in ("-1", "nan", "inf", "0")
    ] + [
        (BREAKER_RESET_ENV, "breaker_reset_seconds", value)
        for value in ("-1", "nan", "inf")
    ]

    @pytest.mark.parametrize(
        "variable, keyword, value", BAD, ids=[f"{v}={x}" for v, _, x in BAD]
    )
    def test_bad_value_is_refused_at_construction(
        self, monkeypatch, capsys, variable, keyword, value
    ):
        from repro.__main__ import main
        from repro.api import ExperimentConfig

        with pytest.raises(ValueError, match=re.escape(variable)):
            RemoteBackend(endpoints="127.0.0.1:9", **{keyword: float(value)})
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=re.escape(variable)):
            RemoteBackend(endpoints="127.0.0.1:9")
        with pytest.raises(ValueError, match=re.escape(variable)):
            ExperimentConfig(backend="remote", endpoints="127.0.0.1:9")
        with pytest.raises(SystemExit) as exit_info:
            main(["--circuit", "sal", "--method", "C", "--backend", "remote",
                  "--endpoints", "127.0.0.1:9", "--dry-run"])
        assert exit_info.value.code == 2
        assert variable in capsys.readouterr().err

    COUNTS = [
        (variable, keyword, value)
        for variable, keyword in (
            (ATTEMPTS_ENV, "attempts"),
            (BREAKER_THRESHOLD_ENV, "breaker_threshold"),
        )
        for value in ("0", "-3", "2.5", "abc")
    ]

    @pytest.mark.parametrize(
        "variable, keyword, value", COUNTS, ids=[f"{v}={x}" for v, _, x in COUNTS]
    )
    def test_bad_count_is_refused_at_construction(
        self, monkeypatch, capsys, variable, keyword, value
    ):
        from repro.__main__ import main
        from repro.api import ExperimentConfig

        argument = {"0": 0, "-3": -3, "2.5": 2.5, "abc": "abc"}[value]
        with pytest.raises(ValueError, match=re.escape(variable)):
            RemoteBackend(endpoints="127.0.0.1:9", **{keyword: argument})
        monkeypatch.setenv(variable, value)
        with pytest.raises(ValueError, match=re.escape(variable)):
            RemoteBackend(endpoints="127.0.0.1:9")
        with pytest.raises(ValueError, match=re.escape(variable)):
            ExperimentConfig(backend="remote", endpoints="127.0.0.1:9")
        with pytest.raises(SystemExit) as exit_info:
            main(["--circuit", "sal", "--method", "C", "--backend", "remote",
                  "--endpoints", "127.0.0.1:9", "--dry-run"])
        assert exit_info.value.code == 2
        assert variable in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable, value",
        [
            (ATTEMPTS_ENV, "1"),
            (ATTEMPTS_ENV, "5"),
            (BREAKER_THRESHOLD_ENV, "1"),
            (BREAKER_THRESHOLD_ENV, "5"),
            (CONNECT_TIMEOUT_ENV, "0.25"),
            (CONNECT_TIMEOUT_ENV, "3.0"),
            (ACTIVITY_TIMEOUT_ENV, "0.25"),
            (ACTIVITY_TIMEOUT_ENV, "3.0"),
            (BREAKER_RESET_ENV, "0"),
            (BREAKER_RESET_ENV, "0.2"),
            (BREAKER_RESET_ENV, "600"),
        ],
    )
    def test_values_in_use_stay_valid(self, monkeypatch, variable, value):
        from repro.api import ExperimentConfig

        monkeypatch.setenv(variable, value)
        backend = RemoteBackend(endpoints="127.0.0.1:9")
        breaker = backend.breakers[("127.0.0.1", 9)]
        settings = {
            ATTEMPTS_ENV: backend.policy.max_attempts,
            BREAKER_THRESHOLD_ENV: breaker.failure_threshold,
            CONNECT_TIMEOUT_ENV: backend.connect_timeout,
            ACTIVITY_TIMEOUT_ENV: backend.activity_timeout,
            BREAKER_RESET_ENV: breaker.reset_seconds,
        }
        assert settings[variable] == float(value)
        ExperimentConfig(backend="remote", endpoints="127.0.0.1:9")


# ----------------------------------------------------------------------
# Acceptance: end-to-end sizing over the fabric, with and without chaos
# ----------------------------------------------------------------------
def _spawn_serve_daemon(extra_env=None, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--heartbeat-interval",
            "0.2",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on (\S+):(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"repro serve failed to start: {line!r}")
    return proc, f"{match.group(1)}:{match.group(2)}"


def _comparable_report(report):
    payload = report.to_dict()
    payload.pop("config", None)  # backend/endpoints legitimately differ
    return json.dumps(payload, sort_keys=True, default=str)


_ACCEPTANCE_CONFIG = dict(
    circuit="sal",
    method="C",
    seeds=(0,),
    max_iterations=3,
    initial_samples=6,
    optimization_samples=2,
    verification_samples=4,
)


class TestAcceptance:
    def test_remote_sizing_run_is_bit_identical(self):
        from repro import api

        reference = api.run_experiment(
            api.ExperimentConfig(**_ACCEPTANCE_CONFIG)
        )
        proc, endpoint = _spawn_serve_daemon()
        try:
            remote = api.run_experiment(
                api.ExperimentConfig(
                    **_ACCEPTANCE_CONFIG,
                    backend="remote",
                    endpoints=endpoint,
                )
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
        assert _comparable_report(remote) == _comparable_report(reference)

    def test_remote_sizing_run_survives_chaos_bit_identically(
        self, monkeypatch, tmp_path
    ):
        """The ISSUE's acceptance property: kill the server mid-run while
        frames drop/truncate — the breaker opens, the run degrades to the
        local fallback, and the report is unchanged to the last bit."""
        from repro import api

        reference = api.run_experiment(
            api.ExperimentConfig(**_ACCEPTANCE_CONFIG)
        )
        # Client-side frame chaos: two dropped + one truncated frame,
        # ticket-bounded so retries eventually get through while the
        # server is alive.
        schedule = NetworkFaultSchedule(
            mode="drop", faults=2, ticket_dir=str(tmp_path / "drop-tickets")
        )
        install_network_chaos(schedule)
        truncate = NetworkFaultSchedule(
            mode="truncate",
            faults=1,
            ticket_dir=str(tmp_path / "trunc-tickets"),
        )
        truncate.arm()
        # Fail fast so the degraded run completes promptly once the
        # server dies: short timeouts, one retry, a breaker that opens
        # after two failures and stays open for the rest of the run.
        monkeypatch.setenv("REPRO_REMOTE_ATTEMPTS", "2")
        monkeypatch.setenv("REPRO_REMOTE_CONNECT_TIMEOUT", "0.5")
        monkeypatch.setenv("REPRO_REMOTE_ACTIVITY_TIMEOUT", "3.0")
        monkeypatch.setenv("REPRO_REMOTE_BREAKER_THRESHOLD", "2")
        monkeypatch.setenv("REPRO_REMOTE_BREAKER_RESET", "600")
        proc, endpoint = _spawn_serve_daemon()
        killer = threading.Timer(1.5, proc.kill)  # SIGKILL mid-run
        killer.start()
        try:
            remote = api.run_experiment(
                api.ExperimentConfig(
                    **_ACCEPTANCE_CONFIG,
                    backend="remote",
                    endpoints=endpoint,
                )
            )
        finally:
            killer.cancel()
            proc.kill()
            proc.wait(timeout=10)
            schedule.disarm()
            truncate.disarm()
            install_network_chaos(None)
        assert _comparable_report(remote) == _comparable_report(reference)


# ----------------------------------------------------------------------
# `repro cache` CLI on a missing store (satellite: monitoring probe)
# ----------------------------------------------------------------------
class TestCacheCliMissingStore:
    def _run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", "cache", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    def test_stats_on_missing_dir_exits_zero_with_zeroed_report(
        self, tmp_path
    ):
        missing = str(tmp_path / "never-created")
        completed = self._run_cli("stats", missing)
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert report["exists"] is False
        assert report["entries"] == 0
        assert report["total_bytes"] == 0
        assert report["payload_bytes"] == 0

    def test_prune_on_missing_dir_exits_zero(self, tmp_path):
        missing = str(tmp_path / "never-created")
        completed = self._run_cli("prune", missing, "--max-bytes", "1000")
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert report["removed_files"] == 0

    def test_stats_on_empty_dir_exits_zero(self, tmp_path):
        empty = tmp_path / "empty-store"
        empty.mkdir()
        completed = self._run_cli("stats", str(empty))
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert report["exists"] is True
        assert report["entries"] == 0


# ----------------------------------------------------------------------
# Compressed spill store (satellite: disk-cache compression)
# ----------------------------------------------------------------------
class TestCompressedSpill:
    def test_spills_are_zip_compressed_and_stats_report_payload(
        self, strongarm, tmp_path, conditions_job
    ):
        import zipfile

        from repro.simulation.service import (
            CachingBackend,
            spill_store_stats,
        )

        store = str(tmp_path / "store")
        cache = CachingBackend(resolve_backend("batched"), spill_dir=store)
        cache.evaluate(strongarm, conditions_job(strongarm, rows=32))
        paths = []
        for dirpath, _dirs, files in os.walk(store):
            paths.extend(
                os.path.join(dirpath, f) for f in files if f.endswith(".npz")
            )
        assert len(paths) == 1
        with zipfile.ZipFile(paths[0]) as archive:
            assert any(
                info.compress_type == zipfile.ZIP_DEFLATED
                for info in archive.infolist()
            )
        stats = spill_store_stats(store)
        assert stats["entries"] == 1
        assert stats["payload_bytes"] > 0
        assert stats["compression_ratio"] is not None

    def test_v1_uncompressed_records_still_load(
        self, strongarm, tmp_path, conditions_job
    ):
        from repro.simulation.service import (
            CachingBackend,
            _CACHE_VERSION_KEY,
        )

        store = str(tmp_path / "store")
        writer = CachingBackend(resolve_backend("batched"), spill_dir=store)
        job = conditions_job(strongarm, rows=16)
        metrics = writer.evaluate(strongarm, job)
        # Rewrite the record exactly as the version-1 (uncompressed)
        # code did, then load it back through a fresh cache.
        path = writer._spill_path(job.job_id)
        payload = {
            name: np.asarray(values, dtype=float)
            for name, values in metrics.items()
        }
        payload[_CACHE_VERSION_KEY] = np.array(1)
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        reader = CachingBackend(resolve_backend("batched"), spill_dir=store)
        loaded = reader.lookup(job)
        assert loaded is not None
        assert reader.disk_hits == 1
        assert_metrics_equal(strongarm, loaded, metrics)

    def test_unknown_future_version_is_a_miss(
        self, strongarm, tmp_path, conditions_job
    ):
        from repro.simulation.service import (
            CachingBackend,
            _CACHE_VERSION_KEY,
        )

        store = str(tmp_path / "store")
        writer = CachingBackend(resolve_backend("batched"), spill_dir=store)
        job = conditions_job(strongarm, rows=4)
        metrics = writer.evaluate(strongarm, job)
        path = writer._spill_path(job.job_id)
        payload = {
            name: np.asarray(values, dtype=float)
            for name, values in metrics.items()
        }
        payload[_CACHE_VERSION_KEY] = np.array(999)
        with open(path, "wb") as handle:
            np.savez(handle, **payload)
        reader = CachingBackend(resolve_backend("batched"), spill_dir=store)
        assert reader.lookup(job) is None


# ----------------------------------------------------------------------
# Stress soak (tier-1-excluded)
# ----------------------------------------------------------------------
@pytest.mark.stress
def test_remote_chaos_soak(strongarm, tmp_path, conditions_job):
    """Hammer the fabric: many jobs under probabilistic frame chaos with
    a mid-soak server restart — every job must come back bit-identical
    to the local reference, whichever path (remote, retained, degraded)
    produced it."""
    reference_backend = resolve_backend("batched")
    schedule = NetworkFaultSchedule(
        mode="drop", faults=None, probability=0.3, seed=11
    )
    install_network_chaos(schedule)
    server = SimulationServer(heartbeat_interval=0.1).start()
    host, port = server.address
    try:
        remote = RemoteBackend(
            endpoints=f"{host}:{port}",
            attempts=3,
            connect_timeout=0.5,
            breaker_threshold=5,
            breaker_reset_seconds=0.2,
        )
        for index in range(40):
            if index == 20:
                # Mid-soak restart on the same port: breakers must ride
                # through the outage and recover via half-open probes.
                # The rebind can race the old listener's release, exactly
                # like a real daemon restart — retry briefly.
                server.stop()
                for _attempt in range(100):
                    try:
                        server = SimulationServer(
                            port=port, heartbeat_interval=0.1
                        ).start()
                        break
                    except OSError:
                        time.sleep(0.1)
                else:
                    raise RuntimeError(f"could not rebind port {port}")
            job = conditions_job(strongarm, rows=4, seed=index)
            reference = reference_backend.evaluate(strongarm, job)
            assert_metrics_equal(
                strongarm, remote.evaluate(strongarm, job), reference
            )
    finally:
        server.stop()
        install_network_chaos(None)
