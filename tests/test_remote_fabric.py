"""Tests of the remote simulation fabric (PR 7).

Covers, roughly client-outward:

* the frame protocol — round trips, and a fuzz battery proving every
  malformed input (truncated, garbage, oversized, wrong-version,
  corrupted) dies with a clean typed :class:`ProtocolError`, never a
  hang or a partial result, on both the client and server side;
* the ``repro serve`` daemon — bit-identical execution, duplicate
  coalescing, lease expiry with result retention, surviving hostile
  connections;
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
    read_frame_from_bytes,
    request_id_bytes,
)
from repro.simulation.remote import (
    ENDPOINTS_ENV,
    CircuitBreaker,
    RemoteBackend,
    parse_endpoints,
)
from repro.simulation.server import SimulationServer
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


@pytest.fixture()
def test_backends():
    """Register the test-only terminal backends for the fixture's scope."""
    BACKENDS[_SleepyBackend.name] = _SleepyBackend
    BACKENDS[_BoomBackend.name] = _BoomBackend
    yield
    BACKENDS.pop(_SleepyBackend.name, None)
    BACKENDS.pop(_BoomBackend.name, None)


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

    def test_unknown_frame_type(self):
        header = struct.pack(
            "!4sHBBII32s", MAGIC, PROTOCOL_VERSION, 250, 0, 0, 0, b"\x00" * 32
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
            from repro.simulation.protocol import recv_frame

            kind, _rid, payload = recv_frame(sock)
            assert kind == FrameType.ERROR
            from repro.simulation.protocol import loads_payload

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
