"""Tests of the crash-safe multi-tenant experiment front end (PR 10).

Covers, roughly client-outward:

* the new SUBMIT/STATUS/CANCEL/BUSY frame types — round trips plus the
  fuzz battery (every truncation of a SUBMIT frame dies with a typed
  :class:`ProtocolError`);
* run identity — :func:`run_key` is deterministic, tenant-scoped, and
  insensitive to the fingerprint-excluded plumbing fields;
* the write-ahead journal — atomic records, unreadable records skipped;
* the ``repro serve --mode experiment`` daemon in-process — bit-identical
  execution against the local path, idempotent resubmission, admission
  control (BUSY shedding, tenant quotas, cancel), journal replay;
* overload shedding end-to-end — concurrent clients over a full queue:
  BUSY frames observed, every *accepted* run completes correctly;
* the job-mode satellites — bounded result retention (LRU + eviction
  stats) and graceful drain (in-flight work completes, SIGTERM exits 0);
* the acceptance property — SIGKILL the experiment daemon mid-run under
  a network fault schedule, restart it on the same journal, and the
  client's resumed run completes with a report (budget trajectory
  included) bit-identical to an uninterrupted in-process run, with the
  completed seed replayed from its checkpoint rather than re-simulated.

A ``stress``-marked soak (excluded from tier-1; ``scripts/stress.sh``)
hammers the front end with repeated kill/restart cycles.
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.simulation.budget import TenantBudgetLedger
from repro.simulation.faults import (
    NetworkFaultSchedule,
    install_network_chaos,
)
from repro.simulation.frontend import (
    RUN_CANCELLED,
    RUN_DONE,
    RUN_FAILED,
    RUN_QUEUED,
    ExperimentClient,
    ExperimentFrontend,
    ExperimentJournal,
    FrontendBusy,
    _Run,
    run_key,
)
from repro.simulation.protocol import (
    FrameType,
    ProtocolError,
    RemoteError,
    dumps_payload,
    encode_frame,
    loads_payload,
    read_frame_from_bytes,
    recv_frame,
    request_id_bytes,
    send_frame,
)
from repro.simulation.remote import RemoteBackend
from repro.simulation.server import SimulationServer
from repro.simulation.service import (
    BACKENDS,
    SimulationBackend,
    resolve_backend,
)

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
#: Small-but-real sizing run: completes in well under a second locally.
_FAST_CONFIG = dict(
    circuit="sal",
    method="C",
    seeds=(0,),
    max_iterations=2,
    initial_samples=4,
    optimization_samples=2,
    verification_samples=3,
)

#: Two-seed run for the kill/restart acceptance test: seed 0's checkpoint
#: landing is the kill trigger, seed 1 is the work in flight.
_RESUME_CONFIG = dict(
    circuit="sal",
    method="C",
    seeds=(0, 1),
    max_iterations=3,
    initial_samples=6,
    optimization_samples=2,
    verification_samples=4,
)


def _config(**overrides):
    payload = dict(_FAST_CONFIG)
    payload.update(overrides)
    return api.ExperimentConfig(**payload)


def _comparable_report(report):
    payload = report.to_dict()
    payload.pop("config", None)  # checkpoint_dir/endpoints legitimately differ
    return json.dumps(payload, sort_keys=True, default=str)


def _submit_frames(config, tenant="default"):
    """(request_id, SUBMIT payload) exactly as ExperimentClient sends them."""
    rid = request_id_bytes(run_key(config, tenant))
    payload = dumps_payload({"config": config.to_dict(), "tenant": tenant})
    return rid, payload


@pytest.fixture(autouse=True)
def no_leaked_network_chaos():
    yield
    install_network_chaos(None)


@pytest.fixture()
def frontend(tmp_path):
    fe = ExperimentFrontend(str(tmp_path / "journal"))
    fe.start()
    yield fe
    fe.stop()


@pytest.fixture()
def unstarted_frontend(tmp_path):
    """A frontend whose workers never run: queued runs stay queued, which
    makes admission-control behaviour deterministic to test."""
    fe = ExperimentFrontend(str(tmp_path / "journal"), max_queue=1)
    yield fe
    fe.stop()


class _HandlerHarness:
    """Drive a frontend's connection handler over a socketpair."""

    def __init__(self, frontend):
        self.frontend = frontend
        self.server_sock, self.client_sock = socket.socketpair()

    def close(self):
        for sock in (self.server_sock, self.client_sock):
            try:
                sock.close()
            except OSError:
                pass

    def submit(self, config, tenant="default"):
        rid, payload = _submit_frames(config, tenant)
        assert self.frontend._handle_submit(self.server_sock, rid, payload)
        return self.reply()

    def reply(self):
        return recv_frame(self.client_sock)


# ----------------------------------------------------------------------
# New frame types: round trips + fuzz
# ----------------------------------------------------------------------
class TestExperimentFrames:
    def test_submit_round_trip(self):
        config = _config()
        rid, payload = _submit_frames(config, "tenant-a")
        frame = encode_frame(FrameType.SUBMIT, payload, rid)
        kind, got_rid, body = read_frame_from_bytes(frame)
        assert kind == FrameType.SUBMIT
        assert got_rid == rid
        decoded = loads_payload(body)
        assert decoded["tenant"] == "tenant-a"
        assert decoded["config"]["circuit"] == "sal"

    @pytest.mark.parametrize(
        "frame_type",
        [FrameType.STATUS, FrameType.CANCEL, FrameType.BUSY],
    )
    def test_control_frames_round_trip(self, frame_type):
        rid = bytes(range(32))
        payload = dumps_payload({"retry_after": 0.5})
        kind, got_rid, body = read_frame_from_bytes(
            encode_frame(frame_type, payload, rid)
        )
        assert kind == frame_type
        assert got_rid == rid
        assert loads_payload(body) == {"retry_after": 0.5}

    def test_every_submit_truncation_is_a_typed_error(self):
        rid, payload = _submit_frames(_config())
        frame = encode_frame(FrameType.SUBMIT, payload, rid)
        # Every header cut plus a sample of payload cuts (the payload is
        # large; exhaustive cutting is the job of the header fuzz).
        cuts = list(range(60)) + list(
            range(60, len(frame), max(1, len(frame) // 64))
        )
        for cut in cuts:
            with pytest.raises(ProtocolError):
                read_frame_from_bytes(frame[:cut])

    def test_corrupted_submit_fails_checksum(self):
        rid, payload = _submit_frames(_config())
        frame = bytearray(encode_frame(FrameType.SUBMIT, payload, rid))
        frame[len(frame) // 2] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            read_frame_from_bytes(bytes(frame))


# ----------------------------------------------------------------------
# Run identity
# ----------------------------------------------------------------------
class TestRunKey:
    def test_deterministic(self):
        assert run_key(_config(), "t") == run_key(_config(), "t")

    def test_tenant_scoped(self):
        assert run_key(_config(), "alice") != run_key(_config(), "bob")

    def test_sensitive_to_result_bearing_fields(self):
        assert run_key(_config(), "t") != run_key(
            _config(max_iterations=3), "t"
        )
        assert run_key(_config(), "t") != run_key(_config(seeds=(0, 1)), "t")

    def test_insensitive_to_plumbing_fields(self):
        base = run_key(_config(), "t")
        assert base == run_key(_config(checkpoint_dir="/elsewhere"), "t")
        assert base == run_key(_config(endpoints="10.0.0.1:7741"), "t")

    def test_is_a_valid_request_id(self):
        assert request_id_bytes(run_key(_config(), "t")).hex() == run_key(
            _config(), "t"
        )


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_record_and_load_round_trip(self, tmp_path):
        journal = ExperimentJournal(str(tmp_path))
        run = _Run("ab" * 32, "alice", _config().to_dict())
        path = journal.record(run)
        assert os.path.exists(path)
        records = journal.load_all()
        assert len(records) == 1
        assert records[0]["run_id"] == "ab" * 32
        assert records[0]["tenant"] == "alice"
        assert records[0]["state"] == RUN_QUEUED

    def test_records_are_replaced_atomically(self, tmp_path):
        journal = ExperimentJournal(str(tmp_path))
        run = _Run("cd" * 32, "bob", _config().to_dict())
        journal.record(run)
        run.state = RUN_DONE
        run.report = {"runs": []}
        journal.record(run)
        records = journal.load_all()
        assert len(records) == 1
        assert records[0]["state"] == RUN_DONE
        # No temp-file litter left behind either.
        assert [
            name
            for name in os.listdir(journal.runs_dir)
            if name.endswith(".tmp")
        ] == []

    def test_unreadable_records_are_skipped(self, tmp_path):
        journal = ExperimentJournal(str(tmp_path))
        journal.record(_Run("ef" * 32, "t", _config().to_dict()))
        with open(
            os.path.join(journal.runs_dir, "broken.json"), "w"
        ) as handle:
            handle.write("{ not json")
        with open(
            os.path.join(journal.runs_dir, "wrongversion.json"), "w"
        ) as handle:
            json.dump({"version": 999, "run_id": "x", "config": {}}, handle)
        records = journal.load_all()
        assert [record["run_id"] for record in records] == ["ef" * 32]


# ----------------------------------------------------------------------
# End-to-end: submit → result, bit-identical to the local path
# ----------------------------------------------------------------------
class TestFrontendEndToEnd:
    def test_submitted_run_matches_local_run(self, frontend):
        config = _config()
        reference = api.run_experiment(config)
        report = api.run_experiment(
            config, endpoint=frontend.endpoint, tenant="alice"
        )
        assert _comparable_report(report) == _comparable_report(reference)
        assert frontend.stats["accepted"] == 1
        assert frontend.stats["completed"] == 1
        # The completed run is booked against its tenant, phase-split.
        ledger = frontend.ledger.snapshot()
        assert ledger["alice"]["total"] == report.total_simulations

    def test_resubmission_is_idempotent(self, frontend):
        config = _config()
        client = ExperimentClient(frontend.endpoint, tenant="alice")
        first = client.run(config)
        second = client.run(config)
        assert _comparable_report(first) == _comparable_report(second)
        assert frontend.stats["accepted"] == 1  # one run, not two
        assert frontend.stats["resubmissions"] == 1
        # And the tenant paid for it exactly once.
        assert (
            frontend.ledger.snapshot()["alice"]["total"]
            == first.total_simulations
        )

    def test_failed_run_surfaces_as_typed_remote_error(
        self, frontend, monkeypatch
    ):
        # A run that blows up inside the daemon becomes a journaled
        # failure and a typed error on the wire — never a hang.
        def _boom(config, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(api, "run_experiment", _boom)
        client = ExperimentClient(frontend.endpoint)
        with pytest.raises(RemoteError) as excinfo:
            client.run(_config())
        assert excinfo.value.kind == "experiment"
        assert "engine exploded" in str(excinfo.value)
        assert frontend.stats["failed"] == 1
        records = frontend.journal.load_all()
        assert records[0]["state"] == "failed"
        assert "engine exploded" in records[0]["error"]["message"]


# ----------------------------------------------------------------------
# Admission control (deterministic, workers never running)
# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_queue_full_sheds_with_busy(self, unstarted_frontend):
        harness = _HandlerHarness(unstarted_frontend)
        try:
            kind, _rid, payload = harness.submit(_config())
            assert kind == FrameType.STATUS
            assert loads_payload(payload)["state"] == RUN_QUEUED
            kind, _rid, payload = harness.submit(_config(seeds=(1,)))
            assert kind == FrameType.BUSY
            busy = loads_payload(payload)
            assert busy["reason"] == "run queue full"
            assert busy["retry_after"] > 0
            assert unstarted_frontend.stats["busy_rejections"] == 1
            # The shed run was never registered — nothing to lose.
            assert unstarted_frontend.stats["accepted"] == 1
        finally:
            harness.close()

    def test_draining_frontend_sheds_with_busy(self, unstarted_frontend):
        unstarted_frontend._draining.set()
        harness = _HandlerHarness(unstarted_frontend)
        try:
            kind, _rid, payload = harness.submit(_config())
            assert kind == FrameType.BUSY
            assert loads_payload(payload)["reason"] == "draining"
        finally:
            harness.close()

    def test_tenant_quota_gates_admission(self, tmp_path):
        fe = ExperimentFrontend(
            str(tmp_path / "journal"), tenant_quota=100
        )
        # "greedy" has already burnt its quota; "frugal" has not.
        fe.ledger.charge_run(
            "greedy", "earlier-run", {"optimization": 150}
        )
        harness = _HandlerHarness(fe)
        try:
            kind, _rid, payload = harness.submit(_config(), tenant="greedy")
            assert kind == FrameType.ERROR
            assert loads_payload(payload)["kind"] == "quota"
            assert fe.stats["quota_rejections"] == 1
            kind, _rid, _payload = harness.submit(_config(), tenant="frugal")
            assert kind == FrameType.STATUS
        finally:
            harness.close()
            fe.stop()

    def test_cancel_queued_run(self, unstarted_frontend):
        harness = _HandlerHarness(unstarted_frontend)
        try:
            config = _config()
            rid, _payload = _submit_frames(config)
            harness.submit(config)
            assert unstarted_frontend._handle_cancel(harness.server_sock, rid)
            kind, _rid, payload = harness.reply()
            assert kind == FrameType.ERROR
            assert loads_payload(payload)["kind"] == "cancelled"
            assert unstarted_frontend.stats["cancelled"] == 1
            # The cancellation is durable.
            records = unstarted_frontend.journal.load_all()
            assert records[0]["state"] == RUN_CANCELLED
        finally:
            harness.close()

    def test_malformed_config_is_typed_config_error(self, unstarted_frontend):
        harness = _HandlerHarness(unstarted_frontend)
        try:
            payload = dumps_payload(
                {
                    "config": dict(
                        _config().to_dict(), circuit="no-such-circuit"
                    ),
                    "tenant": "t",
                }
            )
            # A bad config is the client's problem, not a stream-integrity
            # problem: the handler answers and keeps the connection.
            assert unstarted_frontend._handle_submit(
                harness.server_sock, b"\x11" * 32, payload
            )
            kind, _rid, body = harness.reply()
            assert kind == FrameType.ERROR
            decoded = loads_payload(body)
            assert decoded["kind"] == "config"
            assert "no-such-circuit" in decoded["message"]
            assert unstarted_frontend.stats["accepted"] == 0
        finally:
            harness.close()

    def test_bad_override_is_config_error_and_journals_nothing(
        self, unstarted_frontend
    ):
        harness = _HandlerHarness(unstarted_frontend)
        try:
            payload = dumps_payload(
                {
                    "config": dict(
                        _config().to_dict(), overrides={"batch_size": 0}
                    ),
                    "tenant": "t",
                }
            )
            assert unstarted_frontend._handle_submit(
                harness.server_sock, b"\x12" * 32, payload
            )
            kind, _rid, body = harness.reply()
            assert kind == FrameType.ERROR
            decoded = loads_payload(body)
            assert decoded["kind"] == "config"
            assert "batch_size" in decoded["message"]
            assert unstarted_frontend.stats["accepted"] == 0
            assert unstarted_frontend.journal.load_all() == []
        finally:
            harness.close()

    @pytest.mark.parametrize(
        "field, method",
        [
            ("workers", "C"),
            ("verification_chunk", "C"),
            ("optimization_samples", "C-MCL"),
            ("initial_samples", "C"),
        ],
    )
    def test_zero_count_is_config_error_and_journals_nothing(
        self, unstarted_frontend, field, method
    ):
        harness = _HandlerHarness(unstarted_frontend)
        try:
            config = dict(_config().to_dict(), method=method, **{field: 0})
            payload = dumps_payload({"config": config, "tenant": "t"})
            assert unstarted_frontend._handle_submit(
                harness.server_sock, b"\x13" * 32, payload
            )
            kind, _rid, body = harness.reply()
            assert kind == FrameType.ERROR
            decoded = loads_payload(body)
            assert decoded["kind"] == "config"
            assert field in decoded["message"]
            assert unstarted_frontend.stats["accepted"] == 0
            assert unstarted_frontend.journal.load_all() == []
        finally:
            harness.close()

    def test_unknown_run_status_is_typed_error(self, unstarted_frontend):
        harness = _HandlerHarness(unstarted_frontend)
        try:
            assert unstarted_frontend._handle_status(
                harness.server_sock, b"\x99" * 32
            )
            kind, _rid, payload = harness.reply()
            assert kind == FrameType.ERROR
            assert loads_payload(payload)["kind"] == "unknown-run"
        finally:
            harness.close()

    def test_mismatched_run_key_is_rejected(self, unstarted_frontend):
        harness = _HandlerHarness(unstarted_frontend)
        try:
            _rid, payload = _submit_frames(_config())
            assert not unstarted_frontend._handle_submit(
                harness.server_sock, b"\x42" * 32, payload
            )
            kind, _rid2, body = harness.reply()
            assert kind == FrameType.ERROR
            assert loads_payload(body)["kind"] == "protocol"
            assert unstarted_frontend.stats["accepted"] == 0
        finally:
            harness.close()

    def test_job_frames_rejected_on_experiment_endpoint(self, frontend):
        with socket.create_connection(frontend.address, timeout=5.0) as sock:
            send_frame(
                sock,
                FrameType.REQUEST,
                dumps_payload({"not": "a job"}),
                request_id=b"\x01" * 32,
            )
            kind, _rid, payload = recv_frame(sock)
            assert kind == FrameType.ERROR
            assert loads_payload(payload)["kind"] == "protocol"


# ----------------------------------------------------------------------
# Overload shedding end-to-end: BUSY observed, no accepted run lost
# ----------------------------------------------------------------------
class TestOverloadShedding:
    def test_concurrent_submissions_shed_but_none_lost(self, tmp_path):
        fe = ExperimentFrontend(
            str(tmp_path / "journal"), run_workers=1, max_queue=1
        )
        fe.start()
        configs = [_config(seeds=(seed,)) for seed in (0, 1, 2)]
        references = {
            seed: api.run_experiment(config)
            for seed, config in zip((0, 1, 2), configs)
        }
        reports, errors = {}, {}

        def _submit(seed, config):
            client = ExperimentClient(
                fe.endpoint,
                tenant="shared",
                poll_interval=0.05,
                busy_attempts=50,
            )
            try:
                reports[seed] = client.run(config)
            except BaseException as error:  # noqa: BLE001
                errors[seed] = error

        threads = [
            threading.Thread(target=_submit, args=(seed, config))
            for seed, config in zip((0, 1, 2), configs)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            fe.stop()
        assert errors == {}
        # With one worker and a queue of one, three simultaneous
        # submissions cannot all be admitted: at least one was shed and
        # had to retry — and still completed correctly.
        assert fe.stats["busy_rejections"] >= 1
        for seed in (0, 1, 2):
            assert _comparable_report(reports[seed]) == _comparable_report(
                references[seed]
            )
        # Every *accepted* run reached a journaled terminal state.
        states = [record["state"] for record in fe.journal.load_all()]
        assert states == [RUN_DONE] * fe.stats["accepted"]

    def test_client_raises_frontend_busy_when_retries_exhausted(
        self, tmp_path
    ):
        fe = ExperimentFrontend(str(tmp_path / "journal"), max_queue=0)
        fe.start()
        try:
            client = ExperimentClient(fe.endpoint, busy_attempts=2)
            started = time.monotonic()
            with pytest.raises(FrontendBusy):
                client.run(_config())
            assert client.busy_sheds == 3  # initial try + 2 retries
            # Backoff actually waited between sheds (seeded, not a spin).
            assert time.monotonic() - started > 0.05
        finally:
            fe.stop()


# ----------------------------------------------------------------------
# Journal replay (crash recovery, in-process)
# ----------------------------------------------------------------------
class TestJournalReplay:
    def test_interrupted_run_is_resumed_by_successor(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        config = _config()
        # Daemon A accepts the run and dies before executing it: all that
        # survives is the journal record (written before the ack).
        first = ExperimentFrontend(journal_dir)
        harness = _HandlerHarness(first)
        try:
            kind, _rid, _payload = harness.submit(config, tenant="alice")
            assert kind == FrameType.STATUS
        finally:
            harness.close()
            first.stop()
        # Daemon B on the same journal replays and executes it.
        second = ExperimentFrontend(journal_dir)
        assert second.stats["replayed_runs"] == 1
        second.start()
        try:
            report = api.run_experiment(
                config, endpoint=second.endpoint, tenant="alice"
            )
        finally:
            second.stop()
        assert _comparable_report(report) == _comparable_report(
            api.run_experiment(config)
        )
        assert second.stats["resubmissions"] == 1  # attached, not duplicated
        assert second.stats["accepted"] == 0
        records = second.journal.load_all()
        assert records[0]["state"] == RUN_DONE

    def test_completed_run_is_served_without_reexecution(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        config = _config()
        first = ExperimentFrontend(journal_dir)
        first.start()
        try:
            reference = api.run_experiment(config, endpoint=first.endpoint)
        finally:
            first.stop()
        second = ExperimentFrontend(journal_dir)
        second.start()
        try:
            report = api.run_experiment(config, endpoint=second.endpoint)
        finally:
            second.stop()
        assert _comparable_report(report) == _comparable_report(reference)
        assert second.stats["completed"] == 0  # nothing re-ran
        assert second.stats["resubmissions"] == 1
        # Replay also re-booked the tenant's charge, exactly once.
        assert (
            second.ledger.snapshot()["default"]["total"]
            == report.total_simulations
        )

    def test_queued_run_with_a_dropped_field_fails_and_daemon_serves_on(
        self, tmp_path
    ):
        """A run journaled by an older build whose config still carries
        ``pipeline`` replays into ``failed`` with the unknown-field error;
        the daemon then completes a fresh run as usual."""
        journal_dir = str(tmp_path / "journal")
        stale_config = _config().to_dict()
        stale_config["pipeline"] = True
        run_id = "ab" * 32
        ExperimentJournal(journal_dir).record(
            _Run(run_id, "alice", stale_config)
        )
        frontend = ExperimentFrontend(journal_dir)
        assert frontend.stats["replayed_runs"] == 1
        stale = frontend._runs[run_id]
        frontend.start()
        try:
            assert stale.done.wait(60)
            report = api.run_experiment(
                _config(), endpoint=frontend.endpoint, tenant="alice"
            )
        finally:
            frontend.stop()
        assert stale.state == RUN_FAILED
        assert stale.error["message"] == (
            "unknown ExperimentConfig fields: ['pipeline']"
        )
        records = {
            record["run_id"]: record for record in frontend.journal.load_all()
        }
        assert records[run_id]["state"] == RUN_FAILED
        assert frontend.stats["failed"] == 1
        assert frontend.stats["completed"] == 1
        assert _comparable_report(report) == _comparable_report(
            api.run_experiment(_config())
        )


# ----------------------------------------------------------------------
# Satellite: bounded result retention in the job-mode daemon
# ----------------------------------------------------------------------
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

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            SimulationServer(retention_max_entries=0)


# ----------------------------------------------------------------------
# Satellite: graceful drain for the job-mode daemon
# ----------------------------------------------------------------------
class _SlowBackend(SimulationBackend):
    """Terminal backend slow enough for a drain to race an execution."""

    name = "slowdrain-test"
    sleep_seconds = 0.6

    def __init__(self):
        self.inner = resolve_backend("batched")

    def evaluate(self, circuit, job):
        time.sleep(self.sleep_seconds)
        return self.inner.evaluate(circuit, job)


@pytest.fixture()
def slow_backend():
    BACKENDS[_SlowBackend.name] = _SlowBackend
    yield
    BACKENDS.pop(_SlowBackend.name, None)


class TestJobModeDrain:
    def test_drain_completes_inflight_execution(
        self, strongarm, slow_backend, conditions_job
    ):
        server = SimulationServer(
            backend=_SlowBackend.name, heartbeat_interval=0.1
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
        # The leased execution completed and its result reached the
        # client despite the drain racing it — over the wire, not via
        # the client's local fallback.
        assert "error" not in outcome, outcome.get("error")
        assert outcome["fallback_used"] == 0
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(
                outcome["metrics"][name], reference[name]
            )
        # And the daemon really stopped accepting.
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)


# ----------------------------------------------------------------------
# Satellite: SIGTERM/SIGINT → drain → exit 0 (subprocess, both modes)
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
    # A resuming daemon logs its journal replay before the listening
    # line; scan until the endpoint appears (or startup clearly failed).
    lines = []
    for _ in range(50):
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = re.search(r"listening on (\S+):(\d+)", line)
        if match:
            return proc, f"{match.group(1)}:{match.group(2)}"
    proc.kill()
    raise RuntimeError(f"repro serve failed to start: {lines!r}")


def _spawn_experiment_daemon(journal_dir, *extra_args):
    return _spawn_serve_daemon(
        None,
        "--mode",
        "experiment",
        "--journal-dir",
        str(journal_dir),
        *extra_args,
    )


class TestSignals:
    def test_job_mode_sigterm_exits_zero(self):
        proc, _endpoint = _spawn_serve_daemon()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

    def test_experiment_mode_sigterm_exits_zero(self, tmp_path):
        proc, _endpoint = _spawn_experiment_daemon(tmp_path / "journal")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0

    def test_experiment_mode_requires_journal_dir(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--mode", "experiment"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode != 0
        assert "--journal-dir" in completed.stderr


# ----------------------------------------------------------------------
# Acceptance: SIGKILL mid-run under network chaos, restart, resume
# ----------------------------------------------------------------------
class TestKillRestartAcceptance:
    def test_sigkill_mid_run_resumes_bit_identically(self, tmp_path):
        """The ISSUE's acceptance property.

        A client submits a two-seed run under a frame-drop fault
        schedule; the daemon is SIGKILLed the instant seed 0's checkpoint
        lands (seed 1 in flight); a successor on the same journal replays
        the run.  The client — which never learns any of this happened
        beyond latency — receives a report bit-identical to an
        uninterrupted local run, budget trajectory included, and the
        journal proves seed 0 was replayed from its checkpoint rather
        than re-simulated.
        """
        reference = api.run_experiment(api.ExperimentConfig(**_RESUME_CONFIG))
        journal_dir = tmp_path / "journal"
        proc, endpoint = _spawn_experiment_daemon(journal_dir)
        port = endpoint.rsplit(":", 1)[1]
        schedule = NetworkFaultSchedule(
            mode="drop", faults=2, ticket_dir=str(tmp_path / "tickets")
        )
        install_network_chaos(schedule)
        outcome = {}

        def _client():
            try:
                outcome["report"] = api.run_experiment(
                    api.ExperimentConfig(**_RESUME_CONFIG),
                    endpoint=endpoint,
                    tenant="acceptance",
                    client_options=dict(
                        poll_interval=0.05,
                        activity_timeout=5.0,
                        reconnect_timeout=120.0,
                    ),
                )
            except BaseException as error:  # noqa: BLE001
                outcome["error"] = error

        thread = threading.Thread(target=_client)
        thread.start()
        successor = None
        try:
            # Kill the daemon the moment seed 0's checkpoint is durable:
            # deterministic "mid-run", no timer races.
            pattern = str(journal_dir / "checkpoints" / "*" / "seed-0.json")
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if glob.glob(pattern):
                    break
                time.sleep(0.005)
            else:
                pytest.fail("seed 0 checkpoint never appeared")
            proc.kill()  # SIGKILL: no drain, no goodbye
            proc.wait(timeout=10)
            # Restart on the same port and journal (brief retry while the
            # kernel releases the port).
            for _attempt in range(100):
                try:
                    successor, _endpoint2 = _spawn_experiment_daemon(
                        journal_dir, "--host", "127.0.0.1", "--port", port
                    )
                    break
                except RuntimeError:
                    time.sleep(0.1)
            else:
                pytest.fail("successor daemon never bound the port")
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "client never completed"
        finally:
            schedule.disarm()
            install_network_chaos(None)
            proc.kill()
            if successor is not None:
                successor.send_signal(signal.SIGTERM)
        assert "error" not in outcome, outcome.get("error")
        assert _comparable_report(outcome["report"]) == _comparable_report(
            reference
        )
        # The journal proves zero re-simulation of the completed seed:
        # the resumed execution replayed seed 0 from its checkpoint.
        records = []
        for path in glob.glob(str(journal_dir / "runs" / "*.json")):
            with open(path) as handle:
                records.append(json.load(handle))
        done = [record for record in records if record["state"] == RUN_DONE]
        assert len(done) == 1
        assert 0 in done[0]["replayed_seeds"]
        assert done[0]["tenant"] == "acceptance"
        if successor is not None:
            assert successor.wait(timeout=30) == 0  # drained cleanly


# ----------------------------------------------------------------------
# Tenant ledger unit coverage
# ----------------------------------------------------------------------
class TestTenantBudgetLedger:
    def test_quota_admission_and_idempotent_charges(self):
        ledger = TenantBudgetLedger(quota=10)
        assert ledger.admits("a")
        assert ledger.remaining("a") == 10
        assert ledger.charge_run("a", "run-1", {"optimization": 6})
        assert ledger.admits("a")
        assert not ledger.charge_run("a", "run-1", {"optimization": 6})
        assert ledger.remaining("a") == 4
        # Completed work may overshoot the cap; admission then closes.
        assert ledger.charge_run("a", "run-2", {"verification": 9})
        assert not ledger.admits("a")
        assert ledger.remaining("a") == 0
        # Other tenants are unaffected.
        assert ledger.admits("b")

    def test_zero_quota_admits_nobody(self):
        ledger = TenantBudgetLedger(quota=0)
        assert not ledger.admits("a")
        assert ledger.remaining("a") == 0
        assert ledger.budget_for("a").total == 0

    def test_admission_books_no_tenant(self):
        """Asking about a tenant creates no entry; only a charge does."""
        ledger = TenantBudgetLedger(quota=0)
        for tenant in ("a", "b", "c"):
            assert not ledger.admits(tenant)
        assert ledger.snapshot() == {}
        ledger.charge_run("b", "run-1", {"optimization": 2})
        assert not ledger.admits("a")
        assert set(ledger.snapshot()) == {"b"}
        assert ledger.snapshot()["b"]["total"] == 2

    def test_unlimited_ledger_always_admits(self):
        ledger = TenantBudgetLedger()
        ledger.charge_run("a", "run-1", {"initial_sampling": 10**6})
        assert ledger.admits("a")
        assert ledger.remaining("a") is None

    def test_snapshot_is_phase_split(self):
        ledger = TenantBudgetLedger()
        ledger.charge_run(
            "a", "r", {"initial_sampling": 1, "optimization": 2, "verification": 3}
        )
        assert ledger.snapshot() == {
            "a": {
                "initial_sampling": 1,
                "optimization": 2,
                "verification": 3,
                "total": 6,
            }
        }


# ----------------------------------------------------------------------
# Stress soak (opt-in: pytest -m stress, scripts/stress.sh)
# ----------------------------------------------------------------------
@pytest.mark.stress
class TestFrontendSoak:
    def test_kill_restart_cycles_never_lose_a_run(self, tmp_path):
        """Repeatedly SIGKILL and restart the daemon while a stream of
        runs flows through it; every run must eventually complete with a
        report bit-identical to its local twin."""
        journal_dir = tmp_path / "journal"
        configs = [_config(seeds=(seed,)) for seed in range(6)]
        references = [api.run_experiment(config) for config in configs]
        proc, endpoint = _spawn_experiment_daemon(journal_dir)
        port = endpoint.rsplit(":", 1)[1]
        reports, errors = {}, {}

        def _client(index, config):
            client = ExperimentClient(
                endpoint,
                tenant=f"tenant-{index % 2}",
                poll_interval=0.05,
                busy_attempts=100,
                reconnect_timeout=300.0,
            )
            try:
                reports[index] = client.run(config)
            except BaseException as error:  # noqa: BLE001
                errors[index] = error

        threads = [
            threading.Thread(target=_client, args=(index, config))
            for index, config in enumerate(configs)
        ]
        for thread in threads:
            thread.start()
        try:
            for _cycle in range(3):
                time.sleep(1.0)
                proc.kill()
                proc.wait(timeout=10)
                for _attempt in range(200):
                    try:
                        proc, _endpoint = _spawn_experiment_daemon(
                            journal_dir, "--port", port
                        )
                        break
                    except RuntimeError:
                        time.sleep(0.1)
                else:
                    pytest.fail("daemon never came back")
            for thread in threads:
                thread.join(timeout=300.0)
        finally:
            proc.kill()
        assert errors == {}
        for index, reference in enumerate(references):
            assert _comparable_report(reports[index]) == _comparable_report(
                reference
            )


# ----------------------------------------------------------------------
# The experiment daemon on the shared daemon core
# ----------------------------------------------------------------------
class TestExperimentDaemonCore:
    def test_garbage_is_counted_and_ping_still_answers(self, frontend):
        with socket.create_connection(frontend.address, timeout=5.0) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n" + b"X" * 64)
            kind, _rid, payload = recv_frame(sock)
        assert kind == FrameType.ERROR
        assert loads_payload(payload)["kind"] == "protocol"
        assert frontend.stats["protocol_errors"] == 1
        with socket.create_connection(frontend.address, timeout=5.0) as sock:
            send_frame(sock, FrameType.PING)
            kind, _rid, _payload = recv_frame(sock)
        assert kind == FrameType.PONG

    def test_successor_binds_the_port_right_after_stop(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        first = ExperimentFrontend(journal_dir).start()
        host, port = first.address
        # A live client connection across the stop must not hold the port.
        idle = socket.create_connection((host, port), timeout=5.0)
        try:
            send_frame(idle, FrameType.PING)
            assert recv_frame(idle)[0] == FrameType.PONG
            first.stop()
            successor = ExperimentFrontend(journal_dir, port=port).start()
            try:
                probe = socket.create_connection((host, port), timeout=5.0)
                with probe:
                    send_frame(probe, FrameType.PING)
                    assert recv_frame(probe)[0] == FrameType.PONG
            finally:
                successor.stop()
        finally:
            idle.close()


class TestServeFlagValidation:
    def test_job_mode_rejects_experiment_flags(self, tmp_path):
        journal_dir = tmp_path / "jx"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--journal-dir",
                str(journal_dir),
                "--run-workers",
                "2",
                "--max-queue",
                "2",
                "--tenant-quota",
                "10",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode != 0
        for flag in (
            "--journal-dir",
            "--run-workers",
            "--max-queue",
            "--tenant-quota",
        ):
            assert flag in completed.stderr
        assert "--mode experiment" in completed.stderr
        assert not journal_dir.exists()
