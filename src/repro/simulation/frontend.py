"""``repro serve --mode experiment`` — the journaled experiment front end.

Where :mod:`repro.simulation.server` ships *raw simulation jobs*, this
module lets a daemon own a **whole sizing run**: clients submit an
:class:`~repro.api.ExperimentConfig` over SUBMIT/STATUS/RESULT/CANCEL
frames (:mod:`repro.simulation.protocol`) and the daemon drives
:func:`repro.api.run_experiment` itself, fanning out through the same
warm worker-pool machinery an in-process run would use.  The decision
loop and the simulation fleet become separable processes, which forces
run state out of one process's stack and into durable storage — the
three robustness layers below are the point of the module:

**Crash safety (write-ahead journal).**  Every accepted run is journaled
*before* the acceptance frame goes out: one atomic JSON record per run
(same-directory temp file + ``os.replace``, exactly like the checkpoint
store) carrying the config, tenant, and state transitions
``queued → running → done/failed/cancelled``.  A SIGKILLed daemon
restarted on the same ``--journal-dir`` replays the journal: finished
runs come back servable, interrupted runs re-enqueue, and because the
front end forces every run's ``checkpoint_dir`` under the journal, the
re-run replays completed seeds from their checkpoints — zero
re-simulation, a report bit-identical to an uninterrupted run.

**Admission control (per-tenant budgets + bounded queue).**  Each tenant
id maps to a server-side :class:`~repro.simulation.budget.SimulationBudget`
via :class:`~repro.simulation.budget.TenantBudgetLedger`; a tenant past
its ``--tenant-quota`` is refused with a typed ``quota`` error.  The run
queue is bounded (``--max-queue``): when full, the server sheds load
with a BUSY/RETRY-AFTER frame instead of queuing unboundedly.  The
client treats BUSY as backpressure, not a fault — seeded backoff and
resubmit, no breaker-style penalty, surfaced as :class:`FrontendBusy`
only when retries are exhausted.

**Graceful drain.**  SIGTERM/SIGINT (via
:meth:`ExperimentFrontend.request_drain`) stops accepting, lets
executing runs finish (journaled ``done``), leaves queued runs journaled
``queued`` for the successor daemon, and exits 0.  Draining connections
keep getting STATUS answers, so clients collect their RESULT.  It runs
on the shared :class:`~repro.simulation.daemon.Daemon` core with
SUBMIT/STATUS/CANCEL handlers.

The run identity is the **run key** — a content hash over the config
fingerprint, the seed tuple and the tenant — used as the frame request
id.  Resubmitting the same experiment is therefore always idempotent:
a reconnecting client (or a second client racing the first) attaches to
the journaled run instead of spawning a duplicate.

Like the job daemon, this is **trusted-perimeter** infrastructure
(pickled payloads): bind to loopback or a private network only.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import queue
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro.simulation.atomic import atomic_write
from repro.simulation.budget import TenantBudgetLedger
from repro.simulation.daemon import Daemon
from repro.simulation.protocol import (
    FrameType,
    ProtocolError,
    dumps_payload,
    loads_error,
    loads_payload,
    recv_frame,
    request_id_bytes,
    send_frame,
)
from repro.simulation.service import RetryPolicy

logger = logging.getLogger(__name__)

#: Layout version of journal records; bumped on shape changes so stale
#: journals are skipped, never misread.
JOURNAL_FORMAT_VERSION = 1

#: Run lifecycle states (journaled verbatim).
RUN_QUEUED = "queued"
RUN_RUNNING = "running"
RUN_DONE = "done"
RUN_FAILED = "failed"
RUN_CANCELLED = "cancelled"

#: States a replayed daemon re-enqueues: a run that was accepted but had
#: not finished when the predecessor died still owes the client a result.
RESUMABLE_STATES = (RUN_QUEUED, RUN_RUNNING)
TERMINAL_STATES = (RUN_DONE, RUN_FAILED, RUN_CANCELLED)

DEFAULT_MAX_QUEUE = 8
DEFAULT_RETRY_AFTER = 0.5
DEFAULT_POLL_INTERVAL = 0.25
DEFAULT_BUSY_ATTEMPTS = 10
DEFAULT_RECONNECT_TIMEOUT = 60.0


class FrontendBusy(RuntimeError):
    """The front end shed this submission and retries were exhausted.

    Deliberately *not* a :class:`RemoteError`: overload is backpressure,
    not a fault — callers that catch it should resubmit later, and
    nothing about the endpoint's health should be inferred from it.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class FrontendUnavailable(RuntimeError):
    """The front end could not be reached within the reconnect budget."""


def run_key(config: Any, tenant: str) -> str:
    """Deterministic identity of one (experiment, tenant) submission.

    Built from the config *fingerprint* (every result-bearing field) plus
    the seed tuple (excluded from the fingerprint because checkpoints are
    per-seed) and the tenant.  Two clients submitting the same sizing run
    for the same tenant therefore coalesce onto one journaled run — and a
    client resubmitting after a daemon crash attaches to the replayed one.
    """
    from repro.api import _config_fingerprint

    payload = {
        "fingerprint": _config_fingerprint(config),
        "seeds": list(config.seeds),
        "tenant": str(tenant),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _report_simulations(report_payload: Dict[str, Any]) -> Dict[str, int]:
    """Phase-split simulation totals of one serialized ExperimentReport."""
    totals: Dict[str, int] = {}
    for run in report_payload.get("runs", ()):
        for phase, count in (run.get("simulations") or {}).items():
            totals[phase] = totals.get(phase, 0) + int(count or 0)
    return totals


class _Run:
    """One accepted experiment run (in-memory view of a journal record)."""

    def __init__(
        self,
        run_id: str,
        tenant: str,
        config_payload: Dict[str, Any],
        state: str = RUN_QUEUED,
    ):
        self.run_id = run_id
        self.tenant = tenant
        self.config_payload = config_payload
        self.state = state
        self.error: Optional[Dict[str, str]] = None
        self.report: Optional[Dict[str, Any]] = None
        #: Seeds replayed from per-seed checkpoints (zero re-simulation) —
        #: the observable proof of the journal-resume property.
        self.replayed_seeds: List[int] = []
        self.done = threading.Event()

    def journal_payload(self) -> Dict[str, Any]:
        return {
            "version": JOURNAL_FORMAT_VERSION,
            "run_id": self.run_id,
            "tenant": self.tenant,
            "config": self.config_payload,
            "state": self.state,
            "error": self.error,
            "report": self.report,
            "replayed_seeds": list(self.replayed_seeds),
            "updated_at": time.time(),
        }

    @classmethod
    def from_journal_payload(cls, payload: Dict[str, Any]) -> "_Run":
        run = cls(
            run_id=str(payload["run_id"]),
            tenant=str(payload.get("tenant") or "default"),
            config_payload=dict(payload["config"]),
            state=str(payload.get("state") or RUN_QUEUED),
        )
        run.error = payload.get("error")
        run.report = payload.get("report")
        run.replayed_seeds = [
            int(seed) for seed in payload.get("replayed_seeds") or ()
        ]
        if run.state in TERMINAL_STATES:
            run.done.set()
        return run


class ExperimentJournal:
    """Atomic one-file-per-run write-ahead journal under ``directory``.

    ``runs/<run_id>.json`` records (atomic same-directory temp +
    ``os.replace``, the checkpoint-store discipline: an interrupted
    writer can never leave a torn record under the final name), and
    ``checkpoints/`` for the per-seed resume layer every run is forced
    onto.
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        self.runs_dir = os.path.join(self.directory, "runs")
        self.checkpoints_dir = os.path.join(self.directory, "checkpoints")
        os.makedirs(self.runs_dir, exist_ok=True)
        os.makedirs(self.checkpoints_dir, exist_ok=True)

    def path_for(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, f"{run_id}.json")

    def record(self, run: _Run) -> str:
        """Atomically persist the run's current state; returns the path."""
        path = self.path_for(run.run_id)
        atomic_write(
            path, json.dumps(run.journal_payload(), indent=2, sort_keys=True)
        )
        return path

    def load_all(self) -> List[Dict[str, Any]]:
        """Every readable journal record (broken ones skipped, logged)."""
        records = []
        try:
            names = sorted(os.listdir(self.runs_dir))
        except OSError:
            return records
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.runs_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload.get("version") != JOURNAL_FORMAT_VERSION:
                    raise ValueError(
                        f"journal format {payload.get('version')!r}"
                    )
                if not isinstance(payload.get("config"), dict):
                    raise ValueError("journal record without a config")
                records.append(payload)
            except (OSError, ValueError, KeyError, TypeError) as error:
                logger.warning(
                    "skipping unreadable journal record %s: %s", path, error
                )
        return records


class ExperimentFrontend(Daemon):
    """A socket front end that owns whole sizing runs.

    Parameters
    ----------
    journal_dir:
        Durable root for the write-ahead journal and the per-seed
        checkpoints.  Restarting a daemon on the same directory resumes
        every accepted-but-unfinished run.
    host / port:
        Bind address (``port=0`` = ephemeral; read :attr:`endpoint`).
    run_workers:
        Experiment runs executed concurrently (each run fans out through
        its own service/worker-pool machinery as configured).
    max_queue:
        Bound on *queued* (accepted, not yet executing) runs; submissions
        past it are shed with BUSY instead of queued unboundedly.
    tenant_quota:
        Per-tenant simulation cap gating admission (``None`` = unlimited).
    retry_after_seconds:
        Hint carried by BUSY frames.
    """

    #: A SIGTERM lets executing runs finish: sizing runs take minutes.
    drain_timeout = 600.0

    def __init__(
        self,
        journal_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        run_workers: int = 1,
        max_queue: int = DEFAULT_MAX_QUEUE,
        tenant_quota: Optional[int] = None,
        retry_after_seconds: float = DEFAULT_RETRY_AFTER,
    ):
        super().__init__(
            host,
            port,
            counters=(
                "submissions",
                "accepted",
                "resubmissions",
                "busy_rejections",
                "quota_rejections",
                "completed",
                "failed",
                "cancelled",
                "replayed_runs",
            ),
        )
        self.journal = ExperimentJournal(journal_dir)
        self.ledger = TenantBudgetLedger(quota=tenant_quota)
        self.run_workers = max(1, int(run_workers))
        self.max_queue = max(0, int(max_queue))
        self.retry_after_seconds = float(retry_after_seconds)

        self._worker_threads: List[threading.Thread] = []
        self._runs: Dict[str, _Run] = {}
        self._queue: "queue.Queue[str]" = queue.Queue()
        #: Run ids currently executing (drain waits on these).
        self._active: set = set()
        self.handlers = {
            FrameType.SUBMIT: self._handle_submit,
            FrameType.STATUS: self._handle_status,
            FrameType.CANCEL: self._handle_cancel,
        }
        self._replay_journal()

    # ------------------------------------------------------------------
    # Journal replay (crash recovery)
    # ------------------------------------------------------------------
    def _replay_journal(self) -> None:
        """Rebuild run state from the journal before the listener opens.

        Terminal runs become servable again (a reconnecting client's
        STATUS poll finds its report without re-simulation) and their
        tenant charges are re-booked idempotently; interrupted runs
        re-enqueue — their per-seed checkpoints make the re-run cheap.
        """
        for payload in self.journal.load_all():
            try:
                run = _Run.from_journal_payload(payload)
            except (KeyError, TypeError, ValueError) as error:
                logger.warning("skipping malformed journal run: %s", error)
                continue
            self._runs[run.run_id] = run
            if run.state in RESUMABLE_STATES:
                run.state = RUN_QUEUED
                self.journal.record(run)
                self._queue.put(run.run_id)
                self._count("replayed_runs")
                logger.info(
                    "journal replay: resuming run %s (tenant %s)",
                    run.run_id[:12],
                    run.tenant,
                )
            elif run.state == RUN_DONE and run.report is not None:
                self.ledger.charge_run(
                    run.tenant, run.run_id, _report_simulations(run.report)
                )

    # ------------------------------------------------------------------
    # Daemon hooks
    # ------------------------------------------------------------------
    def _on_start(self) -> None:
        for index in range(self.run_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-frontend-run-{index}",
                daemon=True,
            )
            thread.start()
            self._worker_threads.append(thread)
        logger.info(
            "experiment frontend listening on %s (journal=%s, workers=%d, "
            "max_queue=%d)",
            self.endpoint,
            self.journal.directory,
            self.run_workers,
            self.max_queue,
        )

    def _on_stop(self) -> None:
        for thread in self._worker_threads:
            thread.join(timeout=5.0)
        self._worker_threads = []

    def _in_flight(self) -> bool:
        return bool(self._active)

    # ------------------------------------------------------------------
    # Run execution
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                run_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if self._draining.is_set() or self._stopping.is_set():
                # Leave the run journaled `queued`; the successor daemon
                # replays it.  (This process is exiting either way.)
                continue
            with self._lock:
                run = self._runs.get(run_id)
                if run is None or run.state != RUN_QUEUED:
                    continue  # cancelled (or lost) while queued
                run.state = RUN_RUNNING
                self._active.add(run_id)
            try:
                self.journal.record(run)
                self._execute_run(run)
            finally:
                with self._lock:
                    self._active.discard(run_id)

    def _execute_run(self, run: _Run) -> None:
        """Drive one run to a terminal state and journal the transition."""
        from repro import api

        try:
            config = api.ExperimentConfig.from_dict(dict(run.config_payload))
            # Force the durable per-seed resume layer under the journal:
            # checkpoint_dir is fingerprint-excluded, so this never
            # changes what the run computes — only what a restart skips.
            config = config.with_overrides(
                checkpoint_dir=self.journal.checkpoints_dir
            )
            replayed = [
                seed
                for seed in config.seeds
                if api.load_checkpoint(config, seed) is not None
            ]
            report = api.run_experiment(config)
        except Exception as error:  # noqa: BLE001 - journaled, sent to client
            logger.exception("run %s failed", run.run_id[:12])
            run.error = {"kind": "experiment", "message": str(error)}
            run.state = RUN_FAILED
            self._count("failed")
        else:
            run.report = report.to_dict()
            run.replayed_seeds = [int(seed) for seed in replayed]
            run.state = RUN_DONE
            self.ledger.charge_run(
                run.tenant, run.run_id, _report_simulations(run.report)
            )
            self._count("completed")
        self.journal.record(run)
        run.done.set()

    def _queued_count_locked(self) -> int:
        return sum(
            1 for run in self._runs.values() if run.state == RUN_QUEUED
        )

    # ------------------------------------------------------------------
    # Frame handlers
    # ------------------------------------------------------------------
    def _handle_submit(
        self, sock: socket.socket, request_id: bytes, payload: bytes
    ) -> bool:
        """Admit (or shed) one SUBMIT.  Returns False to drop the stream."""
        from repro import api

        self._count("submissions")
        decoded = loads_payload(payload)
        if not isinstance(decoded, dict) or not isinstance(
            decoded.get("config"), dict
        ):
            self._count("protocol_errors")
            self._reply_error(
                sock,
                request_id,
                "protocol",
                "SUBMIT payload must be {'config': dict, 'tenant': str}",
            )
            return False
        tenant = str(decoded.get("tenant") or "default")
        try:
            config = api.ExperimentConfig.from_dict(dict(decoded["config"]))
        except (ValueError, TypeError) as error:
            # A malformed config is *this client's* problem, and the
            # stream still has integrity — answer and keep serving.
            return self._reply_error(sock, request_id, "config", error)
        run_id = request_id.hex()
        if run_key(config, tenant) != run_id:
            self._count("protocol_errors")
            self._reply_error(
                sock,
                request_id,
                "protocol",
                f"request id {run_id[:12]} does not match the "
                f"submission's run key",
            )
            return False

        # Decide under the lock, reply outside it (replies do network I/O
        # and _send_status_for re-takes the lock for the queue depth).
        with self._lock:
            existing = self._runs.get(run_id)
            if existing is not None:
                # Idempotent resubmission — reconnecting client, replayed
                # daemon, or a second tenant process racing the first.
                self._count_locked("resubmissions")
                verdict, run = "attach", existing
            elif self._draining.is_set() or self._stopping.is_set():
                self._count_locked("busy_rejections")
                verdict, run = "busy", None
                reason = "draining"
            elif self._queued_count_locked() >= self.max_queue:
                self._count_locked("busy_rejections")
                verdict, run = "busy", None
                reason = "run queue full"
            elif not self.ledger.admits(tenant):
                self._count_locked("quota_rejections")
                verdict, run = "quota", None
            else:
                run = _Run(run_id, tenant, config.to_dict())
                self._runs[run_id] = run
                self._count_locked("accepted")
                verdict = "accept"
        if verdict == "attach":
            return self._send_status_for(sock, request_id, run)
        if verdict == "busy":
            busy = dumps_payload(
                {"retry_after": self.retry_after_seconds, "reason": reason}
            )
            return self._reply(sock, FrameType.BUSY, request_id, busy)
        if verdict == "quota":
            return self._reply_error(
                sock,
                request_id,
                "quota",
                f"tenant {tenant!r} has exhausted its simulation "
                f"quota ({self.ledger.quota})",
            )
        # Write-ahead discipline: the journal record lands *before* the
        # acceptance frame — a daemon that dies in between owes nothing
        # (the client retries the idempotent SUBMIT), and one that dies
        # after has the run durably queued for replay.
        self.journal.record(run)
        self._queue.put(run_id)
        return self._send_status_for(sock, request_id, run)

    def _handle_status(
        self, sock: socket.socket, request_id: bytes, _payload: bytes = b""
    ) -> bool:
        with self._lock:
            run = self._runs.get(request_id.hex())
        if run is None:
            return self._reply_error(
                sock,
                request_id,
                "unknown-run",
                "no such run (never submitted, or journal lost)",
            )
        return self._send_status_for(sock, request_id, run)

    def _handle_cancel(
        self, sock: socket.socket, request_id: bytes, _payload: bytes = b""
    ) -> bool:
        with self._lock:
            run = self._runs.get(request_id.hex())
            # Only queued runs cancel; executing runs complete (their
            # simulations are already paid for) and terminal runs keep
            # their state — the reply below reports whatever stands.
            if run is not None and run.state == RUN_QUEUED:
                run.state = RUN_CANCELLED
                run.done.set()
                self._count_locked("cancelled")
        if run is None:
            return self._reply_error(
                sock, request_id, "unknown-run", "no such run"
            )
        if run.state == RUN_CANCELLED:
            self.journal.record(run)
        return self._send_status_for(sock, request_id, run)

    def _send_status_for(
        self, sock: socket.socket, request_id: bytes, run: _Run
    ) -> bool:
        """The state-appropriate reply for one run: RESULT / ERROR / STATUS.

        False means the client is gone; the journal still owns the run.
        """
        if run.state == RUN_DONE:
            reply = {
                "report": run.report,
                "replayed_seeds": list(run.replayed_seeds),
            }
            return self._reply(
                sock, FrameType.RESULT, request_id, dumps_payload(reply)
            )
        if run.state == RUN_FAILED:
            error = run.error or {}
            return self._reply_error(
                sock,
                request_id,
                str(error.get("kind", "experiment")),
                str(error.get("message", "run failed")),
            )
        if run.state == RUN_CANCELLED:
            return self._reply_error(
                sock, request_id, "cancelled", "run was cancelled"
            )
        with self._lock:
            queued = self._queued_count_locked()
        return self._reply(
            sock,
            FrameType.STATUS,
            request_id,
            dumps_payload({"state": run.state, "queue_depth": queued}),
        )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class ExperimentClient:
    """Submit an experiment to a front end and await its report.

    Three failure classes, handled distinctly:

    * **BUSY** (overload shedding) — seeded backoff honouring the
      server's retry-after hint, then an idempotent resubmit; surfaces
      as :class:`FrontendBusy` only after ``busy_attempts`` sheds.  Never
      treated as a fault.
    * **Connection loss / protocol damage** (daemon crashed, restarting,
      chaos on the wire) — reconnect with seeded backoff for up to
      ``reconnect_timeout`` seconds; the resubmitted SUBMIT attaches to
      the journal-replayed run, so a daemon SIGKILLed mid-run costs
      latency, never correctness.  :class:`FrontendUnavailable` when the
      budget runs out.
    * **ERROR frames** (bad config, tenant over quota, failed run) —
      raised immediately as :class:`~repro.simulation.protocol.RemoteError`
      with the server's kind; retrying cannot help.
    """

    def __init__(
        self,
        endpoint: str,
        tenant: str = "default",
        connect_timeout: float = 2.0,
        activity_timeout: float = 30.0,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        busy_attempts: int = DEFAULT_BUSY_ATTEMPTS,
        reconnect_timeout: float = DEFAULT_RECONNECT_TIMEOUT,
    ):
        from repro.simulation.remote import parse_endpoints

        endpoints = parse_endpoints(endpoint)
        if len(endpoints) != 1:
            raise ValueError(
                f"ExperimentClient takes exactly one endpoint, got "
                f"{endpoint!r}"
            )
        self.address = endpoints[0]
        self.tenant = str(tenant)
        self.connect_timeout = float(connect_timeout)
        self.activity_timeout = float(activity_timeout)
        self.poll_interval = float(poll_interval)
        self.busy_attempts = int(busy_attempts)
        self.reconnect_timeout = float(reconnect_timeout)
        #: Seeded deterministic backoff (keyed by run id + attempt) for
        #: both BUSY sheds and reconnects.
        self.policy = RetryPolicy(max_attempts=1, backoff=0.05, jitter=0.1)
        #: Observable counters (tests and operators read these).
        self.busy_sheds = 0
        self.reconnects = 0

    # ------------------------------------------------------------------
    def run(self, config: Any) -> Any:
        """Submit ``config`` and block until the report (or a typed error)."""
        run_id = run_key(config, self.tenant)
        request_id = request_id_bytes(run_id)
        submit_payload = dumps_payload(
            {"config": config.to_dict(), "tenant": self.tenant}
        )
        busy_count = 0
        reconnect_attempt = 0
        deadline = time.monotonic() + self.reconnect_timeout
        last_error: Optional[BaseException] = None
        while True:
            try:
                return self._attempt(
                    config, request_id, submit_payload, run_id
                )
            except FrontendBusy as busy:
                busy_count += 1
                self.busy_sheds += 1
                if busy_count > self.busy_attempts:
                    raise FrontendBusy(
                        f"front end still shedding after {busy_count} "
                        f"submissions",
                        retry_after=busy.retry_after,
                    ) from None
                delay = self.policy.delay(run_id, min(busy_count, 6))
                time.sleep(max(delay, busy.retry_after or 0.0))
                # A shed submission consumed no server state; the
                # reconnect budget restarts with each accepted wait.
                deadline = time.monotonic() + self.reconnect_timeout
            except (
                ProtocolError,
                OSError,
                TimeoutError,
                socket.timeout,
            ) as error:
                # Daemon gone or restarting (or chaos ate a frame):
                # back off and resubmit — the run key makes it idempotent.
                last_error = error
                self.reconnects += 1
                reconnect_attempt += 1
                if time.monotonic() > deadline:
                    raise FrontendUnavailable(
                        f"experiment front end at "
                        f"{self.address[0]}:{self.address[1]} unreachable "
                        f"for {self.reconnect_timeout:.0f}s "
                        f"(last error: {last_error})"
                    ) from error
                self.policy.sleep(run_id, min(reconnect_attempt, 6))

    def _attempt(
        self,
        config: Any,
        request_id: bytes,
        submit_payload: bytes,
        run_id: str,
    ) -> Any:
        """One connection's worth of progress: submit, poll, decode."""
        with socket.create_connection(
            self.address, timeout=self.connect_timeout
        ) as sock:
            sock.settimeout(self.activity_timeout)
            send_frame(
                sock, FrameType.SUBMIT, submit_payload, request_id=request_id
            )
            while True:
                kind, reply_id, payload = recv_frame(sock)
                if kind == FrameType.PONG:
                    continue
                if reply_id != request_id:
                    raise ProtocolError(
                        "reply correlates to a different run"
                    )
                if kind == FrameType.BUSY:
                    raise self._decode_busy(payload)
                if kind == FrameType.ERROR:
                    raise loads_error(payload)
                if kind == FrameType.RESULT:
                    return self._decode_report(config, payload)
                if kind != FrameType.STATUS:
                    raise ProtocolError(f"unexpected {kind.name} frame")
                # Queued or running: poll again after a beat.  Each
                # STATUS reply is server activity, so a healthy long run
                # never trips the activity timeout.
                time.sleep(self.poll_interval)
                send_frame(
                    sock, FrameType.STATUS, request_id=request_id
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _decode_busy(payload: bytes) -> FrontendBusy:
        decoded = loads_payload(payload)
        retry_after: Optional[float] = None
        reason = "overloaded"
        if isinstance(decoded, dict):
            try:
                retry_after = (
                    None
                    if decoded.get("retry_after") is None
                    else float(decoded["retry_after"])
                )
            except (TypeError, ValueError):
                retry_after = None
            reason = str(decoded.get("reason") or reason)
        return FrontendBusy(
            f"front end shed the submission ({reason})",
            retry_after=retry_after,
        )

    @staticmethod
    def _decode_report(config: Any, payload: bytes) -> Any:
        """Validate and rehydrate the RESULT payload into a report.

        The report is rebuilt around the *client's* config object (what
        was asked for), with each run re-parsed through
        :class:`~repro.api.RunReport` — a corrupted payload is a typed
        :class:`ProtocolError`, never a half-report.
        """
        from repro import api

        decoded = loads_payload(payload)
        if not isinstance(decoded, dict) or not isinstance(
            decoded.get("report"), dict
        ):
            raise ProtocolError("RESULT payload must carry a report dict")
        try:
            runs = [
                api.RunReport.from_dict(run)
                for run in decoded["report"]["runs"]
            ]
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(
                f"undecodable experiment report: {error}"
            ) from None
        results = [run.to_result() for run in runs]
        return api.ExperimentReport(config=config, runs=runs, results=results)


__all__ = [
    "DEFAULT_BUSY_ATTEMPTS",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_POLL_INTERVAL",
    "DEFAULT_RECONNECT_TIMEOUT",
    "DEFAULT_RETRY_AFTER",
    "ExperimentClient",
    "ExperimentFrontend",
    "ExperimentJournal",
    "FrontendBusy",
    "FrontendUnavailable",
    "JOURNAL_FORMAT_VERSION",
    "RESUMABLE_STATES",
    "RUN_CANCELLED",
    "RUN_DONE",
    "RUN_FAILED",
    "RUN_QUEUED",
    "RUN_RUNNING",
    "TERMINAL_STATES",
    "run_key",
]
