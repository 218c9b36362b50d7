"""Learned per-row simulation cost estimates for the shard scheduler.

Real-engine rows are heavy-tailed: per-deck timeouts, convergence
retries and per-corner transient-length differences make one row cost
10× its siblings, and a scheduler that slices uniformly idles the whole
pool behind that straggler.  This module is the cost side of the
work-stealing scheduler in :mod:`repro.simulation.sharding`:

* every evaluation stamps its wall-clock into the metrics block under
  the reserved :data:`ROW_SECONDS_KEY` (one ``(B,)`` array, seconds per
  row — exact for one-row shards, a uniform split of the shard's
  elapsed time otherwise);
* :class:`RowCostModel` accumulates those observations — exact per-row
  costs keyed by the job's content hash, plus an EWMA seconds-per-row
  rate keyed by ``(circuit, backend)`` — and answers ``predict(job)``
  when the dispatcher plans the next job's chunk bounds;
* with a ``sidecar_dir`` (the disk cache's ``spill_dir`` keyspace, same
  ``<hash[:2]>/<hash>`` fan-out), observations persist across runs:
  the second sweep of an experiment plans its chunks from the first
  sweep's measured row costs.

Reserved keys (the ``__``-prefixed namespace) ride inside metrics
dicts but are **not metrics**: failure detection skips them, the cache
refuses to store them, and :class:`~repro.simulation.service.SimResult`
pops :data:`ROW_SECONDS_KEY` into its ``row_seconds`` field before
consumers see the block.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional

import numpy as np

from repro.simulation.atomic import atomic_write

#: Prefix marking reserved (non-metric) keys inside a metrics block.
RESERVED_METRIC_PREFIX = "__"

#: Reserved key carrying per-row wall-clock seconds through a metrics
#: block: one ``(B,)`` float array, NaN for rows that never ran (e.g.
#: watchdog-degraded shards).
ROW_SECONDS_KEY = "__row_seconds__"

#: Sidecar layout version; unknown versions are ignored (treated as
#: having no prior observations), never misread.
COST_SIDECAR_VERSION = 1


def is_reserved_metric(name: str) -> bool:
    """Whether ``name`` is a reserved (non-metric) metrics-block key."""
    return name.startswith(RESERVED_METRIC_PREFIX)


def strip_reserved_metrics(
    metrics: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """``metrics`` without reserved keys (a new dict; input untouched)."""
    return {
        name: values
        for name, values in metrics.items()
        if not is_reserved_metric(name)
    }


class RowCostModel:
    """Accumulates per-row wall-clock observations and predicts job costs.

    Thread-safe: observations arrive from whichever thread resolves a
    shard handle while the control loop plans the next dispatch.  Two
    granularities are kept:

    * **exact rows** — the last observed ``(B,)`` seconds array per job
      content hash, so re-simulating a known job (a retry, a cache-
      refused failure block, the second run of a sweep) plans chunks
      from that job's *actual* per-row costs;
    * **rates** — an EWMA of mean seconds-per-row keyed by
      ``circuit:backend``, the fallback prediction for jobs never seen
      before (uniform, but correctly scaled for watchdog deadlines and
      cross-job comparisons).

    With ``sidecar_dir`` both granularities persist to disk as JSON
    sidecars (atomic same-directory replace, like the cache spill) and
    are consulted on a memory miss, so cost knowledge survives the
    process.  Every persistence failure is silent by design: a model
    that cannot read or write its sidecars is merely uninformed, never
    wrong.
    """

    def __init__(
        self,
        sidecar_dir: Optional[str] = None,
        alpha: float = 0.25,
        max_jobs: int = 4096,
    ):
        self.alpha = float(alpha)
        self.max_jobs = int(max_jobs)
        self.sidecar_dir: Optional[str] = None
        self._lock = threading.Lock()
        self._rows: Dict[str, np.ndarray] = {}
        self._rates: Dict[str, float] = {}
        #: Observations accepted so far (observable; tests assert it).
        self.observations = 0
        if sidecar_dir is not None:
            self.sidecar_dir = os.path.abspath(os.fspath(sidecar_dir))
            try:
                os.makedirs(self.sidecar_dir, exist_ok=True)
            except OSError:
                self.sidecar_dir = None
        self._load_summary()

    # ------------------------------------------------------------------
    @staticmethod
    def _rate_key(circuit_name: str, backend_name: str) -> str:
        return f"{circuit_name}:{backend_name}"

    def rate(self, circuit_name: str, backend_name: str) -> Optional[float]:
        """The learned EWMA seconds-per-row for one (circuit, backend)."""
        with self._lock:
            return self._rates.get(self._rate_key(circuit_name, backend_name))

    # ------------------------------------------------------------------
    def observe(
        self, job, row_seconds: np.ndarray, backend_name: str
    ) -> bool:
        """Record one job's measured per-row seconds.

        Non-finite and negative entries (rows that never ran) are
        excluded from the rate update and from the stored exact rows'
        usable mask; an observation with no finite row is dropped.
        Returns whether the observation was accepted.
        """
        rows = np.asarray(row_seconds, dtype=float)
        if rows.ndim != 1 or rows.shape[0] != job.batch:
            return False
        finite = np.isfinite(rows) & (rows >= 0)
        if not finite.any():
            return False
        mean = float(rows[finite].mean())
        key = self._rate_key(job.circuit_name, backend_name)
        with self._lock:
            if len(self._rows) >= self.max_jobs:
                # Drop the oldest exact-rows entry (insertion order);
                # the EWMA rate retains its contribution.
                self._rows.pop(next(iter(self._rows)), None)
            self._rows[job.job_id] = rows.copy()
            previous = self._rates.get(key)
            self._rates[key] = (
                mean
                if previous is None
                else (1.0 - self.alpha) * previous + self.alpha * mean
            )
            self.observations += 1
            rates = dict(self._rates)
        self._write_job_sidecar(
            job.job_id, job.circuit_name, backend_name, rows
        )
        self._write_summary(rates)
        return True

    def predict(self, job, backend_name: str) -> Optional[np.ndarray]:
        """Predicted ``(B,)`` seconds per row for ``job``, or ``None``.

        Exact observed rows win (memory, then sidecar); otherwise the
        ``circuit:backend`` EWMA rate broadcasts uniformly; a model with
        no knowledge returns ``None`` and the scheduler falls back to
        cost-agnostic chunking.
        """
        with self._lock:
            rows = self._rows.get(job.job_id)
        if rows is None:
            rows = self._load_job_sidecar(job.job_id)
            if rows is not None and rows.shape[0] == job.batch:
                with self._lock:
                    self._rows.setdefault(job.job_id, rows)
        if rows is not None and rows.shape[0] == job.batch:
            finite = np.isfinite(rows) & (rows >= 0)
            if finite.any():
                filled = rows.copy()
                filled[~finite] = float(rows[finite].mean())
                return filled
        rate = self.rate(job.circuit_name, backend_name)
        if rate is not None and rate > 0:
            return np.full(job.batch, rate)
        return None

    # ------------------------------------------------------------------
    # Sidecar persistence (best-effort, atomic, version-stamped)
    # ------------------------------------------------------------------
    def _job_sidecar_path(self, job_id: str) -> str:
        assert self.sidecar_dir is not None
        return os.path.join(self.sidecar_dir, job_id[:2], f"{job_id}.json")

    def _summary_path(self) -> str:
        assert self.sidecar_dir is not None
        return os.path.join(self.sidecar_dir, "summary.json")

    def _write_job_sidecar(
        self,
        job_id: str,
        circuit_name: str,
        backend_name: str,
        rows: np.ndarray,
    ) -> None:
        if self.sidecar_dir is None:
            return
        payload = {
            "version": COST_SIDECAR_VERSION,
            "circuit": circuit_name,
            "backend": backend_name,
            # JSON has no NaN literal; encode never-ran rows as None.
            "row_seconds": [
                float(value) if np.isfinite(value) else None
                for value in rows
            ],
        }
        try:
            atomic_write(self._job_sidecar_path(job_id), json.dumps(payload))
        except OSError:
            pass

    def _write_summary(self, rates: Dict[str, float]) -> None:
        if self.sidecar_dir is None:
            return
        payload = {
            "version": COST_SIDECAR_VERSION,
            "seconds_per_row": rates,
        }
        try:
            atomic_write(self._summary_path(), json.dumps(payload))
        except OSError:
            pass

    def _load_job_sidecar(self, job_id: str) -> Optional[np.ndarray]:
        if self.sidecar_dir is None:
            return None
        try:
            with open(self._job_sidecar_path(job_id)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != COST_SIDECAR_VERSION
            or not isinstance(payload.get("row_seconds"), list)
        ):
            return None
        try:
            return np.array(
                [
                    np.nan if value is None else float(value)
                    for value in payload["row_seconds"]
                ],
                dtype=float,
            )
        except (TypeError, ValueError):
            return None

    def _load_summary(self) -> None:
        if self.sidecar_dir is None:
            return
        try:
            with open(self._summary_path()) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("version") != COST_SIDECAR_VERSION
            or not isinstance(payload.get("seconds_per_row"), dict)
        ):
            return
        rates = {}
        for key, value in payload["seconds_per_row"].items():
            try:
                rate = float(value)
            except (TypeError, ValueError):
                continue
            if np.isfinite(rate) and rate > 0:
                rates[str(key)] = rate
        with self._lock:
            for key, rate in rates.items():
                self._rates.setdefault(key, rate)


__all__ = [
    "COST_SIDECAR_VERSION",
    "RESERVED_METRIC_PREFIX",
    "ROW_SECONDS_KEY",
    "RowCostModel",
    "is_reserved_metric",
    "strip_reserved_metrics",
]
