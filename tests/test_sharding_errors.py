"""Error paths of the sharded dispatcher and the service's budget charge.

The service charges a job once, when an attempt returned metrics.  A
backend failure — a worker raising mid-shard, an external simulator
crashing in strict mode — produces none, so it is never charged, and the
resubmitted job charges exactly once.  These tests pin that down
in-process and through a real process pool (one worker failing mid-shard
while its siblings succeed, injected via the fake simulator's one-shot
failure marker).
"""

import numpy as np
import pytest

from repro.simulation import BatchedBackend, NgspiceError
from repro.simulation.ngspice import STRICT_ENV


class ExplodingBackend(BatchedBackend):
    """Evaluates normally until armed, then raises mid-evaluation."""

    def __init__(self):
        self.fail_next = False
        self.calls = 0

    def evaluate(self, circuit, job):
        self.calls += 1
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("worker exploded mid-shard")
        return super().evaluate(circuit, job)


# ----------------------------------------------------------------------
# In-process failure: the service charges nothing
# ----------------------------------------------------------------------
class TestServiceRollback:
    def test_failure_surfaces_and_budget_uncharged(
        self, strongarm, service_factory, conditions_job
    ):
        backend = ExplodingBackend()
        backend.fail_next = True
        service = service_factory(strongarm, backend=backend)
        job = conditions_job(strongarm)
        with pytest.raises(RuntimeError, match="mid-shard"):
            service.run(job)
        assert service.budget.total == 0
        assert backend.calls == 1

    def test_retry_after_failure_charges_exactly_once(
        self, strongarm, service_factory, conditions_job
    ):
        backend = ExplodingBackend()
        backend.fail_next = True
        service = service_factory(strongarm, backend=backend)
        job = conditions_job(strongarm, rows=6)
        with pytest.raises(RuntimeError):
            service.run(job)
        assert service.budget.total == 0  # the failed attempt was never charged
        result = service.run(job)  # the retry is a first attempt again
        assert service.budget.total == 6
        assert np.isfinite(result.metrics[strongarm.metric_names[0]]).all()

    def test_failure_never_poisons_the_cache(
        self, strongarm, service_factory, conditions_job
    ):
        backend = ExplodingBackend()
        backend.fail_next = True
        service = service_factory(strongarm, backend=backend, cache=True)
        job = conditions_job(strongarm, rows=4)
        with pytest.raises(RuntimeError):
            service.run(job)
        assert len(service.cache) == 0
        result = service.run(job)
        assert not result.cached
        assert service.budget.total == 4


# ----------------------------------------------------------------------
# Real pool: one worker raising mid-shard
# ----------------------------------------------------------------------
class TestWorkerFailureMidShard:
    def test_worker_exception_surfaces_and_budget_uncharged(
        self,
        strongarm,
        fake_ngspice,
        service_factory,
        tmp_path,
        monkeypatch,
        conditions_job,
    ):
        """One of several real worker processes fails its shard (one-shot
        marker consumed by whichever worker gets there first, in strict
        mode); the original NgspiceError surfaces in the parent, the whole
        job is left uncharged, and the retry — now clean — succeeds and
        charges exactly once."""
        marker = tmp_path / "fail-once"
        marker.write_text("arm")
        monkeypatch.setenv("FAKE_NGSPICE_FAIL_ONCE", str(marker))
        monkeypatch.setenv(STRICT_ENV, "1")
        # workers=5 forces a pool forked *after* the env above is set
        # (pools are cached per worker count and snapshot the environment);
        # no other test uses a 5-worker pool.
        service = service_factory(strongarm, backend="ngspice", workers=5)
        job = conditions_job(strongarm, rows=10)

        with pytest.raises(NgspiceError, match="exit 3"):
            service.run(job)
        assert service.budget.total == 0
        assert not marker.exists()  # the failing worker consumed it

        result = service.run(job)  # retry: all shards succeed
        assert service.budget.total == 10
        reference = BatchedBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            np.testing.assert_allclose(
                result.metrics[name], reference[name], rtol=1e-12, atol=0
            )
