"""Error paths of the sharded dispatcher and the service's budget rollback.

The service charges a job's full cost *before* dispatch (so ``max_simulations``
aborts without spending work); before this suite a backend failure — a worker
raising mid-shard, an external simulator crashing in strict mode — left that
charge in place even though no metrics were ever produced, and with
``idempotent_charges`` the consumed job key made the eventual successful retry
run *uncounted*.  :meth:`SimulationService.run` now refunds the charge and
releases the key on failure; these tests pin that down in-process and through
a real process pool (one worker failing mid-shard while its siblings
succeed, injected via the fake simulator's one-shot failure marker).
"""

import numpy as np
import pytest

from repro.simulation import (
    BatchedBackend,
    NgspiceError,
    SimulationBudget,
    SimulationPhase,
)
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
# Budget.refund primitive
# ----------------------------------------------------------------------
class TestBudgetRefund:
    def test_refund_rolls_back_count_and_key(self):
        budget = SimulationBudget()
        budget.charge(SimulationPhase.OPTIMIZATION, 5, job_id="job-a")
        budget.refund(SimulationPhase.OPTIMIZATION, 5, job_id="job-a")
        assert budget.total == 0
        assert "job-a" not in budget.charged_jobs
        # The retry charges like a first attempt.
        assert budget.charge(SimulationPhase.OPTIMIZATION, 5, job_id="job-a")
        assert budget.total == 5

    def test_refund_cannot_go_negative(self):
        budget = SimulationBudget()
        budget.charge(SimulationPhase.VERIFICATION, 2)
        with pytest.raises(ValueError, match="exceeds"):
            budget.refund(SimulationPhase.VERIFICATION, 3)
        assert budget.total == 2  # a rejected refund leaves counts intact

    def test_refund_rejects_negative_count(self):
        budget = SimulationBudget()
        with pytest.raises(ValueError, match="non-negative"):
            budget.refund(SimulationPhase.OPTIMIZATION, -1)


# ----------------------------------------------------------------------
# In-process failure: the service refunds the charge
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
        service = service_factory(
            strongarm, backend=backend, idempotent_charges=True
        )
        job = conditions_job(strongarm, rows=6)
        with pytest.raises(RuntimeError):
            service.run(job)
        assert service.budget.total == 0  # key released with the refund
        result = service.run(job)  # the retry is a first attempt again
        assert service.budget.total == 6
        assert np.isfinite(result.metrics[strongarm.metric_names[0]]).all()
        # A genuine duplicate after success is still swallowed by the key.
        service.run(job)
        assert service.budget.total == 6

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
        job's charge is refunded, and the retry — now clean — succeeds and
        charges exactly once through the idempotent path."""
        marker = tmp_path / "fail-once"
        marker.write_text("arm")
        monkeypatch.setenv("FAKE_NGSPICE_FAIL_ONCE", str(marker))
        monkeypatch.setenv(STRICT_ENV, "1")
        # workers=5 forces a pool forked *after* the env above is set
        # (pools are cached per worker count and snapshot the environment);
        # no other test uses a 5-worker pool.
        service = service_factory(
            strongarm, backend="ngspice", workers=5, idempotent_charges=True
        )
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
