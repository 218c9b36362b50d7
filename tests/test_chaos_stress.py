"""Chaos soak: repeated fault rounds through a real worker pool.

Marked ``stress`` and excluded from the tier-1 lane (see ``pytest.ini``);
select with ``pytest -m stress``.  Each round arms a fresh fault schedule
against a live sharded service and asserts full equivalence with the
fault-free reference — metrics bit-identical, budget charged exactly
once per row — so the healing/retry machinery is exercised many times in
a single process, across heals, generations and schedule modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import (
    BatchedBackend,
    FaultSchedule,
    RetryPolicy,
    SimJob,
    SimulationPhase,
)
from repro.variation.corners import typical_corner

pytestmark = pytest.mark.stress

ROUNDS = 6
ROWS = 12
WORKERS = 3


def _job(circuit, seed):
    rng = np.random.default_rng(seed)
    return SimJob.conditions(
        circuit.name,
        rng.uniform(0.2, 0.8, circuit.dimension),
        (typical_corner(),),
        rng.standard_normal((ROWS, circuit.mismatch_dimension)),
        phase=SimulationPhase.OPTIMIZATION,
    )


@pytest.mark.parametrize("mode", ["kill", "raise", "nan"])
def test_chaos_soak_stays_equivalent(
    mode, strongarm, service_factory, monkeypatch, tmp_path, pool_submissions
):
    """ROUNDS consecutive fault rounds; every round must end bit-identical.

    ``kill`` rounds each cost one pool heal; the pool is given enough
    headroom that the soak never poisons it, and the test asserts the
    heals actually happened (the faults were not silently skipped).  The
    chaos backend wraps ``scalar``, an engine that shards; over the
    vectorized ``batched`` engine every round would run in-process.
    """
    schedule = FaultSchedule(
        mode=mode, faults=ROUNDS, ticket_dir=str(tmp_path / "tickets")
    )
    for key, value in schedule.to_env("scalar").items():
        monkeypatch.setenv(key, value)
    schedule.arm()

    retry = RetryPolicy(max_attempts=4, backoff=0.0)
    service = service_factory(
        strongarm,
        backend="chaos",
        workers=WORKERS,
        retry=retry,
    )
    if mode == "kill":
        service.pool.max_heals = ROUNDS + 2

    reference = BatchedBackend()
    for round_index in range(ROUNDS):
        job = _job(strongarm, seed=round_index)
        result = service.run(job)
        expected = reference.evaluate(strongarm, job)
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(result.metrics[name], expected[name])
        assert service.budget.total == ROWS * (round_index + 1)

    assert schedule.tickets_left() == 0, "some scheduled faults never fired"
    assert pool_submissions, "no round ran on the pool"
    if mode == "kill":
        assert service.pool.heals >= 1
        assert not service.pool.poisoned
