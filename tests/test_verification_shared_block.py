"""Full-MC verification through one shared evaluation per corner.

On a ``vectorized`` engine that is not ``row_parallel`` the verifier's
full pass evaluates each corner's h-SCORE-ranked remainder in one backend
call, while every chunk stays its own job with its own accounting.  This
suite compares that path with per-chunk evaluation — a ``vectorized =
False`` twin of the batched engine, which gets one call per chunk — and
pins the shared block's edges:

* outcome, charged budget and the verifier's RNG stream equal the twin's
  on the three paper circuits and on full-MC abort seeds of a probe
  circuit;
* the twin receives exactly one job per chunk, in rank order, with the
  job ids of per-chunk ``SimJob.conditions`` requests, and ``batched``
  makes one call per corner that reaches the full pass;
* rows evaluated past a full-MC abort are never cached;
* a whole-remainder call that raises, or returns a FAILURE_NAN row, falls
  back to per-chunk evaluation with the twin's outcome and budget; under a
  chaos schedule with retries the outcome is the clean run's;
* a remainder that fits in one chunk is evaluated once, as that chunk;
* a disk cache written by per-chunk jobs keeps hitting;
* ``batched`` scores a corner without futures: its full pass submits
  nothing, while the twin submits each accounted chunk plus at most one
  speculative chunk; around cache hits, ``scan`` charges and stores
  exactly the twin's chunks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.circuits import (
    DramCoreSenseAmp,
    FloatingInverterAmplifier,
    StrongArmLatch,
)
from repro.core import verification
from repro.core.config import VerificationMethod, operational_config
from repro.core.replay import LastWorstCaseBuffer
from repro.core.spec import DesignSpec
from repro.core.verification import Verifier
from repro.simulation import (
    BatchedBackend,
    CircuitSimulator,
    FaultInjectingBackend,
    FaultSchedule,
    RetryPolicy,
    SimFuture,
    SimJob,
    SimulationPhase,
    SimulationService,
)
from repro.spice.deck import FAILURE_NAN
from repro.variation.corners import typical_corner
from repro.variation.mismatch import MismatchSampler
from test_async_service import FullMCProbeCircuit, PerChunkBackend

#: Paper circuits: 24 - 3 = 21 ranked extras per corner, chunks of 8, 8, 5.
PAPER_SAMPLES, PAPER_CHUNK = 24, 8
#: Probe: 11 - 3 = 8 ranked extras per corner, chunks of 3, 3, 2.
PROBE_SAMPLES, PROBE_CHUNK = 11, 3
SCREEN_SAMPLES = 3

#: (circuit, design draw, verifier seed) cases that reach the full pass:
#: it passes, or aborts there.  Random designs mostly fail screening.
PAPER_CASES = [
    (StrongArmLatch, 94, 0),  # passes
    (StrongArmLatch, 94, 3),
    (FloatingInverterAmplifier, 221, 0),
    (FloatingInverterAmplifier, 221, 2),  # passes
    (DramCoreSenseAmp, 60, 3),  # aborts at the 13th full-pass corner
    (DramCoreSenseAmp, 83, 0),
]

PROBE_SEEDS = range(24)


class Recording:
    """Mixin: remember every job the engine evaluates."""

    def __init__(self):
        super().__init__()
        self.jobs = []

    def evaluate(self, circuit, job):
        self.jobs.append(job)
        return super().evaluate(circuit, job)


class RecordingBatched(Recording, BatchedBackend):
    pass


class RecordingPerChunk(Recording, PerChunkBackend):
    pass


class WideFailureBackend(BatchedBackend):
    """``batched`` failing every job wider than ``chunk`` rows.

    It raises, or with ``tag=True`` returns the job's first row tagged
    :data:`FAILURE_NAN` (every metric of that row)."""

    def __init__(self, chunk, tag=False):
        self.chunk = chunk
        self.tag = tag
        self.failed = 0

    def evaluate(self, circuit, job):
        metrics = super().evaluate(circuit, job)
        if job.batch <= self.chunk:
            return metrics
        self.failed += 1
        if not self.tag:
            raise RuntimeError(f"refusing a {job.batch}-row job")
        tagged = {
            name: np.array(values, dtype=float)
            for name, values in metrics.items()
        }
        for values in tagged.values():
            values[0] = FAILURE_NAN
        return tagged


def paper_design(circuit, draw):
    """Draw number ``draw`` of a seeded stream of random designs."""
    rng = np.random.default_rng(0)
    for _ in range(draw):
        circuit.random_sizing(rng)
    return np.clip(circuit.random_sizing(rng) + 0.15, 0.0, 1.0)


def verify_on(
    backend, circuit, design, seed, samples, chunk, cache=False, retry=None
):
    """Verify ``design`` on ``backend``: the fields the comparison reads,
    and the raw :class:`VerificationResult`."""
    operational = operational_config(
        VerificationMethod.CORNER_LOCAL_MC,
        optimization_samples=SCREEN_SAMPLES,
        verification_samples=samples,
        verification_chunk=chunk,
    )
    with CircuitSimulator(
        circuit, backend=backend, cache=cache, retry=retry
    ) as simulator:
        service = simulator.service
        verifier = Verifier(
            simulator,
            DesignSpec.from_circuit(circuit),
            operational,
            use_mu_sigma=False,  # the brute-force screen reaches pass 2
            rng=np.random.default_rng(seed),
        )
        outcome = verifier.verify(
            design, LastWorstCaseBuffer(operational.corners)
        )
        fields = {
            "passed": outcome.passed,
            "failed_corner": outcome.failed_corner,
            "failure_stage": outcome.failure_stage,
            "worst_reward": outcome.worst_reward,
            "simulations": outcome.simulations,
            "budget": service.budget.total,  # read after the stream closed
            "next_draw": float(verifier.rng.standard_normal()),
            "cached_jobs": (
                None if service.cache is None else len(service.cache)
            ),
        }
        return fields, outcome


@pytest.fixture
def full_pass_requests(monkeypatch):
    """Each full-pass corner's ranked extra set, in visiting order.

    Records the verifier's ``N - N'`` draws and their h-SCORE orders, so a
    test can rebuild the jobs of the per-chunk schedule independently."""
    drawn = []
    orders = []
    sample = MismatchSampler.sample
    order_by_scores = verification.order_by_scores

    def recording_sample(self, x_physical, count, *args, **kwargs):
        mismatch_set = sample(self, x_physical, count, *args, **kwargs)
        if count != SCREEN_SAMPLES:
            drawn.append(mismatch_set)
        return mismatch_set

    def recording_order(*args, **kwargs):
        orders.append(order_by_scores(*args, **kwargs))
        return orders[-1]

    monkeypatch.setattr(MismatchSampler, "sample", recording_sample)
    monkeypatch.setattr(verification, "order_by_scores", recording_order)

    def ranked():
        """The ranked extra sets drawn since the last call."""
        assert len(drawn) == len(orders)
        ranked_sets = [
            mismatch_set.subset(order)
            for mismatch_set, order in zip(drawn, orders)
        ]
        drawn.clear()
        orders.clear()
        return ranked_sets

    return ranked


def assert_schedules(
    circuit, design, outcome, ranked_sets, twin, batched, chunk
):
    """Both engines received exactly the jobs their schedule submits."""

    def job_id(corner, samples):
        return SimJob.conditions(
            circuit.name,
            design,
            (corner,),
            samples,
            SimulationPhase.VERIFICATION,
        ).job_id

    # The full pass visits the screened corners by descending t-SCORE.
    corners = [
        screen.corner
        for screen in sorted(
            outcome.corner_reports, key=lambda s: s.t_score, reverse=True
        )
    ][: len(ranked_sets)]
    assert len(corners) == len(ranked_sets)
    # One screening job per corner up to (and including) a failing screen.
    screened = len(outcome.corner_reports) + (
        outcome.failure_stage == "screen"
    )

    chunk_ids = [
        job_id(corner, ranked.samples[lo : lo + chunk])
        for corner, ranked in zip(corners, ranked_sets)
        for lo in range(0, len(ranked), chunk)
    ]
    twin_jobs = twin.jobs[screened:]
    assert [job.job_id for job in twin_jobs] == chunk_ids[: len(twin_jobs)]
    if outcome.passed:
        assert len(twin_jobs) == len(chunk_ids)
    # One job per charged chunk: the twin evaluated exactly what was paid.
    assert screened * SCREEN_SAMPLES + sum(
        job.batch for job in twin_jobs
    ) == outcome.simulations

    # batched: one call per corner that reaches the full pass, over the
    # corner's whole ranked remainder.
    assert [job.job_id for job in batched.jobs[screened:]] == [
        job_id(corner, ranked.samples)
        for corner, ranked in zip(corners, ranked_sets)
    ]


def compare_with_twin(
    circuit, design, seed, samples, chunk, ranked, cache=False
):
    args = (circuit, design, seed, samples, chunk, cache)
    twin = RecordingPerChunk()
    expected, outcome = verify_on(twin, *args)
    ranked_sets = ranked()
    batched = RecordingBatched()
    actual, _ = verify_on(batched, *args)
    assert actual == expected
    assert [block.samples.tobytes() for block in ranked()] == [
        block.samples.tobytes() for block in ranked_sets
    ]
    assert_schedules(
        circuit, design, outcome, ranked_sets, twin, batched, chunk
    )
    return outcome


@pytest.mark.parametrize(
    "circuit_cls, draw, seed",
    PAPER_CASES,
    ids=[f"{cls.name}-{draw}-{seed}" for cls, draw, seed in PAPER_CASES],
)
def test_paper_circuits_match_per_chunk_twin(
    circuit_cls, draw, seed, full_pass_requests
):
    circuit = circuit_cls()
    outcome = compare_with_twin(
        circuit,
        paper_design(circuit, draw),
        seed,
        PAPER_SAMPLES,
        PAPER_CHUNK,
        full_pass_requests,
    )
    assert outcome.failure_stage in (None, "full_mc")  # pass 2 was reached


def test_probe_abort_seeds_match_per_chunk_twin(full_pass_requests):
    """Full-MC aborts: the shared block evaluates a corner's whole
    remainder, but only chunks a resolved future covers are charged or
    stored, so even the cache contents equal the twin's."""
    aborts = 0
    for seed in PROBE_SEEDS:
        circuit = FullMCProbeCircuit()
        outcome = compare_with_twin(
            circuit,
            np.full(circuit.dimension, 0.5),
            seed,
            PROBE_SAMPLES,
            PROBE_CHUNK,
            full_pass_requests,
            cache=True,
        )
        aborts += outcome.failure_stage == "full_mc"
    assert aborts >= 8  # the abort path is what this probe exercises


@pytest.mark.parametrize("tag", [False, True], ids=["raise", "failure_nan"])
def test_failed_wide_call_falls_back_to_per_chunk(tag):
    """A whole-remainder call that raises or carries a FAILURE_NAN row is
    dropped: every chunk evaluates alone, with the twin's outcome, budget
    and cache contents (no retry policy)."""
    failed = 0
    aborts = 0
    for seed in PROBE_SEEDS:
        circuit = FullMCProbeCircuit()
        design = np.full(circuit.dimension, 0.5)
        expected, outcome = verify_on(
            PerChunkBackend(),
            circuit,
            design,
            seed,
            PROBE_SAMPLES,
            PROBE_CHUNK,
            cache=True,
        )
        backend = WideFailureBackend(PROBE_CHUNK, tag=tag)
        actual, _ = verify_on(
            backend,
            circuit,
            design,
            seed,
            PROBE_SAMPLES,
            PROBE_CHUNK,
            cache=True,
        )
        assert actual == expected, seed
        failed += backend.failed
        aborts += outcome.failure_stage == "full_mc"
    assert aborts >= 8
    assert failed >= aborts  # every seed's full pass tried the wide call


class FirstCallFails(BatchedBackend):
    """``batched`` raising the first time it sees each job of ``rows``."""

    def __init__(self, rows):
        self.rows = rows
        self.seen = set()

    def evaluate(self, circuit, job):
        if job.batch == self.rows and job.job_id not in self.seen:
            self.seen.add(job.job_id)
            raise RuntimeError("first call of a full-pass job")
        return super().evaluate(circuit, job)


class PerChunkFirstCallFails(FirstCallFails):
    vectorized = False


@pytest.mark.parametrize(
    "backend_cls", [PerChunkFirstCallFails, FirstCallFails]
)
def test_one_chunk_remainder_is_its_own_job(backend_cls):
    """A remainder that fits in one chunk is evaluated once, as that chunk:
    with no retry policy its failure surfaces on every engine."""
    circuit = FullMCProbeCircuit()
    backend = backend_cls(rows=PROBE_SAMPLES - SCREEN_SAMPLES)
    with pytest.raises(RuntimeError, match="first call"):
        verify_on(
            backend,
            circuit,
            np.full(circuit.dimension, 0.5),
            seed=9,  # passes every screen
            samples=PROBE_SAMPLES,
            chunk=PROBE_SAMPLES - SCREEN_SAMPLES,
        )
    assert len(backend.seen) == 1


class FullPassChaos(FaultInjectingBackend):
    """Chaos over ``batched`` that spares the screening jobs, so the
    schedule's faults reach the full pass; remembers the rows of each job
    it faulted."""

    def __init__(self, schedule):
        super().__init__(BatchedBackend(), schedule)
        self.faulted_rows = []

    def _claim_fault(self, job):
        if job.batch == SCREEN_SAMPLES or not super()._claim_fault(job):
            return False
        self.faulted_rows.append(job.batch)
        return True


@pytest.mark.parametrize("mode", ["raise", "nan"])
def test_chaos_with_retries_equals_clean_run(mode):
    """A dropped whole-remainder call consumes its fault like any other
    evaluation, so faults land on other jobs than under per-chunk
    evaluation; with a retry policy the outcome and budget still equal
    the clean run."""
    wide_faults = 0
    for seed in PROBE_SEEDS:
        circuit = FullMCProbeCircuit()
        design = np.full(circuit.dimension, 0.5)
        args = (circuit, design, seed, PAPER_SAMPLES, PAPER_CHUNK)
        expected, _ = verify_on(BatchedBackend(), *args)
        chaos = FullPassChaos(
            FaultSchedule(mode=mode, faults=3, probability=0.3, seed=seed)
        )
        actual, _ = verify_on(
            chaos, *args, retry=RetryPolicy(max_attempts=4, backoff=0.0)
        )
        assert actual == expected, seed
        wide_faults += sum(rows > PAPER_CHUNK for rows in chaos.faulted_rows)
    assert wide_faults > 0


def test_per_chunk_cache_dir_replays_on_batched(tmp_path, monkeypatch):
    """Chunk job ids are those of the per-chunk schedule, so a disk cache
    filled on a non-``vectorized`` engine keeps hitting on ``batched``."""
    config = api.ExperimentConfig(
        circuit="sal",
        method="C-MCL",
        backend="scalar",
        cache_dir=str(tmp_path / "cache"),
    )
    first = api.run_experiment(config)
    assert first.runs[0].simulations["verification"] > 0

    calls = []
    original = BatchedBackend.evaluate

    def counting(self, circuit, job):
        calls.append(job)
        return original(self, circuit, job)

    monkeypatch.setattr(BatchedBackend, "evaluate", counting)
    replay = api.run_experiment(
        api.ExperimentConfig(**{**config.to_dict(), "backend": "batched"})
    )
    assert calls == []
    assert replay.total_simulations == 0
    assert replay.runs[0].success == first.runs[0].success
    assert replay.runs[0].iterations == first.runs[0].iterations


@pytest.fixture
def submissions(monkeypatch):
    """Jobs passed to ``SimulationService.submit``, and every
    :class:`SimFuture` built."""
    jobs, futures = [], []
    submit = SimulationService.submit
    init = SimFuture.__init__

    def recording_submit(self, job):
        jobs.append(job)
        return submit(self, job)

    def recording_init(self, *args, **kwargs):
        futures.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimulationService, "submit", recording_submit)
    monkeypatch.setattr(SimFuture, "__init__", recording_init)
    return jobs, futures


def test_batched_full_pass_builds_no_future(submissions):
    """With no cache, ``batched`` scans each corner without a future or a
    ``submit`` (screening runs through ``run``, so every submission is
    the full pass's).  The per-chunk twin submits, in rank order, exactly
    the chunks it evaluated and charged, plus at most one speculative
    chunk, which an abort cancels unevaluated."""
    jobs, futures = submissions
    aborts = speculative = 0
    for seed in PROBE_SEEDS:
        circuit = FullMCProbeCircuit()
        args = (
            circuit,
            np.full(circuit.dimension, 0.5),
            seed,
            PROBE_SAMPLES,
            PROBE_CHUNK,
        )
        batched = RecordingBatched()
        expected, outcome = verify_on(batched, *args)
        # One screening job per corner up to (and including) a failing
        # screen; every later job is the full pass's.
        screened = len(outcome.corner_reports) + (
            outcome.failure_stage == "screen"
        )
        full_pass = outcome.failure_stage != "screen"
        assert (len(batched.jobs) > screened) == full_pass
        assert (jobs, futures) == ([], [])

        twin = RecordingPerChunk()
        actual, _ = verify_on(twin, *args)
        assert actual == expected
        evaluated = twin.jobs[screened:]
        assert [job.job_id for job in jobs[: len(evaluated)]] == [
            job.job_id for job in evaluated
        ]
        assert len(jobs) - len(evaluated) in (0, 1)
        assert len(futures) == len(jobs)
        assert screened * SCREEN_SAMPLES + sum(
            job.batch for job in evaluated
        ) == outcome.simulations
        aborts += outcome.failure_stage == "full_mc"
        speculative += len(jobs) - len(evaluated)
        jobs.clear()
        futures.clear()
    assert aborts >= 8
    assert speculative > 0


def test_scan_around_cache_hits_matches_the_twin():
    """``scan`` with a leading and a later cached chunk: ``batched``
    scores the leading hit from the cache, evaluates every row from the
    first miss on in one call, and charges, stores and returns exactly
    what the per-chunk twin does."""
    circuit = FullMCProbeCircuit()
    design = np.full(circuit.dimension, 0.5)
    samples = np.random.default_rng(0).normal(
        0.0, 0.06, (40, circuit.mismatch_dimension)
    )
    job = SimJob.conditions(
        circuit.name,
        design,
        (typical_corner(),),
        samples,
        SimulationPhase.VERIFICATION,
    )
    chunk, failing = 4, 21  # ten chunks; row 21 sits in chunk 5
    target = BatchedBackend().evaluate(circuit, job)["margin"][failing]

    def first_failure(metrics):
        rows = np.flatnonzero(metrics["margin"] == target)
        return int(rows[0]) if rows.size else None

    outcomes = []
    for backend in (RecordingBatched(), RecordingPerChunk()):
        with SimulationService(circuit, backend=backend, cache=True) as service:
            for lo in (0, 12):  # chunks 0 and 3
                service.run(job.shard(lo, lo + chunk))
            before, calls = service.budget.total, len(backend.jobs)
            metrics, failed = service.scan(job, chunk, first_failure)
            stored = [
                service.cache.lookup(job.shard(lo, lo + chunk)) is not None
                for lo in range(0, 40, chunk)
            ]
            outcomes.append(
                (
                    failed,
                    metrics["margin"].tobytes(),
                    service.budget.total - before,
                    stored,
                )
            )
            evaluated = [(j.job_id, j.batch) for j in backend.jobs[calls:]]
        if isinstance(backend, RecordingBatched):
            assert evaluated == [(job.shard(chunk, 40).job_id, 36)]
        else:  # chunks 1, 2, 4 and 5; chunk 6 was cancelled unevaluated
            assert evaluated == [
                (job.shard(lo, lo + chunk).job_id, chunk) for lo in (4, 8, 16, 20)
            ]
    assert outcomes[0] == outcomes[1]
    failed, _, charged, stored = outcomes[0]
    assert (failed, charged) == (failing, 16)  # chunks 0 and 3 are hits
    assert stored == [True] * 6 + [False] * 4
