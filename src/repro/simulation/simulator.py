"""The legacy simulation front end, now a thin shim over the service.

``CircuitSimulator`` wraps a testbench circuit and exposes the evaluation
entry points that mirror how the paper issues SPICE jobs:

* :meth:`simulate` — one design, one corner, one mismatch condition;
* :meth:`simulate_mismatch_set` — one design and corner across a sampled
  mismatch-condition set (the optimization-phase N' batch);
* :meth:`simulate_corners` — one design across a corner set at nominal
  mismatch (plain corner simulation);
* :meth:`simulate_corner_sweep` — one design across *corners × mismatch
  sets* as a single mega-batch (the optimizer seed phase);
* :meth:`simulate_designs` — many *designs* at one corner in one vectorized
  pass (TuRBO proposal batches, population-style baselines).

Since the service redesign every one of these **compiles to a**
:class:`~repro.simulation.service.SimJob` **and routes through**
:meth:`~repro.simulation.service.SimulationService.run`; the non-blocking
``submit_*`` twins compile the same jobs and go through
:meth:`~repro.simulation.service.SimulationService.submit`, returning a
:class:`RecordsFuture`.  Batching, backend selection, caching, sharding
and budget accounting all live in the service layer, and the entry points
here only express the request shape (grouping corner sweeps, tiling a
shared mismatch vector) and unpack the result into
:class:`SimulationRecord` lists.  Metrics, seeded streams and
budget charges are bit-identical to the pre-service behavior: a batch of B
conditions still charges B simulations, exactly as the paper counts them.

New code should prefer the service API directly::

    from repro.simulation import SimJob, SimulationService

    service = SimulationService(circuit, backend="batched")
    result = service.run(SimJob.conditions(circuit.name, x, corners, h))
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.base import AnalogCircuit
from repro.simulation.budget import SimulationBudget, SimulationPhase
from repro.simulation.service import (
    SimFuture,
    SimJob,
    SimulationBackend,
    SimulationRecord,
    SimulationService,
)
from repro.variation.corners import CornerSet, PVTCorner, typical_corner
from repro.variation.mismatch import MismatchSet

__all__ = ["CircuitSimulator", "RecordsFuture", "SimulationRecord"]


class RecordsFuture:
    """A :class:`SimFuture` resolved into simulation-record lists.

    The async twin of the record-list entry points below: ``result()``
    resolves the underlying future (all budget accounting happens there,
    see :meth:`SimFuture.result`) and unpacks the metrics tensor into
    :class:`SimulationRecord` views — grouped per corner when the future
    came from :meth:`CircuitSimulator.submit_corner_sweep`.  ``cancel()``
    abandons the job without charging, which is how the control loop
    discards speculative work after an abort.
    """

    def __init__(
        self,
        future: SimFuture,
        names: Sequence[str],
        group_counts: Optional[Sequence[int]] = None,
    ):
        self._future = future
        self._names = tuple(names)
        self._group_counts = (
            None if group_counts is None else list(group_counts)
        )

    @property
    def future(self) -> SimFuture:
        """The underlying service future (for budget/cache introspection)."""
        return self._future

    def cancel(self) -> bool:
        return self._future.cancel()

    def result(self):
        records = self._future.result().to_records(self._names)
        if self._group_counts is None:
            return records
        grouped: List[List[SimulationRecord]] = []
        offset = 0
        for count in self._group_counts:
            grouped.append(records[offset : offset + count])
            offset += count
        return grouped


class CircuitSimulator:
    """Evaluates a circuit under PVT corners and mismatch with cost tracking."""

    def __init__(
        self,
        circuit: AnalogCircuit,
        budget: Optional[SimulationBudget] = None,
        workers: int = 1,
        backend: Union[str, SimulationBackend] = "batched",
        cache: bool = False,
        cache_dir: Optional[str] = None,
        retry=None,
    ):
        self._service = SimulationService(
            circuit,
            budget=budget,
            backend=backend,
            workers=workers,
            cache=cache,
            cache_dir=cache_dir,
            retry=retry,
        )

    @property
    def service(self) -> SimulationService:
        """The underlying simulation service (the one real entry point)."""
        return self._service

    def close(self) -> None:
        """Release the service's worker pool (see
        :meth:`SimulationService.close`)."""
        self._service.close()

    def __enter__(self) -> "CircuitSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def circuit(self) -> AnalogCircuit:
        return self._service.circuit

    @property
    def budget(self) -> SimulationBudget:
        return self._service.budget

    @property
    def workers(self) -> int:
        return self._service.workers

    # ------------------------------------------------------------------
    def _run(self, job: SimJob) -> List[SimulationRecord]:
        result = self._service.run(job)
        return result.to_records(self.circuit.metric_names)

    # ------------------------------------------------------------------
    def simulate(
        self,
        x_normalized: np.ndarray,
        corner: Optional[PVTCorner] = None,
        mismatch: Optional[np.ndarray] = None,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> SimulationRecord:
        """Run a single SPICE-equivalent simulation (a batch of one)."""
        corner = corner if corner is not None else typical_corner()
        h_block = None
        if mismatch is not None:
            h_block = np.asarray(mismatch, dtype=float)[None, :]
        job = SimJob.conditions(
            self.circuit.name, x_normalized, (corner,), h_block, phase
        )
        return self._run(job)[0]

    def simulate_mismatch_set(
        self,
        x_normalized: np.ndarray,
        corner: PVTCorner,
        mismatch_set: MismatchSet,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> List[SimulationRecord]:
        """Evaluate one design at one corner across every mismatch condition.

        The whole N' block is one condition-axis job; the budget is still
        charged one simulation per mismatch condition.
        """
        job = SimJob.conditions(
            self.circuit.name,
            x_normalized,
            (corner,),
            mismatch_set.samples,
            phase,
        )
        return self._run(job)

    def submit_mismatch_set(
        self,
        x_normalized: np.ndarray,
        corner: PVTCorner,
        mismatch_set: MismatchSet,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> RecordsFuture:
        """Non-blocking twin of :meth:`simulate_mismatch_set`.

        Returns a :class:`RecordsFuture` with the job dispatched (or
        deferred — see :meth:`SimulationService.submit`); resolving it in
        submission order is budget-identical to the blocking call.  No
        caller is left in the library: the verifier scans its full-MC
        chunks through :meth:`SimulationService.scan`.  It stays because
        the ``perfbench`` tracer wraps it.
        """
        job = SimJob.conditions(
            self.circuit.name,
            x_normalized,
            (corner,),
            mismatch_set.samples,
            phase,
        )
        return RecordsFuture(
            self._service.submit(job), self.circuit.metric_names
        )

    def simulate_corners(
        self,
        x_normalized: np.ndarray,
        corners: CornerSet,
        mismatch: Optional[np.ndarray] = None,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> List[SimulationRecord]:
        """Evaluate one design across a corner set at a fixed mismatch.

        The corner axis is the batch axis; a shared mismatch vector is
        tiled across the rows.
        """
        corner_list = tuple(corners)
        if not corner_list:
            return []
        h_matrix = None
        if mismatch is not None:
            h_matrix = np.tile(
                np.asarray(mismatch, dtype=float), (len(corner_list), 1)
            )
        job = SimJob.conditions(
            self.circuit.name, x_normalized, corner_list, h_matrix, phase
        )
        return self._run(job)

    def submit_corners(
        self,
        x_normalized: np.ndarray,
        corners: CornerSet,
        mismatch: Optional[np.ndarray] = None,
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> Optional[RecordsFuture]:
        """Non-blocking twin of :meth:`simulate_corners` (``None`` for an
        empty corner set)."""
        corner_list = tuple(corners)
        if not corner_list:
            return None
        h_matrix = None
        if mismatch is not None:
            h_matrix = np.tile(
                np.asarray(mismatch, dtype=float), (len(corner_list), 1)
            )
        job = SimJob.conditions(
            self.circuit.name, x_normalized, corner_list, h_matrix, phase
        )
        return RecordsFuture(
            self._service.submit(job), self.circuit.metric_names
        )

    def simulate_corner_sweep(
        self,
        x_normalized: np.ndarray,
        corners: Sequence[PVTCorner],
        mismatch_sets: Sequence[MismatchSet],
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> List[List[SimulationRecord]]:
        """Evaluate one design across *corners × mismatch sets* in one pass.

        The optimizer seed phase and the baselines' corner-exhaustive
        evaluation both fan one design out over every predefined corner with
        ``N'`` mismatch conditions each; this entry point stacks the whole
        sweep into a single ``(sum_i N_i,)`` mega-batch (corner axis carried
        by a repeated corner block) and returns the records grouped per
        corner, in the caller's corner order.  The budget is charged in one
        step for the entire sweep.
        """
        job, counts = self._corner_sweep_job(
            x_normalized, corners, mismatch_sets, phase
        )
        if job is None:
            return []
        flat_records = self._run(job)
        grouped: List[List[SimulationRecord]] = []
        offset = 0
        for count in counts:
            grouped.append(flat_records[offset : offset + count])
            offset += count
        return grouped

    def submit_corner_sweep(
        self,
        x_normalized: np.ndarray,
        corners: Sequence[PVTCorner],
        mismatch_sets: Sequence[MismatchSet],
        phase: SimulationPhase = SimulationPhase.OPTIMIZATION,
    ) -> RecordsFuture:
        """Non-blocking twin of :meth:`simulate_corner_sweep`.

        The optimizer's seed phase submits seed *i+1*'s sweep while seed
        *i* is still in flight; resolution (grouped per corner, caller's
        corner order) is budget-identical to the blocking call.
        """
        job, counts = self._corner_sweep_job(
            x_normalized, corners, mismatch_sets, phase
        )
        if job is None:
            raise ValueError("a corner sweep needs at least one corner")
        return RecordsFuture(
            self._service.submit(job),
            self.circuit.metric_names,
            group_counts=counts,
        )

    def _corner_sweep_job(
        self,
        x_normalized: np.ndarray,
        corners: Sequence[PVTCorner],
        mismatch_sets: Sequence[MismatchSet],
        phase: SimulationPhase,
    ) -> Tuple[Optional[SimJob], List[int]]:
        """The flat ``(sum_i N_i,)`` mega-batch job for a corner sweep."""
        corner_list = list(corners)
        if len(corner_list) != len(mismatch_sets):
            raise ValueError("one mismatch set per corner is required")
        if not corner_list:
            return None, []
        counts = [len(mismatch_set) for mismatch_set in mismatch_sets]
        flat_corners = tuple(
            corner
            for corner, count in zip(corner_list, counts)
            for _ in range(count)
        )
        h_matrix = np.vstack(
            [mismatch_set.samples for mismatch_set in mismatch_sets]
        )
        job = SimJob.conditions(
            self.circuit.name, x_normalized, flat_corners, h_matrix, phase
        )
        return job, counts

    def simulate_designs(
        self,
        designs: np.ndarray,
        corner: Optional[PVTCorner] = None,
        phase: SimulationPhase = SimulationPhase.INITIAL_SAMPLING,
    ) -> List[SimulationRecord]:
        """Evaluate many *designs* at one corner and nominal mismatch.

        The design axis is the batch axis here — one job covers a whole
        TuRBO proposal batch or a population of random candidates, and with
        ``workers > 1`` on an engine that shards, the design rows shard
        across the same process pool as every other axis.  The budget is
        charged one simulation per design, exactly as the scalar loop would.
        """
        corner = corner if corner is not None else typical_corner()
        job = SimJob.design_batch(self.circuit.name, designs, corner, phase)
        return self._run(job)

    def simulate_typical(
        self,
        x_normalized: np.ndarray,
        phase: SimulationPhase = SimulationPhase.INITIAL_SAMPLING,
    ) -> SimulationRecord:
        """Evaluate at the typical TT / nominal-VT condition (initial sampling)."""
        return self.simulate(x_normalized, typical_corner(), None, phase)

    # ------------------------------------------------------------------
    def metrics_matrix(
        self,
        records: Sequence[SimulationRecord],
        names: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Stack record metrics into an ``(n_records, n_metrics)`` array.

        Columns follow ``names`` (default: the circuit's metric order).
        Callers that feed the matrix to order-sensitive consumers (e.g.
        ``DesignSpec.normalized_matrix``) should pass that consumer's
        ordering explicitly.  Records from a batched sweep contribute their
        cached vectors when the ordering matches, so the common case is a
        plain ``np.stack`` with no per-record dict lookups.
        """
        if names is None:
            names = self.circuit.metric_names
        if not records:
            return np.empty((0, len(names)))
        return np.stack([record.metric_vector(names) for record in records])
