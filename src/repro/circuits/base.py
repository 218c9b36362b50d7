"""Base classes shared by all testbench circuits.

A circuit exposes:

* an ordered list of :class:`SizingParameter` (the design space ``X^p``),
* a list of performance metrics with constraint bounds ``c_i`` (all
  expressed as "metric <= bound"; metrics the designer wants to maximise are
  sign-flipped, exactly as the paper does for the DRAM sensing voltages),
* a :class:`~repro.variation.MismatchModel` describing its mismatch-carrying
  devices, and
* :meth:`AnalogCircuit.evaluate_batch`, the nonlinear map ``F(x | t, h)``
  from a normalised sizing vector, PVT corners and mismatch conditions to
  the metric values (:meth:`AnalogCircuit.evaluate` is its batch of one).

Design vectors are exchanged with the optimizer in *normalised* form (each
coordinate in ``[0, 1]``); wide-range parameters (widths, capacitances) are
normalised on a logarithmic scale so that the search treats decades evenly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.waveform import WaveformSpec
from repro.spice.deck import MeasureSpec
from repro.variation.corners import CornerBatch, PVTCorner, typical_corner
from repro.variation.distributions import DeviceKind, DeviceSpec, MismatchModel

#: Floor on a capacitor's mismatch factor ``1 + delta``.  Real cap mismatch
#: is a few percent, far above it; an out-of-model draw (say a standard
#: normal delta) would otherwise make a capacitance negative and a noise
#: ``sqrt`` NaN.
MIN_CAP_FACTOR = 0.05


def cap_mismatch_factor(
    delta: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """A capacitor's mismatch factor ``1 + delta``, floored at
    :data:`MIN_CAP_FACTOR` (unchanged above the floor)."""
    return np.maximum(1.0 + delta, MIN_CAP_FACTOR)


@dataclass(frozen=True)
class SizingParameter:
    """One dimension of the sizing vector.

    Attributes
    ----------
    name:
        Human-readable parameter name (e.g. ``"W_input_pair"``).
    lower / upper:
        Physical bounds (SI units).
    unit:
        Unit string for reporting.
    log_scale:
        Normalise this parameter on a log scale (recommended whenever the
        range spans more than one decade).
    """

    name: str
    lower: float
    upper: float
    unit: str = ""
    log_scale: bool = False

    def __post_init__(self) -> None:
        if self.lower <= 0 and self.log_scale:
            raise ValueError(f"log-scale parameter {self.name} needs positive bounds")
        if self.upper <= self.lower:
            raise ValueError(f"parameter {self.name}: upper must exceed lower")

    def to_normalized(self, physical: float) -> float:
        physical = float(np.clip(physical, self.lower, self.upper))
        if self.log_scale:
            span = np.log(self.upper) - np.log(self.lower)
            return float((np.log(physical) - np.log(self.lower)) / span)
        return float((physical - self.lower) / (self.upper - self.lower))

    def to_physical(self, normalized: float) -> float:
        normalized = float(np.clip(normalized, 0.0, 1.0))
        if self.log_scale:
            log_value = np.log(self.lower) + normalized * (
                np.log(self.upper) - np.log(self.lower)
            )
            return float(np.exp(log_value))
        return float(self.lower + normalized * (self.upper - self.lower))


class AnalogCircuit(abc.ABC):
    """Abstract testbench circuit.

    Subclasses implement one vectorized model,
    :meth:`_evaluate_physical_batch`, receiving the physical sizing vector,
    a corner (or corner batch) and the per-device mismatch view as
    ``(B,)`` arrays, and returning the raw metric arrays.  Every entry
    point — one condition (:meth:`evaluate`), a condition batch
    (:meth:`evaluate_batch`) and a design batch
    (:meth:`evaluate_design_batch`) — runs through it, so all three agree
    bit for bit.  Everything else — normalisation, constraint
    bookkeeping, mismatch-model plumbing — lives here.
    """

    #: Circuit name used by the registry and in reports.
    name: str = "circuit"

    def __init__(self) -> None:
        self._parameters = tuple(self._build_parameters())
        self._constraints = dict(self._build_constraints())
        self._mismatch_model = MismatchModel(self._build_devices())
        if not self._parameters:
            raise ValueError("circuit declares no sizing parameters")
        if not self._constraints:
            raise ValueError("circuit declares no constraints")
        # Per-column bounds of SizingParameter.to_physical's two formulas;
        # linear columns get a zero log span, so exp never sees a bad log.
        lower = np.array([p.lower for p in self._parameters])
        upper = np.array([p.upper for p in self._parameters])
        self._log_scale = np.array([p.log_scale for p in self._parameters])
        self._lower = lower
        self._span = upper - lower
        self._log_lower = np.zeros_like(lower)
        self._log_span = np.zeros_like(lower)
        log_lower = np.log(lower[self._log_scale])
        self._log_lower[self._log_scale] = log_lower
        self._log_span[self._log_scale] = (
            np.log(upper[self._log_scale]) - log_lower
        )

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_parameters(self) -> Sequence[SizingParameter]:
        """Declare the sizing parameters (order defines the vector layout)."""

    @abc.abstractmethod
    def _build_constraints(self) -> Dict[str, float]:
        """Declare ``{metric_name: upper_bound}`` for every metric."""

    @abc.abstractmethod
    def _build_devices(self) -> Sequence[DeviceSpec]:
        """Declare the mismatch-carrying devices."""

    @abc.abstractmethod
    def _evaluate_physical_batch(
        self,
        x_physical: np.ndarray,
        corner: Union[PVTCorner, CornerBatch],
        mismatch: Dict[str, Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Compute raw metric arrays for a physical sizing vector.

        ``mismatch`` holds ``(B,)`` arrays per device quantity and ``corner``
        may itself be array-valued (:class:`CornerBatch`); implementations
        must be pure ufunc-style numpy so the whole Monte-Carlo/corner batch
        is evaluated in one pass.  :meth:`evaluate_design_batch` passes the
        transposed ``(p, M)`` design matrix as ``x_physical``, so each
        parameter lookup ``x[i]`` must broadcast over a design axis too.
        """

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def parameters(self) -> Tuple[SizingParameter, ...]:
        return self._parameters

    @property
    def parameter_names(self) -> List[str]:
        return [p.name for p in self._parameters]

    @property
    def dimension(self) -> int:
        """Dimensionality ``p`` of the sizing vector."""
        return len(self._parameters)

    @property
    def metric_names(self) -> List[str]:
        return list(self._constraints.keys())

    @property
    def constraints(self) -> Dict[str, float]:
        """Constraint bounds ``c_i`` (all metrics must stay <= their bound)."""
        return dict(self._constraints)

    @property
    def mismatch_model(self) -> MismatchModel:
        return self._mismatch_model

    @property
    def mismatch_dimension(self) -> int:
        return self._mismatch_model.dimension

    # ------------------------------------------------------------------
    # Vector conversions
    # ------------------------------------------------------------------
    def denormalize(self, x_normalized: np.ndarray) -> np.ndarray:
        """Map a normalised vector in [0, 1]^p to physical units."""
        x_normalized = np.asarray(x_normalized, dtype=float)
        if x_normalized.shape != (self.dimension,):
            raise ValueError(
                f"expected sizing vector of shape ({self.dimension},), "
                f"got {x_normalized.shape}"
            )
        return self._to_physical(x_normalized)

    def denormalize_batch(self, x_normalized: np.ndarray) -> np.ndarray:
        """Map an ``(M, p)`` matrix of normalised vectors to physical units.

        Each row is bit-identical to :meth:`denormalize`.
        """
        x_normalized = np.asarray(x_normalized, dtype=float)
        if x_normalized.ndim != 2 or x_normalized.shape[1] != self.dimension:
            raise ValueError(
                f"expected design matrix of shape (M, {self.dimension}), "
                f"got {x_normalized.shape}"
            )
        return self._to_physical(x_normalized)

    def _to_physical(self, x_normalized: np.ndarray) -> np.ndarray:
        """:meth:`SizingParameter.to_physical` over the last axis at once:
        the same clip and the same operations, in the same order, so every
        coordinate is bit-identical to the per-parameter conversion."""
        values = np.clip(x_normalized, 0.0, 1.0)
        return np.where(
            self._log_scale,
            np.exp(self._log_lower + values * self._log_span),
            self._lower + values * self._span,
        )

    def normalize(self, x_physical: np.ndarray) -> np.ndarray:
        """Map a physical sizing vector to [0, 1]^p."""
        x_physical = np.asarray(x_physical, dtype=float)
        if x_physical.shape != (self.dimension,):
            raise ValueError(
                f"expected sizing vector of shape ({self.dimension},), "
                f"got {x_physical.shape}"
            )
        return np.array(
            [p.to_normalized(v) for p, v in zip(self._parameters, x_physical)]
        )

    def random_sizing(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """A uniformly random normalised sizing vector."""
        rng = rng if rng is not None else np.random.default_rng()
        return rng.uniform(0.0, 1.0, size=self.dimension)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        x_normalized: np.ndarray,
        corner: Optional[PVTCorner] = None,
        mismatch: Optional[np.ndarray] = None,
    ) -> Dict[str, float]:
        """Evaluate ``F(x | t, h)`` and return ``{metric: value}``.

        A batch of one through :meth:`evaluate_batch`.

        Parameters
        ----------
        x_normalized:
            Normalised sizing vector in ``[0, 1]^p``.
        corner:
            PVT corner; defaults to the typical condition.
        mismatch:
            Mismatch vector ``h`` from the circuit's mismatch model; ``None``
            means nominal devices.
        """
        if mismatch is not None:
            h = np.asarray(mismatch, dtype=float)
            if h.shape != (self.mismatch_dimension,):
                raise ValueError(
                    f"expected mismatch vector of shape "
                    f"({self.mismatch_dimension},), got {h.shape}"
                )
            mismatch = h[None, :]
        metrics = self.evaluate_batch(x_normalized, corner, mismatch)
        return {name: float(values[0]) for name, values in metrics.items()}

    def evaluate_batch(
        self,
        x_normalized: np.ndarray,
        corner: Optional[Union[PVTCorner, CornerBatch]] = None,
        mismatch: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Evaluate ``F(x | t, h)`` for a whole batch in one pass.

        Parameters
        ----------
        x_normalized:
            One normalised sizing vector shared by every batch element.
        corner:
            A single :class:`PVTCorner` broadcast over the batch, or a
            :class:`CornerBatch` supplying one condition per element.
        mismatch:
            ``(B, r)`` matrix of mismatch vectors (one row per element), or
            ``None`` for nominal devices.  When both a corner batch and a
            mismatch matrix are given their lengths must agree.

        Returns ``{metric: (B,) array}``.
        """
        corner = corner if corner is not None else typical_corner()
        x_physical = self.denormalize(x_normalized)

        corner_count = len(corner) if isinstance(corner, CornerBatch) else None
        if mismatch is None:
            batch = corner_count if corner_count is not None else 1
            h_matrix = np.zeros((batch, self.mismatch_dimension))
        else:
            h_matrix = np.asarray(mismatch, dtype=float)
            if h_matrix.ndim != 2 or h_matrix.shape[1] != self.mismatch_dimension:
                raise ValueError(
                    f"expected mismatch matrix of shape "
                    f"(B, {self.mismatch_dimension}), got {h_matrix.shape}"
                )
            batch = h_matrix.shape[0]
            if corner_count is not None and corner_count != batch:
                raise ValueError(
                    f"corner batch ({corner_count}) and mismatch batch "
                    f"({batch}) lengths differ"
                )

        view = self._mismatch_model.as_batch_device_view(h_matrix)
        raw = self._evaluate_physical_batch(x_physical, corner, view)
        return self._broadcast_metrics(raw, batch)

    def evaluate_design_batch(
        self,
        designs: np.ndarray,
        corner: Optional[PVTCorner] = None,
    ) -> Dict[str, np.ndarray]:
        """Evaluate ``M`` *designs* at nominal mismatch in one pass.

        The batch axis here is the **design** axis — one row of ``designs``
        per candidate sizing vector — which is what TuRBO proposal batches
        and population-style baselines fan out over.  The physical design
        matrix is handed to :meth:`_evaluate_physical_batch` transposed, so
        each parameter lookup ``x[i]`` yields the ``(M,)`` column and every
        device model broadcasts over it.

        Returns ``{metric: (M,) array}``.
        """
        corner = corner if corner is not None else typical_corner()
        designs = np.atleast_2d(np.asarray(designs, dtype=float))
        count = designs.shape[0]
        x_physical = self.denormalize_batch(designs)
        view = self._mismatch_model.as_batch_device_view(
            np.zeros((count, self.mismatch_dimension))
        )
        raw = self._evaluate_physical_batch(x_physical.T, corner, view)
        return self._broadcast_metrics(raw, count)

    def _broadcast_metrics(
        self, raw: Dict[str, np.ndarray], batch: int
    ) -> Dict[str, np.ndarray]:
        """One fresh ``(batch,)`` float array per constraint metric."""
        missing = set(self._constraints) - set(raw)
        if missing:
            raise RuntimeError(
                f"circuit {self.name!r} did not report metrics: "
                f"{sorted(missing)}"
            )
        return {
            name: np.array(
                np.broadcast_to(np.asarray(raw[name], dtype=float), (batch,))
            )
            for name in self._constraints
        }

    # ------------------------------------------------------------------
    # External-simulator (deck) declarations
    # ------------------------------------------------------------------
    def measure_specs(self) -> Tuple[MeasureSpec, ...]:
        """One :class:`~repro.spice.deck.MeasureSpec` per metric.

        The deck compiler (:mod:`repro.spice.deck`) emits one ``.measure``
        card per metric per batch row from these declarations.  The default
        is a placeholder for every metric — no ``.meas`` card, so a real
        engine reports NaN rather than a fabricated value, while
        payload-aware runners (the analytic fake simulator) supply the real
        numbers — and the paper circuits override with expressions tied to
        their testbench nodes and deck parameters.
        """
        return tuple(MeasureSpec(metric) for metric in self.metric_names)

    def waveform_specs(self) -> Tuple["WaveformSpec", ...]:
        """One :class:`~repro.analysis.waveform.WaveformSpec` per metric.

        Waveform-mode decks (:func:`repro.spice.deck.compile_job_deck` with
        ``measurement="waveform"``) carry no ``.measure`` cards at all: the
        engine writes a transient rawfile and every metric is extracted
        host-side by :mod:`repro.analysis.waveform` according to these
        declarations.  The default is a *placeholder* per metric — a
        synthetic ``v(m_<metric>)`` probe with no testbench meaning, which
        only payload-aware runners (the analytic fake) can honour — and the
        paper circuits override with recipes on their real probe nodes.
        """
        return tuple(
            WaveformSpec(
                metric,
                recipe="final",
                signal=f"v(m_{metric.lower()})",
                placeholder=True,
            )
            for metric in self.metric_names
        )

    def build_testbench(self, x_physical: np.ndarray, corner: PVTCorner):
        """A structural surrogate testbench netlist for this circuit.

        Returns a :class:`repro.spice.netlist.Circuit` sized from the
        *physical* design vector at the given corner; the deck compiler
        lowers it to ngspice cards.  The default builds a generic bench from
        the mismatch model's device specs — a supply, a bias rail and one
        diode-loaded device per spec — so every testbench (including
        synthetic test circuits) is deck-compilable; the paper circuits
        override with their actual topology.
        """
        from repro.spice.mosfet import MosfetModel, nmos_28nm, pmos_28nm
        from repro.spice.netlist import (
            Capacitor,
            Circuit,
            GROUND,
            Mosfet,
            Resistor,
            VoltageSource,
        )

        vdd = float(corner.vdd)
        bench = Circuit(self.name)
        bench.add(VoltageSource("VVDD", "vdd", GROUND, vdd))
        bench.add(VoltageSource("VBIAS", "bias", GROUND, 0.55 * vdd))
        bench.add(Resistor("R_load", "vdd", "out", 1e4))
        for spec in self._mismatch_model.devices:
            if spec.kind in (DeviceKind.NMOS, DeviceKind.PMOS):
                width = max(
                    float(spec.width_of(x_physical)) * 1e-6, MosfetModel.MIN_WIDTH
                )
                length = max(
                    float(spec.length_of(x_physical)) * 1e-6, MosfetModel.MIN_LENGTH
                )
                if spec.kind is DeviceKind.NMOS:
                    model = MosfetModel(width, length, nmos_28nm())
                    bench.add(Mosfet(spec.name, "out", "bias", GROUND, model))
                else:
                    model = MosfetModel(width, length, pmos_28nm())
                    bench.add(Mosfet(spec.name, "out", "bias", "vdd", model))
            elif spec.kind is DeviceKind.CAPACITOR:
                bench.add(
                    Capacitor(spec.name, "out", GROUND, float(spec.cap_of(x_physical)))
                )
        return bench

    def is_feasible(self, metrics: Dict[str, float]) -> bool:
        """True when every metric meets its constraint bound."""
        return all(
            metrics[name] <= bound for name, bound in self._constraints.items()
        )

    def constraint_margins(self, metrics: Dict[str, float]) -> Dict[str, float]:
        """Per-metric slack ``c_i - F_i`` (positive means satisfied)."""
        return {
            name: bound - metrics[name] for name, bound in self._constraints.items()
        }

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A human-readable summary of the design space and targets."""
        lines = [f"Circuit: {self.name} ({self.dimension} sizing parameters)"]
        for parameter in self._parameters:
            lines.append(
                f"  {parameter.name}: [{parameter.lower:g}, {parameter.upper:g}] "
                f"{parameter.unit}"
            )
        lines.append("Targets:")
        for metric, bound in self._constraints.items():
            lines.append(f"  {metric} <= {bound:g}")
        lines.append(f"Mismatch parameters: {self.mismatch_dimension}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} dim={self.dimension}>"
