"""Design specification: constraints and normalised performance metrics.

The paper folds the constraint-satisfaction problem into a single reward by
normalising each metric against its bound (Eq. 5)::

    f_i = (c_i - F_i) / (c_i + F_i)

which is positive when the constraint is met and negative otherwise.  That
expression assumes both ``c_i`` and ``F_i`` are positive; the DRAM-core
testcase sign-flips its sensing voltages (``-dV <= -85 mV``), which would
make the paper's denominator change sign.  We therefore use the equivalent
robust form::

    f_i = (c_i - F_i) / (|c_i| + |F_i| + eps)

which preserves the sign and the [-1, 1] range of the paper's normalisation
for positive metrics and extends it safely to sign-flipped ones.

A non-finite metric (NaN from a failed measurement, ±inf from a model
blowing up) is the maximal violation, ``f_i = -1``, on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.circuits.base import AnalogCircuit

#: Numerical guard for the normalisation denominator.
_EPSILON = 1e-12


def _normalize(bounds, values) -> np.ndarray:
    """Elementwise ``f_i``; a non-finite metric maps to ``-1``.

    Without that rule a NaN metric would become a NaN reward (NaN never
    compares ``>= 0``) and an infinite one a NaN ``f_i``.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    values = np.where(finite, values, 0.0)
    normalized = (bounds - values) / (np.abs(bounds) + np.abs(values) + _EPSILON)
    return np.where(finite, normalized, -1.0)


@dataclass(frozen=True)
class Constraint:
    """A single design target: ``metric <= bound``."""

    metric: str
    bound: float

    def margin(self, value: float) -> float:
        """Positive slack when satisfied, negative violation otherwise."""
        return self.bound - value

    def normalized(self, value: float) -> float:
        """The paper's normalised metric ``f_i`` (robust form, see module doc)."""
        return float(_normalize(self.bound, value))

    def satisfied(self, value: float) -> bool:
        return value <= self.bound


class DesignSpec:
    """The set of constraints for one circuit, with vector helpers."""

    def __init__(self, constraints: Sequence[Constraint]):
        if not constraints:
            raise ValueError("a DesignSpec needs at least one constraint")
        names = [c.metric for c in constraints]
        if len(set(names)) != len(names):
            raise ValueError("duplicate metric names in DesignSpec")
        self._constraints: List[Constraint] = list(constraints)

    @classmethod
    def from_circuit(cls, circuit: AnalogCircuit) -> "DesignSpec":
        """Build the spec from a circuit's declared constraints."""
        return cls(
            [Constraint(metric, bound) for metric, bound in circuit.constraints.items()]
        )

    @property
    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    @property
    def metric_names(self) -> List[str]:
        return [c.metric for c in self._constraints]

    @property
    def bounds(self) -> np.ndarray:
        return np.array([c.bound for c in self._constraints])

    def __len__(self) -> int:
        return len(self._constraints)

    # ------------------------------------------------------------------
    def metric_vector(self, metrics: Mapping[str, float]) -> np.ndarray:
        """Raw metric values ordered like the constraints."""
        return np.array([metrics[c.metric] for c in self._constraints])

    def normalized_metrics(self, metrics: Mapping[str, float]) -> np.ndarray:
        """Vector of ``f_i`` values (positive = satisfied)."""
        return _normalize(self.bounds, self.metric_vector(metrics))

    def normalized_matrix(self, metric_matrix: np.ndarray) -> np.ndarray:
        """Vectorized ``f_i`` for an ``(N, n_metrics)`` raw-metric matrix.

        Columns must be ordered like :attr:`metric_names` (the layout
        produced by ``CircuitSimulator.metrics_matrix``).
        """
        return _normalize(self.bounds, metric_matrix)

    def margins(self, metrics: Mapping[str, float]) -> Dict[str, float]:
        """Per-metric slack ``c_i - F_i``."""
        return {c.metric: c.margin(metrics[c.metric]) for c in self._constraints}

    def is_feasible(self, metrics: Mapping[str, float]) -> bool:
        """True when every constraint is met."""
        return all(c.satisfied(metrics[c.metric]) for c in self._constraints)

    def violation(self, metrics: Mapping[str, float]) -> float:
        """Total normalised violation (0 when feasible)."""
        normalized = self.normalized_metrics(metrics)
        return float(-np.sum(np.minimum(normalized, 0.0)))
