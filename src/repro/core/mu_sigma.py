"""The mu-sigma evaluation method (Section V.A, Eq. 7).

Before spending a full Monte-Carlo budget on a candidate design, GLOVA
analyses the small subset of ``N'`` simulations already available for a
corner and asks whether the *estimated* distribution of each metric leaves
enough headroom::

    e_i = E[F_i] + beta2 * sigma[F_i]  <=  c_i          (beta2 >= 4)

All constraints are expressed as upper bounds (maximised metrics are
sign-flipped by the circuit definitions), so "higher is worse" holds for
every metric and a positive ``beta2`` is conservative: the screen only lets
a design through to full verification when even a ``beta2``-sigma pessimistic
estimate of every metric still meets its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.spec import DesignSpec


@dataclass(frozen=True)
class MuSigmaResult:
    """Outcome of the mu-sigma screen for one corner.

    Attributes
    ----------
    passed:
        True when every metric's pessimistic estimate meets its bound.
    estimates:
        Per-metric ``e_i = mean + beta2 * std``.
    means / stds:
        The per-metric sample statistics the estimate was built from.
    margins:
        ``c_i - e_i`` (positive = headroom).
    """

    passed: bool
    estimates: Dict[str, float]
    means: Dict[str, float]
    stds: Dict[str, float]
    margins: Dict[str, float]

    @property
    def worst_margin(self) -> float:
        return min(self.margins.values())


class MuSigmaEvaluator:
    """Applies Eq. (7) to a matrix of sampled metrics."""

    def __init__(self, spec: DesignSpec, beta2: float = 4.0):
        if beta2 < 0:
            raise ValueError("beta2 must be non-negative")
        self.spec = spec
        self.beta2 = float(beta2)

    def evaluate(self, metric_matrix: np.ndarray) -> MuSigmaResult:
        """Screen one corner's ``(N', m)`` matrix of sampled metrics, its
        columns ordered like the spec's constraints.

        With a single sample the standard deviation is zero and the screen
        degenerates to a plain constraint check, which is exactly what the
        corner-only (``C``) configuration needs.
        """
        matrix = np.asarray(metric_matrix, dtype=float)
        if not len(matrix):
            raise ValueError("mu-sigma evaluation needs at least one sample")
        names = self.spec.metric_names
        means = matrix.mean(axis=0)
        stds = matrix.std(axis=0, ddof=0)
        estimates = means + self.beta2 * stds
        bounds = self.spec.bounds
        margins = bounds - estimates
        passed = bool(np.all(estimates <= bounds))
        return MuSigmaResult(
            passed=passed,
            estimates=dict(zip(names, estimates.tolist())),
            means=dict(zip(names, means.tolist())),
            stds=dict(zip(names, stds.tolist())),
            margins=dict(zip(names, margins.tolist())),
        )

    def estimates_vector(self, result: MuSigmaResult) -> np.ndarray:
        """The ``e_i`` values ordered like the spec's constraints."""
        return np.array([result.estimates[name] for name in self.spec.metric_names])
