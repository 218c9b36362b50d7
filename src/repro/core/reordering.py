"""Simulation reordering (Section V.B, Eq. 8-10).

Two orderings make the verification phase fail fast:

* **Corner reordering** — corners are ranked by their t-SCORE, the sum over
  metrics of the mu-sigma estimates ``e_i`` normalised by the constraint
  magnitude (the normalisation keeps metrics with different units
  commensurable; the paper sums the raw ``e_i``, which is equivalent up to a
  per-circuit constant).  Higher t-SCORE means
  the corner is closer to failing, so it is simulated first.

* **MC reordering** — within a corner, the not-yet-simulated mismatch
  conditions are ranked by their h-SCORE: the inner product between the
  mismatch vector and the Pearson correlation (computed on the already
  simulated ``N'`` subset) between each mismatch parameter and the summed
  normalised performance ``g = sum_i f_i``.  Since smaller ``f`` is worse,
  conditions whose correlated parameters push ``g`` down get the highest
  failure likelihood and are simulated first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.mu_sigma import MuSigmaResult
from repro.core.spec import DesignSpec


def t_score(spec: DesignSpec, result: MuSigmaResult) -> float:
    """Corner severity score (Eq. 8): higher = more likely to fail."""
    score = 0.0
    for constraint in spec.constraints:
        estimate = result.estimates[constraint.metric]
        scale = abs(constraint.bound) + 1e-12
        score += estimate / scale
    return float(score)


def pearson_correlation(
    mismatch_samples: np.ndarray, performance: np.ndarray
) -> np.ndarray:
    """Per-dimension Pearson correlation (Eq. 9).

    Parameters
    ----------
    mismatch_samples:
        Array of shape ``(n, r)`` — the pre-sampled mismatch conditions.
    performance:
        Array of shape ``(n,)`` — the summed normalised performance ``g``
        of each sample.

    Dimensions with zero variance (e.g. when global-only sampling repeats
    the same value) get a correlation of zero.
    """
    mismatch_samples = np.atleast_2d(np.asarray(mismatch_samples, dtype=float))
    performance = np.asarray(performance, dtype=float).ravel()
    if mismatch_samples.shape[0] != performance.shape[0]:
        raise ValueError("sample count mismatch between h-vectors and performance")
    if mismatch_samples.shape[0] < 2:
        return np.zeros(mismatch_samples.shape[1])

    h_centered = mismatch_samples - mismatch_samples.mean(axis=0)
    g_centered = performance - performance.mean()
    h_norm = np.sqrt(np.sum(h_centered**2, axis=0))
    g_norm = np.sqrt(np.sum(g_centered**2))
    denominator = h_norm * g_norm
    with np.errstate(invalid="ignore", divide="ignore"):
        correlation = (h_centered.T @ g_centered) / denominator
    correlation[~np.isfinite(correlation)] = 0.0
    return correlation


def h_scores(mismatch_samples: np.ndarray, correlation: np.ndarray) -> np.ndarray:
    """Failure-likelihood score per mismatch condition (Eq. 10).

    ``g = sum_i f_i`` is *better* when larger, so a mismatch condition whose
    correlated components drive ``g`` down is the most dangerous.  The score
    is therefore the negated weighted sum, so that a higher h-SCORE means a
    higher likelihood of failure and such conditions are simulated first.
    """
    mismatch_samples = np.atleast_2d(np.asarray(mismatch_samples, dtype=float))
    correlation = np.asarray(correlation, dtype=float).ravel()
    if mismatch_samples.shape[1] != correlation.shape[0]:
        raise ValueError("correlation vector length must match mismatch dimension")
    return -(mismatch_samples @ correlation)


def order_by_scores(scores: Sequence[float], descending: bool = True) -> np.ndarray:
    """Indices that sort ``scores`` (descending by default)."""
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(scores)
    return order[::-1] if descending else order
