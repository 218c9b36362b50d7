"""The consolidated reward of Eq. (4)-(5).

A design earns the fixed feasible reward ``0.2`` when it satisfies every
constraint; otherwise its reward is the (negative) sum of the normalised
constraint violations::

    r' = sum_i min(f_i, 0)        r = 0.2 if r' >= 0 else r'

The worst-case reward over a set of simulations is simply the minimum, which
is what the risk-sensitive agent stores in its replay buffer.  A non-finite
metric counts as the maximal violation (see :mod:`repro.core.spec`), so
every reward is finite.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.spec import DesignSpec

#: Reward granted to a fully feasible design (Eq. 4).
FEASIBLE_REWARD = 0.2


def reward_from_normalized(normalized_metrics: np.ndarray) -> float:
    """Reward from a vector of normalised metrics ``f_i``."""
    normalized_metrics = np.asarray(normalized_metrics, dtype=float)
    shortfall = float(np.sum(np.minimum(normalized_metrics, 0.0)))
    return FEASIBLE_REWARD if shortfall >= 0.0 else shortfall


def reward_from_metrics(spec: DesignSpec, metrics: Mapping[str, float]) -> float:
    """Reward for one simulation outcome."""
    return reward_from_normalized(spec.normalized_metrics(metrics))


def rewards_from_matrix(spec: DesignSpec, metric_matrix: np.ndarray) -> np.ndarray:
    """Vectorized rewards for an ``(N, n_metrics)`` raw-metric matrix.

    One pass over the whole Monte-Carlo batch: equivalent to calling
    :func:`reward_from_metrics` per row, without the per-record dict traffic.
    """
    normalized = spec.normalized_matrix(metric_matrix)
    shortfall = np.sum(np.minimum(normalized, 0.0), axis=1)
    return np.where(shortfall >= 0.0, FEASIBLE_REWARD, shortfall)


def is_feasible_reward(reward: float) -> bool:
    """True when a reward corresponds to a fully feasible simulation."""
    return reward >= FEASIBLE_REWARD
