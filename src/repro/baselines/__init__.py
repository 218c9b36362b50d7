"""Baseline sizing frameworks compared against GLOVA in Table II.

* :class:`~repro.baselines.pvtsizing.PVTSizingOptimizer` — TuRBO-seeded RL
  that evaluates **every** predefined corner each iteration (batch
  sampling), with brute-force full verification [Kong et al., DAC 2024].
* :class:`~repro.baselines.robustanalog.RobustAnalogOptimizer` — multi-task
  RL with random initial sampling and k-means corner clustering so only
  dominant corners are simulated each iteration [He et al., MLCAD 2022].
* :class:`~repro.baselines.random_search.RandomSearchOptimizer` — uniform
  random sampling; a sanity floor, not a paper baseline.

Neither published baseline has public code; both are re-implemented from
their papers' descriptions.
"""

from repro.baselines.base import BaselineOptimizer
from repro.baselines.pvtsizing import PVTSizingOptimizer
from repro.baselines.robustanalog import RobustAnalogOptimizer
from repro.baselines.random_search import RandomSearchOptimizer

__all__ = [
    "BaselineOptimizer",
    "PVTSizingOptimizer",
    "RobustAnalogOptimizer",
    "RandomSearchOptimizer",
]
