"""GLOVA core: the paper's primary contribution.

Modules
-------
``config``
    Framework configuration, verification methods, and the Table-I
    operational configuration.
``spec`` / ``reward``
    Constraint normalisation (Eq. 5) and the consolidated reward (Eq. 4).
``nn``
    One stacked feed-forward network: K same-shape MLPs with backprop,
    input gradients and in-place Adam over flat buffers (the critic
    ensemble is K members, the actor one).
``replay``
    Worst-case replay buffer (one draw gives all of an agent update's
    minibatches) and last-worst-case corner buffer.
``actor_critic``
    The actor network and the ensemble-based critic (Eq. 6).
``agent``
    Risk-sensitive DDPG-style training (Algorithm 1).
``gp`` / ``turbo``
    Gaussian-process surrogate and TuRBO trust-region initial sampling.
``mu_sigma``
    The mu-sigma feasibility screen (Eq. 7).
``reordering``
    Corner reordering by t-SCORE and MC reordering by h-SCORE (Eq. 8-10).
``verification``
    The hierarchical verification algorithm (Algorithm 2).
``optimizer``
    The full Fig.-2 workflow tying everything together, on the run
    scaffold (``SizingOptimizer``) the Table-II baselines share.
"""

from repro.core.config import GlovaConfig, OperationalConfig, VerificationMethod
from repro.core.optimizer import GlovaOptimizer
from repro.core.result import OptimizationResult

__all__ = [
    "GlovaConfig",
    "OperationalConfig",
    "VerificationMethod",
    "GlovaOptimizer",
    "OptimizationResult",
]
