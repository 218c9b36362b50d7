"""A small Gaussian-process regressor used by the TuRBO initial sampler.

Squared-exponential (RBF) kernel with automatic lengthscale selection from a
short grid search on the log marginal likelihood.  The design spaces here
have tens of dimensions and TuRBO only ever fits a few hundred points, so a
dense Cholesky implementation is entirely adequate.

It needs numpy alone: the factor comes from ``np.linalg.cholesky`` and each
solve against it is two ``np.linalg.solve`` calls.  Squared distances are
summed coordinate by coordinate, in the order scipy's
``cdist(..., "sqeuclidean")`` sums them, so the two agree bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of ``a`` and ``b``."""
    distances = np.zeros((a.shape[0], b.shape[0]))
    for column in range(a.shape[1]):
        difference = a[:, column, None] - b[None, :, column]
        distances += difference * difference
    return distances


def _cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``factor @ factor.T @ x = rhs`` for a lower Cholesky factor."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"GP {name} must not contain infs or NaNs")


class GaussianProcess:
    """GP regression with an RBF kernel and observation noise."""

    def __init__(
        self,
        lengthscale: Optional[float] = None,
        signal_variance: float = 1.0,
        noise_variance: float = 1e-6,
    ):
        self.lengthscale = lengthscale
        self.signal_variance = signal_variance
        self.noise_variance = noise_variance
        self._train_inputs: Optional[np.ndarray] = None
        self._train_targets: Optional[np.ndarray] = None
        self._target_mean = 0.0
        self._target_std = 1.0
        self._cho: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _kernel(self, distances: np.ndarray, lengthscale: float) -> np.ndarray:
        return self.signal_variance * np.exp(-0.5 * distances / lengthscale**2)

    def _factor(self, distances: np.ndarray, lengthscale: float) -> np.ndarray:
        """Lower Cholesky factor of the noisy training kernel."""
        kernel = self._kernel(distances, lengthscale)
        kernel[np.diag_indices_from(kernel)] += self.noise_variance
        return np.linalg.cholesky(kernel)

    def _log_marginal_likelihood(
        self, distances: np.ndarray, targets: np.ndarray, lengthscale: float
    ) -> float:
        try:
            cho = self._factor(distances, lengthscale)
        except np.linalg.LinAlgError:
            return -np.inf
        alpha = _cho_solve(cho, targets)
        log_det = 2.0 * np.sum(np.log(np.diag(cho)))
        return float(
            -0.5 * targets @ alpha - 0.5 * log_det - 0.5 * len(targets) * np.log(2 * np.pi)
        )

    # ------------------------------------------------------------------
    def fit(self, inputs: np.ndarray, targets: np.ndarray) -> "GaussianProcess":
        """Fit the GP, selecting a lengthscale by grid search if unset."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.asarray(targets, dtype=float).ravel()
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets must have the same length")
        if inputs.shape[0] < 2:
            raise ValueError("need at least two observations to fit a GP")
        _require_finite("inputs", inputs)
        _require_finite("targets", targets)

        self._target_mean = float(targets.mean())
        self._target_std = float(targets.std())
        if self._target_std < 1e-12:
            self._target_std = 1.0
        standardized = (targets - self._target_mean) / self._target_std

        # The distances do not depend on the lengthscale: compute them once.
        distances = _squared_distances(inputs, inputs)
        if self.lengthscale is None:
            dimension = inputs.shape[1]
            base = np.sqrt(dimension) * 0.3
            candidates = base * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
            scores = [
                self._log_marginal_likelihood(distances, standardized, candidate)
                for candidate in candidates
            ]
            self.lengthscale = float(candidates[int(np.argmax(scores))])

        self._cho = self._factor(distances, self.lengthscale)
        self._alpha = _cho_solve(self._cho, standardized)
        self._train_inputs = inputs
        self._train_targets = standardized
        return self

    def predict(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at the query points."""
        if self._train_inputs is None:
            raise RuntimeError("predict called before fit")
        query = np.atleast_2d(np.asarray(query, dtype=float))
        _require_finite("query", query)
        cross = self._kernel(
            _squared_distances(query, self._train_inputs), self.lengthscale
        )
        mean = cross @ self._alpha
        v = _cho_solve(self._cho, cross.T)
        prior = self.signal_variance
        variance = np.maximum(prior - np.sum(cross * v.T, axis=1), 1e-12)
        return (
            mean * self._target_std + self._target_mean,
            variance * self._target_std**2,
        )

    def sample_posterior(
        self, query: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Independent (diagonal) Thompson samples from the posterior."""
        mean, variance = self.predict(query)
        return mean + rng.standard_normal(mean.shape) * np.sqrt(variance)
