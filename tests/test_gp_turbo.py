"""Tests for the GP surrogate and the TuRBO initial sampler."""

import numpy as np
import pytest

from repro.core.gp import GaussianProcess, _squared_distances
from repro.core.reward import FEASIBLE_REWARD
from repro.core.turbo import TurboResult, TurboSampler


def _scipy_reference_gp(inputs, targets, query, noise_variance=1e-6):
    """The GP as it was computed with scipy: ``cdist`` distances and the
    ``cho_factor``/``cho_solve`` pair.  Returns the lengthscale the grid
    search picks and the posterior mean and variance at ``query``."""
    linalg = pytest.importorskip("scipy.linalg")
    cdist = pytest.importorskip("scipy.spatial.distance").cdist

    def kernel(a, b, lengthscale):
        return np.exp(-0.5 * cdist(a, b, metric="sqeuclidean") / lengthscale**2)

    def factor(lengthscale):
        gram = kernel(inputs, inputs, lengthscale)
        gram[np.diag_indices_from(gram)] += noise_variance
        return linalg.cho_factor(gram, lower=True)

    def log_marginal_likelihood(lengthscale):
        try:
            cho = factor(lengthscale)
        except np.linalg.LinAlgError:
            return -np.inf
        alpha = linalg.cho_solve(cho, standardized)
        log_det = 2.0 * np.sum(np.log(np.diag(cho[0])))
        return float(
            -0.5 * standardized @ alpha
            - 0.5 * log_det
            - 0.5 * len(standardized) * np.log(2 * np.pi)
        )

    mean, std = targets.mean(), targets.std()
    std = 1.0 if std < 1e-12 else std
    standardized = (targets - mean) / std
    candidates = np.sqrt(inputs.shape[1]) * 0.3 * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    scores = [log_marginal_likelihood(candidate) for candidate in candidates]
    lengthscale = float(candidates[int(np.argmax(scores))])
    cho = factor(lengthscale)
    cross = kernel(query, inputs, lengthscale)
    v = linalg.cho_solve(cho, cross.T)
    variance = np.maximum(1.0 - np.sum(cross * v.T, axis=1), 1e-12)
    posterior_mean = cross @ linalg.cho_solve(cho, standardized)
    return lengthscale, posterior_mean * std + mean, variance * std**2


class TestGaussianProcess:
    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((1, 2)), np.zeros(1))

    def test_fit_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            GaussianProcess().fit(np.zeros((3, 2)), np.zeros(4))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            GaussianProcess().predict(np.zeros((1, 2)))

    def test_interpolates_training_points(self, rng):
        inputs = rng.uniform(size=(30, 2))
        targets = np.sin(3 * inputs[:, 0]) + inputs[:, 1]
        gp = GaussianProcess().fit(inputs, targets)
        mean, _ = gp.predict(inputs)
        assert np.allclose(mean, targets, atol=0.1)

    def test_variance_larger_away_from_data(self, rng):
        inputs = rng.uniform(0.0, 0.3, size=(30, 2))
        targets = inputs.sum(axis=1)
        gp = GaussianProcess().fit(inputs, targets)
        _, variance_near = gp.predict(np.array([[0.15, 0.15]]))
        _, variance_far = gp.predict(np.array([[0.95, 0.95]]))
        assert variance_far[0] > variance_near[0]

    def test_posterior_samples_have_right_shape(self, rng):
        inputs = rng.uniform(size=(20, 3))
        targets = inputs.sum(axis=1)
        gp = GaussianProcess().fit(inputs, targets)
        samples = gp.sample_posterior(rng.uniform(size=(7, 3)), rng)
        assert samples.shape == (7,)

    def test_constant_targets_handled(self, rng):
        inputs = rng.uniform(size=(10, 2))
        gp = GaussianProcess().fit(inputs, np.full(10, 3.0))
        mean, _ = gp.predict(inputs[:3])
        assert np.allclose(mean, 3.0, atol=0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite_data(self, rng, bad):
        inputs = rng.uniform(size=(6, 2))
        targets = inputs.sum(axis=1)
        corrupt_inputs = inputs.copy()
        corrupt_inputs[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            GaussianProcess().fit(corrupt_inputs, targets)
        corrupt_targets = targets.copy()
        corrupt_targets[4] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            GaussianProcess().fit(inputs, corrupt_targets)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_rejects_non_finite_query(self, rng, bad):
        inputs = rng.uniform(size=(6, 2))
        gp = GaussianProcess().fit(inputs, inputs.sum(axis=1))
        with pytest.raises(ValueError, match="infs or NaNs"):
            gp.predict(np.array([[0.5, 0.5], [0.5, bad]]))

    def test_matches_scipy_reference(self):
        """The numpy GP computes the scipy GP it replaced.

        Distances are the same bits.  The Cholesky factors come from two
        OpenBLAS builds (numpy's and scipy's) and differ in the last bits,
        so the posterior is compared within tolerances.  Inputs are
        uniform in the unit cube and targets a noiseless function of them,
        as TuRBO's typical-condition rewards are; with i.i.d. noise
        targets on 160 points in 2-D the kernel's condition number reaches
        ~1e8 and the two factors' rounding shows in the mean at ~1e-9."""
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        rng = np.random.default_rng(2025)
        for n in (2, 5, 10, 20, 40, 80, 160):
            for p in (2, 12, 14):
                for _ in range(3):
                    inputs = rng.uniform(size=(n, p))
                    targets = np.sin(3.0 * inputs[:, 0]) - np.linalg.norm(
                        inputs - 0.5, axis=1
                    )
                    query = rng.uniform(size=(300, p))
                    lengthscale, mean, variance = _scipy_reference_gp(
                        inputs, targets, query
                    )
                    for a, b in ((inputs, inputs), (query, inputs)):
                        assert np.array_equal(
                            _squared_distances(a, b), cdist(a, b, "sqeuclidean")
                        ), (n, p)
                    gp = GaussianProcess().fit(inputs, targets)
                    assert gp.lengthscale == lengthscale, (n, p)
                    got_mean, got_variance = gp.predict(query)
                    np.testing.assert_allclose(
                        got_mean, mean, rtol=1e-9, atol=1e-12, err_msg=f"n={n} p={p}"
                    )
                    np.testing.assert_allclose(
                        got_variance, variance, rtol=1e-6, atol=1e-12,
                        err_msg=f"n={n} p={p}",
                    )


class TestTurboSampler:
    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            TurboSampler(0)

    def test_initial_points_cover_unit_cube(self, rng):
        sampler = TurboSampler(5, rng=rng, initial_points=16)
        points = sampler.ask_initial()
        assert points.shape == (16, 5)
        assert np.all(points >= 0.0) and np.all(points <= 1.0)

    def test_ask_returns_batch_inside_unit_cube(self, rng):
        sampler = TurboSampler(4, rng=rng, batch_size=3)
        designs = rng.uniform(size=(10, 4))
        sampler.tell(designs, -np.linalg.norm(designs - 0.5, axis=1))
        batch = sampler.ask()
        assert batch.shape == (3, 4)
        assert np.all(batch >= 0.0) and np.all(batch <= 1.0)

    def test_trust_region_shrinks_after_failures(self, rng):
        sampler = TurboSampler(3, rng=rng, failure_tolerance=2)
        sampler.tell(np.full((1, 3), 0.5), np.array([1.0]))
        initial_length = sampler.length
        # Repeated non-improving observations shrink the region.
        for _ in range(4):
            sampler.tell(rng.uniform(size=(1, 3)), np.array([-5.0]))
        assert sampler.length < initial_length

    def test_trust_region_grows_after_successes(self, rng):
        sampler = TurboSampler(3, rng=rng, success_tolerance=2)
        initial_length = sampler.length
        for reward in (0.1, 0.2, 0.3, 0.4):
            sampler.tell(rng.uniform(size=(1, 3)), np.array([reward]))
        assert sampler.length >= initial_length

    def test_run_finds_feasible_region(self, rng):
        """Reward landscape with a feasible plateau around x = 0.7."""

        def objective(designs):
            distance = np.linalg.norm(designs - 0.7, axis=1)
            return np.where(distance < 0.25, FEASIBLE_REWARD, -distance)

        sampler = TurboSampler(3, rng=rng, batch_size=4)
        result = sampler.run(objective, max_evaluations=120, feasible_target=1)
        assert isinstance(result, TurboResult)
        assert result.found_feasible
        assert result.best_reward == FEASIBLE_REWARD
        assert result.evaluations <= 120

    def test_run_respects_budget(self, rng):
        calls = []

        def objective(designs):
            calls.append(len(designs))
            return np.full(len(designs), -1.0)

        sampler = TurboSampler(2, rng=rng)
        result = sampler.run(objective, max_evaluations=25, feasible_target=1)
        assert sum(calls) == 25
        assert result.evaluations == 25
        assert not result.found_feasible

    def test_run_rejects_one_reward_for_a_batch(self, rng):
        sampler = TurboSampler(2, rng=rng)
        with pytest.raises(ValueError, match="objective must map 10 designs"):
            sampler.run(lambda designs: -1.0, max_evaluations=25)
