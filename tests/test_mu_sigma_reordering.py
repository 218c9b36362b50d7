"""Tests for the mu-sigma evaluation (Eq. 7) and simulation reordering (Eq. 8-10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mu_sigma import MuSigmaEvaluator
from repro.core.reordering import (
    h_scores,
    order_by_scores,
    pearson_correlation,
    t_score,
)
from repro.core.spec import Constraint, DesignSpec


@pytest.fixture
def spec():
    return DesignSpec([Constraint("power", 10.0), Constraint("delay", 5.0)])


@pytest.fixture
def evaluator(spec):
    return MuSigmaEvaluator(spec, beta2=4.0)


class TestMuSigmaEvaluator:
    def test_negative_beta2_rejected(self, spec):
        with pytest.raises(ValueError):
            MuSigmaEvaluator(spec, beta2=-1.0)

    def test_empty_samples_rejected(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate(np.empty((0, 2)))

    def test_comfortable_margin_passes(self, evaluator):
        samples = np.array([[5.0, 2.0], [5.2, 2.1]])
        result = evaluator.evaluate(samples)
        assert result.passed
        assert result.worst_margin > 0

    def test_mean_violation_fails(self, evaluator):
        samples = np.array([[12.0, 2.0], [11.0, 2.1]])
        assert not evaluator.evaluate(samples).passed

    def test_high_variance_fails_even_with_good_mean(self, evaluator):
        # Mean power 8 < 10 but sigma 2.5 -> mean + 4*sigma = 18 > 10.
        samples = np.array([[5.5, 2.0], [10.5, 2.0]])
        assert not evaluator.evaluate(samples).passed

    def test_single_sample_degenerates_to_plain_check(self, evaluator):
        assert evaluator.evaluate(np.array([[9.9, 4.9]])).passed
        assert not evaluator.evaluate(np.array([[10.1, 4.9]])).passed

    def test_estimates_vector_order(self, spec, evaluator):
        samples = np.array([[4.0, 2.0]])
        result = evaluator.evaluate(samples)
        vector = evaluator.estimates_vector(result)
        assert vector[0] == pytest.approx(4.0)
        assert vector[1] == pytest.approx(2.0)

    def test_estimate_equals_mean_plus_beta2_sigma(self, spec):
        evaluator = MuSigmaEvaluator(spec, beta2=2.0)
        samples = np.array([[4.0, 1.0], [6.0, 3.0]])
        result = evaluator.evaluate(samples)
        assert result.means["power"] == pytest.approx(5.0)
        assert result.stds["power"] == pytest.approx(1.0)
        assert result.estimates["power"] == pytest.approx(7.0)

    def test_matrix_matches_the_per_sample_dict_screen(self, spec, evaluator, rng):
        """A block's column-stacked matrix screens bit for bit like the
        matrix rebuilt from per-sample metric dicts."""
        block = {"delay": rng.normal(2.0, 0.3, 7), "power": rng.normal(6.0, 1.0, 7)}
        matrix = np.column_stack([block[name] for name in spec.metric_names])
        samples = [
            dict(zip(spec.metric_names, row.tolist())) for row in matrix
        ]
        rebuilt = np.array(
            [[sample[name] for name in spec.metric_names] for sample in samples]
        )
        assert evaluator.evaluate(matrix) == evaluator.evaluate(rebuilt)


class TestTScore:
    def test_worse_corner_scores_higher(self, spec, evaluator):
        mild = evaluator.evaluate(np.array([[3.0, 1.0]]))
        severe = evaluator.evaluate(np.array([[9.0, 4.5]]))
        assert t_score(spec, severe) > t_score(spec, mild)


class TestPearsonCorrelation:
    def test_matches_numpy_corrcoef(self, rng):
        samples = rng.normal(size=(50, 4))
        performance = 2.0 * samples[:, 1] - samples[:, 3] + 0.1 * rng.normal(size=50)
        correlation = pearson_correlation(samples, performance)
        for index in range(4):
            expected = np.corrcoef(samples[:, index], performance)[0, 1]
            assert correlation[index] == pytest.approx(expected, abs=1e-9)

    def test_constant_dimension_gives_zero(self, rng):
        samples = rng.normal(size=(20, 3))
        samples[:, 1] = 0.5
        correlation = pearson_correlation(samples, samples[:, 0])
        assert correlation[1] == 0.0

    def test_too_few_samples_gives_zeros(self):
        assert np.allclose(pearson_correlation(np.ones((1, 3)), np.ones(1)), 0.0)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            pearson_correlation(rng.normal(size=(10, 2)), rng.normal(size=8))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_correlation_bounded_property(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(30, 5))
        performance = rng.normal(size=30)
        correlation = pearson_correlation(samples, performance)
        assert np.all(correlation >= -1.0 - 1e-9)
        assert np.all(correlation <= 1.0 + 1e-9)


class TestHScores:
    def test_dangerous_conditions_rank_first(self, rng):
        """Mismatch vectors aligned with a performance-degrading direction score high."""
        correlation = np.array([-0.9, 0.1])  # dimension 0 hurts g when positive
        conditions = np.array([[3.0, 0.0], [0.0, 0.0], [-3.0, 0.0]])
        scores = h_scores(conditions, correlation)
        order = order_by_scores(scores)
        assert order[0] == 0  # the +3 on the harmful dimension goes first
        assert order[-1] == 2

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            h_scores(np.ones((4, 3)), np.ones(2))

    def test_order_by_scores_ascending(self):
        order = order_by_scores([3.0, 1.0, 2.0], descending=False)
        assert list(order) == [1, 2, 0]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_h_score_linear_in_condition_property(self, seed):
        rng = np.random.default_rng(seed)
        correlation = rng.uniform(-1, 1, size=4)
        condition = rng.normal(size=(1, 4))
        single = h_scores(condition, correlation)[0]
        doubled = h_scores(2 * condition, correlation)[0]
        assert doubled == pytest.approx(2 * single, rel=1e-9, abs=1e-12)
