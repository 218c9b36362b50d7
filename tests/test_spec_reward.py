"""Tests for constraint normalisation and the reward function (Eq. 4-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.reward import (
    FEASIBLE_REWARD,
    is_feasible_reward,
    reward_from_metrics,
    reward_from_normalized,
    rewards_from_matrix,
)
from repro.core.spec import Constraint, DesignSpec

SPEC = DesignSpec(
    [
        Constraint("power", 40e-6),
        Constraint("delay", 4e-9),
        Constraint("neg_swing", -85e-3),
    ]
)


@pytest.fixture
def spec():
    return SPEC


class TestConstraint:
    def test_margin_sign(self):
        constraint = Constraint("power", 10.0)
        assert constraint.margin(8.0) > 0
        assert constraint.margin(12.0) < 0

    def test_normalized_positive_when_satisfied(self):
        constraint = Constraint("power", 10.0)
        assert constraint.normalized(5.0) > 0
        assert constraint.normalized(15.0) < 0

    def test_normalized_handles_negative_bounds(self):
        """Sign-flipped (maximised) metrics keep the right feasibility sign."""
        constraint = Constraint("neg_swing", -85e-3)
        assert constraint.normalized(-120e-3) > 0  # swing 120 mV >= 85 mV
        assert constraint.normalized(-50e-3) < 0  # swing 50 mV < 85 mV

    def test_normalized_bounded(self):
        constraint = Constraint("power", 1.0)
        assert -1.0 <= constraint.normalized(1e9) <= 1.0
        assert -1.0 <= constraint.normalized(0.0) <= 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_maximal_violation(self, value):
        assert Constraint("power", 1.0).normalized(value) == -1.0
        assert Constraint("neg_swing", -85e-3).normalized(value) == -1.0

    def test_satisfied(self):
        constraint = Constraint("power", 10.0)
        assert constraint.satisfied(10.0)
        assert not constraint.satisfied(10.1)


class TestDesignSpec:
    def test_from_circuit(self, strongarm):
        spec = DesignSpec.from_circuit(strongarm)
        assert set(spec.metric_names) == set(strongarm.metric_names)

    def test_duplicate_metrics_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec([Constraint("a", 1.0), Constraint("a", 2.0)])

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec([])

    def test_feasibility(self, spec):
        good = {"power": 30e-6, "delay": 3e-9, "neg_swing": -100e-3}
        bad = {"power": 50e-6, "delay": 3e-9, "neg_swing": -100e-3}
        assert spec.is_feasible(good)
        assert not spec.is_feasible(bad)

    def test_violation_zero_when_feasible(self, spec):
        good = {"power": 30e-6, "delay": 3e-9, "neg_swing": -100e-3}
        assert spec.violation(good) == 0.0

    def test_violation_positive_when_infeasible(self, spec):
        bad = {"power": 80e-6, "delay": 8e-9, "neg_swing": -10e-3}
        assert spec.violation(bad) > 0.0

    def test_non_finite_metric_is_one_full_violation(self, spec):
        failed = {"power": np.nan, "delay": 3e-9, "neg_swing": -100e-3}
        assert spec.violation(failed) == 1.0
        np.testing.assert_array_equal(
            spec.normalized_matrix([[np.nan, np.inf, -np.inf]]),
            [[-1.0, -1.0, -1.0]],
        )

    def test_metric_vector_order(self, spec):
        metrics = {"delay": 2.0, "power": 1.0, "neg_swing": 3.0}
        assert np.allclose(spec.metric_vector(metrics), [1.0, 2.0, 3.0])


class TestReward:
    def test_feasible_reward_constant(self):
        assert FEASIBLE_REWARD == pytest.approx(0.2)

    def test_all_satisfied_gives_feasible_reward(self, spec):
        metrics = {"power": 30e-6, "delay": 3e-9, "neg_swing": -100e-3}
        assert reward_from_metrics(spec, metrics) == FEASIBLE_REWARD

    def test_violation_gives_negative_reward(self, spec):
        metrics = {"power": 80e-6, "delay": 3e-9, "neg_swing": -100e-3}
        assert reward_from_metrics(spec, metrics) < 0

    def test_more_violation_is_more_negative(self, spec):
        mild = {"power": 45e-6, "delay": 3e-9, "neg_swing": -100e-3}
        severe = {"power": 90e-6, "delay": 9e-9, "neg_swing": -100e-3}
        assert reward_from_metrics(spec, severe) < reward_from_metrics(spec, mild)

    def test_reward_from_normalized_clamps_positive_sum(self):
        assert reward_from_normalized(np.array([0.5, 0.9])) == FEASIBLE_REWARD

    def test_reward_from_normalized_sums_only_violations(self):
        assert reward_from_normalized(np.array([0.5, -0.3])) == pytest.approx(-0.3)
        assert reward_from_normalized(np.array([-0.1, -0.3])) == pytest.approx(-0.4)

    def test_nan_metric_gives_violation_reward(self, spec):
        failed = {"power": np.nan, "delay": 3e-9, "neg_swing": -100e-3}
        assert reward_from_metrics(spec, failed) == -1.0

    def test_is_feasible_reward(self):
        assert is_feasible_reward(0.2)
        assert not is_feasible_reward(0.0)
        assert not is_feasible_reward(-0.5)


@settings(max_examples=100, deadline=None)
@given(
    bound=st.floats(min_value=1e-9, max_value=1e3),
    value=st.floats(min_value=0.0, max_value=1e6),
)
def test_normalization_sign_matches_feasibility_property(bound, value):
    constraint = Constraint("m", bound)
    normalized = constraint.normalized(value)
    if value <= bound:
        assert normalized >= 0
    else:
        assert normalized <= 0
    assert -1.0 <= normalized <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    normalized=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6
    )
)
def test_reward_bounds_property(normalized):
    reward = reward_from_normalized(np.array(normalized))
    assert reward <= FEASIBLE_REWARD
    assert reward >= -len(normalized)
    if all(f >= 0 for f in normalized):
        assert reward == FEASIBLE_REWARD


#: Metric values as an engine can return them: ordinary numbers plus the
#: non-finite failures (NaN from a failed measure, ±inf from a blow-up).
_metric_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


@settings(max_examples=200, deadline=None)
@given(
    matrix=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.just(len(SPEC))),
        elements=_metric_values,
    ),
    data=st.data(),
)
def test_reward_boundary_property(matrix, data):
    rewards = rewards_from_matrix(SPEC, matrix)
    assert np.all(np.isfinite(rewards))
    assert np.all(rewards <= FEASIBLE_REWARD)
    # The scalar path agrees with the matrix row, bit for bit.
    for row, reward in zip(matrix, rewards):
        metrics = dict(zip(SPEC.metric_names, row))
        assert reward_from_metrics(SPEC, metrics) == reward
    # Rewards do not depend on row order, so neither does their minimum.
    order = data.draw(st.permutations(range(len(matrix))))
    permuted = rewards_from_matrix(SPEC, matrix[list(order)])
    np.testing.assert_array_equal(permuted, rewards[list(order)])
