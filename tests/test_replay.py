"""Tests for the replay buffers (repro.core.replay)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.replay import (
    FLOYD_MAX_POPULATION,
    LastWorstCaseBuffer,
    WorstCaseReplayBuffer,
    choice_batches,
)
from repro.variation.corners import full_corner_set, vt_corner_set


class TestWorstCaseReplayBuffer:
    def test_add_and_len(self):
        buffer = WorstCaseReplayBuffer(capacity=8)
        buffer.add(np.zeros(3), 0.1)
        assert len(buffer) == 1

    def test_capacity_wraps_fifo(self):
        buffer = WorstCaseReplayBuffer(capacity=3)
        for index in range(5):
            buffer.add(np.full(2, index), float(index))
        assert len(buffer) == 3
        assert set(buffer.all_rewards()) == {2.0, 3.0, 4.0}

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WorstCaseReplayBuffer(capacity=0)

    def test_capacity_beyond_floyd_selection_rejected(self):
        """Above 10,000 ``choice`` may stop using Floyd's selection, which
        the one-draw sampler reproduces."""
        assert WorstCaseReplayBuffer(FLOYD_MAX_POPULATION).capacity == 10_000
        with pytest.raises(ValueError, match="capacity"):
            WorstCaseReplayBuffer(capacity=FLOYD_MAX_POPULATION + 1)

    def test_sample_shapes(self, rng):
        buffer = WorstCaseReplayBuffer()
        for index in range(20):
            buffer.add(np.full(4, index), float(index))
        designs, rewards = buffer.sample(8, rng)
        assert designs.shape == (8, 4)
        assert rewards.shape == (8,)

    def test_sample_with_replacement_when_small(self, rng):
        buffer = WorstCaseReplayBuffer()
        buffer.add(np.zeros(2), 0.0)
        designs, rewards = buffer.sample(10, rng)
        assert designs.shape == (10, 2)

    def test_sample_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            WorstCaseReplayBuffer().sample(4, rng)

    def test_sample_batches_shapes(self, rng):
        buffer = WorstCaseReplayBuffer()
        for index in range(20):
            buffer.add(np.full(4, index), float(index))
        designs, rewards = buffer.sample_batches(6, 8, rng)
        assert designs.shape == (6, 8, 4)
        assert rewards.shape == (6, 8)
        np.testing.assert_array_equal(designs[..., 0], rewards)

    def test_sample_batches_needs_enough_entries(self, rng):
        buffer = WorstCaseReplayBuffer()
        for index in range(5):
            buffer.add(np.full(2, index), 0.0)
        state = rng.bit_generator.state
        for batch_size in (6, 0):
            with pytest.raises(ValueError, match="batch size"):
                buffer.sample_batches(3, batch_size, rng)
        with pytest.raises(ValueError, match="batch size"):
            WorstCaseReplayBuffer().sample_batches(1, 1, rng)
        assert rng.bit_generator.state == state
        assert buffer.sample_batches(3, 5, rng)[0].shape == (3, 5, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        batch_size=st.integers(1, 16),
        count=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_choice_batches_equals_successive_choice_calls(
        self, data, batch_size, count, seed
    ):
        """Index rows and the generator's next state equal ``count``
        successive ``Generator.choice(replace=False)`` calls.  This rests
        on numpy's ``choice`` internals (Floyd's selection, then a
        Fisher-Yates shuffle): a failure here names a numpy version whose
        ``choice`` draws differently."""
        population = data.draw(st.integers(batch_size, FLOYD_MAX_POPULATION))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        # Half the runs start with PCG64's spare 32-bit half buffered.
        if data.draw(st.booleans()):
            ours.integers(0, 5)
            theirs.integers(0, 5)
        expected = [
            theirs.choice(population, size=batch_size, replace=False)
            for _ in range(count)
        ]
        got = choice_batches(population, count, batch_size, ours)
        assert got.shape == (count, batch_size)
        np.testing.assert_array_equal(got, np.stack(expected))
        assert ours.random() == theirs.random(), np.__version__

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(16, 300),
        extra=st.integers(0, 400),
        batch_size=st.integers(1, 16),
        count=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_batches_equals_successive_samples(
        self, capacity, extra, batch_size, count, seed
    ):
        """On a filled, possibly wrapped ring, one ``sample_batches`` call
        returns the batches of ``count`` successive ``sample`` calls."""
        buffer = WorstCaseReplayBuffer(capacity)
        fill = np.random.default_rng(seed ^ 1)
        for _ in range(batch_size + extra):
            buffer.add(fill.uniform(size=3), float(fill.uniform(-1.0, 0.2)))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [buffer.sample(batch_size, theirs) for _ in range(count)]
        designs, rewards = buffer.sample_batches(count, batch_size, ours)
        np.testing.assert_array_equal(designs, np.stack([d for d, _ in expected]))
        np.testing.assert_array_equal(rewards, np.stack([r for _, r in expected]))
        assert ours.random() == theirs.random(), np.__version__

    def test_best_returns_highest_reward(self):
        buffer = WorstCaseReplayBuffer()
        buffer.add(np.zeros(2), -0.5)
        buffer.add(np.ones(2), 0.2)
        buffer.add(np.full(2, 2.0), -0.1)
        best = buffer.best()
        assert best.reward == pytest.approx(0.2)
        assert np.allclose(best.design, 1.0)

    def test_best_empty_rejected(self):
        with pytest.raises(ValueError):
            WorstCaseReplayBuffer().best()

    def test_stored_designs_are_copies(self):
        buffer = WorstCaseReplayBuffer()
        design = np.zeros(2)
        buffer.add(design, 0.0)
        design[:] = 99.0
        assert np.allclose(buffer.all_designs()[0], 0.0)

    def test_non_finite_entries_rejected(self):
        buffer = WorstCaseReplayBuffer(capacity=4)
        buffer.add(np.zeros(2), -0.1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                buffer.add(np.zeros(2), bad)
            with pytest.raises(ValueError, match="finite"):
                buffer.add(np.array([0.5, bad]), 0.0)
        assert len(buffer) == 1
        np.testing.assert_array_equal(buffer.all_rewards(), [-0.1])
        np.testing.assert_array_equal(buffer.all_designs(), [[0.0, 0.0]])

    def test_designs_of_the_wrong_shape_rejected(self):
        """A design that is not 1-D, or not of the stored length, used to
        broadcast into the ring (``[1]`` stored as ``[1, 1, 1]``)."""
        buffer = WorstCaseReplayBuffer(capacity=4)
        buffer.add(np.full(3, 0.2), 0.1)
        for bad in (np.ones(1), 0.5, np.full((1, 3), 0.7), np.ones(4)):
            with pytest.raises(ValueError, match="1-D"):
                buffer.add(bad, 0.1)
        assert len(buffer) == 1
        np.testing.assert_array_equal(buffer.all_designs(), [[0.2, 0.2, 0.2]])

        fresh = WorstCaseReplayBuffer(capacity=4)
        for bad in (np.full((1, 3), 0.7), 0.5):
            with pytest.raises(ValueError, match="1-D"):
                fresh.add(bad, 0.1)
        assert len(fresh) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        rewards=st.lists(
            st.one_of(
                st.sampled_from([-0.5, 0.0, 0.2]),  # ties
                st.floats(min_value=-5, max_value=0.2, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_best_is_maximum_property(self, rewards):
        buffer = WorstCaseReplayBuffer(capacity=100)
        for index, reward in enumerate(rewards):
            buffer.add(np.full(2, index), reward)
        best = buffer.best()
        assert best.reward == max(rewards)
        # Ties go to the first maximum in insertion order, as max() gives.
        first = max(range(len(rewards)), key=rewards.__getitem__)
        np.testing.assert_array_equal(best.design, np.full(2, first))


class TestLastWorstCaseBuffer:
    def test_unvisited_corners_are_worst(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        buffer.update(corners[1], 0.2)
        worst = buffer.worst_corner()
        assert worst != corners[1]

    def test_worst_corner_is_minimum_reward(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        for index, corner in enumerate(corners):
            buffer.update(corner, float(index))
        assert buffer.worst_corner() == corners[0]

    def test_update_unknown_corner_rejected(self):
        buffer = LastWorstCaseBuffer(vt_corner_set())
        # An SS-process corner is never part of the VT (typical-process) set.
        stranger = next(
            c for c in full_corner_set() if not c.process.is_typical
        )
        with pytest.raises(KeyError):
            buffer.update(stranger, 0.0)

    def test_sorted_corners_worst_first(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        rewards = [0.2, -0.4, 0.1, -0.1, 0.0, 0.15]
        for corner, reward in zip(corners, rewards):
            buffer.update(corner, reward)
        ordered = buffer.sorted_corners()
        ordered_rewards = [buffer.reward_of(c) for c in ordered]
        assert ordered_rewards == sorted(rewards)

    def test_as_dict_snapshot(self):
        corners = vt_corner_set()
        buffer = LastWorstCaseBuffer(corners)
        buffer.update(corners[0], -0.3)
        snapshot = buffer.as_dict()
        assert snapshot[corners[0].name] == pytest.approx(-0.3)
        assert snapshot[corners[1].name] is None
