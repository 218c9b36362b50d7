"""Tests for hierarchical mismatch sampling (repro.variation.mismatch)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuits import StrongArmLatch
from repro.variation.distributions import DeviceKind
from repro.variation.mismatch import MismatchSampler, MismatchSet


@pytest.fixture
def model():
    return StrongArmLatch().mismatch_model


@pytest.fixture
def x_physical():
    circuit = StrongArmLatch()
    return circuit.denormalize(np.full(circuit.dimension, 0.5))


class TestMismatchSet:
    def test_len_and_iteration(self, model):
        samples = np.zeros((4, model.dimension))
        mismatch_set = MismatchSet(samples, np.zeros(model.dimension))
        assert len(mismatch_set) == 4
        assert sum(1 for _ in mismatch_set) == 4

    def test_subset(self, model):
        samples = np.arange(3 * model.dimension, dtype=float).reshape(3, -1)
        mismatch_set = MismatchSet(samples, np.zeros(model.dimension))
        subset = mismatch_set.subset([2, 0])
        assert np.allclose(subset[0], samples[2])
        assert np.allclose(subset[1], samples[0])

    def test_concatenate(self, model):
        a = MismatchSet(np.zeros((2, model.dimension)), np.zeros(model.dimension))
        b = MismatchSet(np.ones((3, model.dimension)), np.zeros(model.dimension))
        assert len(a.concatenate(b)) == 5

    def test_rejects_1d_samples(self, model):
        with pytest.raises(ValueError):
            MismatchSet(np.zeros(model.dimension), np.zeros(model.dimension))


class TestMismatchSampler:
    def test_disabled_sampler_returns_zeros(self, model, x_physical):
        sampler = MismatchSampler(model, include_global=False, include_local=False)
        result = sampler.sample(x_physical, 5)
        assert np.allclose(result.samples, 0.0)
        assert len(result) == 5

    def test_local_only_sampling_is_zero_mean(self, model, x_physical):
        sampler = MismatchSampler(
            model, include_global=False, include_local=True,
            rng=np.random.default_rng(0),
        )
        result = sampler.sample(x_physical, 4000)
        assert np.allclose(result.global_shift, 0.0)
        sigmas = model.local_sigmas(x_physical)
        sample_std = result.samples.std(axis=0)
        assert np.allclose(sample_std, sigmas, rtol=0.12)
        assert np.allclose(result.samples.mean(axis=0), 0.0, atol=3 * sigmas.max() / 50)

    def test_global_local_samples_centre_on_die_shift(self, model, x_physical):
        sampler = MismatchSampler(
            model, include_global=True, include_local=True,
            rng=np.random.default_rng(1),
        )
        result = sampler.sample(x_physical, 4000)
        local_sigma = model.local_sigmas(x_physical)
        centred = result.samples.mean(axis=0) - result.global_shift
        assert np.all(np.abs(centred) < 5 * local_sigma / np.sqrt(4000) + 1e-9)

    def test_global_shift_shared_within_device_kind(self, model, x_physical):
        sampler = MismatchSampler(
            model, include_global=True, include_local=False,
            rng=np.random.default_rng(2),
        )
        shift = sampler.sample_global_shift(x_physical)
        groups = model.global_groups()
        sigmas = model.global_sigmas(x_physical)
        standardized = shift / sigmas
        by_group = {}
        for value, group in zip(standardized, groups):
            by_group.setdefault(group, []).append(value)
        for values in by_group.values():
            assert np.allclose(values, values[0])

    def test_provided_global_shift_is_respected(self, model, x_physical):
        sampler = MismatchSampler(
            model, include_global=True, include_local=False,
            rng=np.random.default_rng(3),
        )
        shift = np.full(model.dimension, 0.01)
        result = sampler.sample(x_physical, 3, global_shift=shift)
        assert np.allclose(result.samples, 0.01)

    def test_wrong_global_shift_shape_rejected(self, model, x_physical):
        sampler = MismatchSampler(model, include_global=True, include_local=True)
        with pytest.raises(ValueError):
            sampler.sample(x_physical, 2, global_shift=np.zeros(3))

    def test_independent_globals_vary_between_samples(self, model, x_physical):
        sampler = MismatchSampler(
            model, include_global=True, include_local=False,
            rng=np.random.default_rng(4),
        )
        result = sampler.sample(x_physical, 6, independent_globals=True)
        # With local variation off, rows differ only through the per-sample
        # global draws, so at least two rows must differ.
        assert not np.allclose(result.samples[0], result.samples[1])

    def test_count_must_be_positive(self, model, x_physical):
        sampler = MismatchSampler(model, include_global=False, include_local=True)
        with pytest.raises(ValueError):
            sampler.sample(x_physical, 0)

    def test_nominal_is_single_zero_condition(self, model):
        sampler = MismatchSampler(model, include_global=False, include_local=False)
        nominal = sampler.nominal()
        assert len(nominal) == 1
        assert np.allclose(nominal.samples, 0.0)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(count=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**16))
    def test_sample_shapes_property(self, model, x_physical, count, seed):
        sampler = MismatchSampler(
            model, include_global=True, include_local=True,
            rng=np.random.default_rng(seed),
        )
        result = sampler.sample(x_physical, count)
        assert result.samples.shape == (count, model.dimension)
        assert np.all(np.isfinite(result.samples))

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 2**16))
    def test_larger_devices_give_smaller_local_spread(self, model, seed):
        circuit = StrongArmLatch()
        small = circuit.denormalize(np.full(circuit.dimension, 0.05))
        large = circuit.denormalize(np.full(circuit.dimension, 0.95))
        sampler = MismatchSampler(
            model, include_global=False, include_local=True,
            rng=np.random.default_rng(seed),
        )
        spread_small = sampler.sample(small, 200).samples.std()
        sampler.reseed(seed)
        spread_large = sampler.sample(large, 200).samples.std()
        assert spread_large < spread_small


def loop_sigmas(model, x_physical):
    """Local and global sigmas device by device, through the scalar
    :class:`PelgromCoefficients` formulas: the reference for the model's
    one-pass vectors."""
    coefficients = model.coefficients
    local, global_ = [], []
    for device in model.devices:
        scale = 1.0 / np.sqrt(device.multiplicity)
        if device.kind is DeviceKind.CAPACITOR:
            cap = float(device.cap_of(x_physical))
            local.append(coefficients.local_sigma_cap(cap) * scale)
            global_.append(coefficients.global_sigma_cap)
        else:
            width = float(device.width_of(x_physical))
            length = float(device.length_of(x_physical))
            local.append(coefficients.local_sigma_vth(width, length) * scale)
            local.append(coefficients.local_sigma_beta(width, length) * scale)
            global_ += [coefficients.global_sigma_vth, coefficients.global_sigma_beta]
    return np.array(local), np.array(global_)


def test_sigmas_equal_the_device_loop(paper_circuit):
    """Bit for bit, on designs that include out-of-range coordinates."""
    model = paper_circuit.mismatch_model
    rng = np.random.default_rng(6)
    for _ in range(200):
        x_physical = paper_circuit.denormalize(
            rng.uniform(-0.2, 1.2, paper_circuit.dimension)
        )
        local, global_ = loop_sigmas(model, x_physical)
        assert model.local_sigmas(x_physical).tobytes() == local.tobytes()
        assert model.global_sigmas(x_physical).tobytes() == global_.tobytes()
