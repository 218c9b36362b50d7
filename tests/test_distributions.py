"""Tests for the Pelgrom mismatch model (repro.variation.distributions)."""

import numpy as np
import pytest

from repro.variation.distributions import (
    DeviceKind,
    DeviceSpec,
    MismatchModel,
    PelgromCoefficients,
)


def two_device_model():
    devices = [
        DeviceSpec(
            name="M1",
            kind=DeviceKind.NMOS,
            width_of=lambda x: x[0],
            length_of=lambda x: x[1],
        ),
        DeviceSpec(
            name="C1",
            kind=DeviceKind.CAPACITOR,
            cap_of=lambda x: x[2],
        ),
    ]
    return MismatchModel(devices)


class TestPelgromCoefficients:
    def test_sigma_decreases_with_area(self):
        coeffs = PelgromCoefficients()
        small = coeffs.local_sigma_vth(0.28, 0.03)
        large = coeffs.local_sigma_vth(10.0, 0.3)
        assert small > large

    def test_sigma_follows_inverse_sqrt_area(self):
        coeffs = PelgromCoefficients()
        sigma_1 = coeffs.local_sigma_vth(1.0, 1.0)
        sigma_4 = coeffs.local_sigma_vth(2.0, 2.0)
        assert sigma_1 / sigma_4 == pytest.approx(2.0, rel=1e-9)

    def test_cap_sigma_decreases_with_capacitance(self):
        coeffs = PelgromCoefficients()
        assert coeffs.local_sigma_cap(5e-15) > coeffs.local_sigma_cap(1e-12)


class TestDeviceSpec:
    def test_mos_requires_geometry(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", kind=DeviceKind.NMOS)

    def test_capacitor_requires_cap_function(self):
        with pytest.raises(ValueError):
            DeviceSpec(name="bad", kind=DeviceKind.CAPACITOR)

    def test_multiplicity_must_be_positive(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad",
                kind=DeviceKind.NMOS,
                width_of=lambda x: 1.0,
                length_of=lambda x: 1.0,
                multiplicity=0,
            )


class TestMismatchModel:
    def test_dimension_counts_mos_and_cap_parameters(self):
        model = two_device_model()
        # MOS contributes vth + beta, capacitor contributes one parameter.
        assert model.dimension == 3

    def test_parameter_names(self):
        model = two_device_model()
        assert model.parameter_names() == ["M1.vth", "M1.beta", "C1.cap"]

    def test_index_of(self):
        model = two_device_model()
        assert model.index_of("M1", "beta") == 1
        with pytest.raises(KeyError):
            model.index_of("M1", "cap")

    def test_local_covariance_is_diagonal_and_positive(self):
        model = two_device_model()
        x = np.array([1.0, 0.1, 50e-15])
        cov = model.local_covariance(x)
        assert cov.shape == (3, 3)
        assert np.all(np.diag(cov) > 0)
        assert np.allclose(cov, np.diag(np.diag(cov)))

    def test_local_covariance_shrinks_with_device_area(self):
        model = two_device_model()
        small = model.local_covariance(np.array([0.3, 0.03, 10e-15]))
        large = model.local_covariance(np.array([10.0, 0.3, 10e-15]))
        assert large[0, 0] < small[0, 0]
        assert large[1, 1] < small[1, 1]

    def test_global_covariance_independent_of_sizing(self):
        model = two_device_model()
        cov_a = model.global_covariance(np.array([0.3, 0.03, 10e-15]))
        cov_b = model.global_covariance(np.array([10.0, 0.3, 1e-12]))
        assert np.allclose(cov_a, cov_b)

    def test_multiplicity_reduces_variance(self):
        base = [
            DeviceSpec(
                name="M1",
                kind=DeviceKind.NMOS,
                width_of=lambda x: 1.0,
                length_of=lambda x: 0.1,
                multiplicity=1,
            )
        ]
        quad = [
            DeviceSpec(
                name="M1",
                kind=DeviceKind.NMOS,
                width_of=lambda x: 1.0,
                length_of=lambda x: 0.1,
                multiplicity=4,
            )
        ]
        x = np.zeros(1)
        var_single = MismatchModel(base).local_covariance(x)[0, 0]
        var_quad = MismatchModel(quad).local_covariance(x)[0, 0]
        assert var_quad == pytest.approx(var_single / 4.0)

    def test_device_view_round_trip(self):
        model = two_device_model()
        h = np.array([[0.01, -0.02, 0.005]])
        view = model.as_batch_device_view(h)
        assert view["M1"]["vth"].tolist() == pytest.approx([0.01])
        assert view["M1"]["beta"].tolist() == pytest.approx([-0.02])
        assert view["C1"]["cap"].tolist() == pytest.approx([0.005])

    def test_device_view_rejects_wrong_shape(self):
        model = two_device_model()
        with pytest.raises(ValueError):
            model.as_batch_device_view(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            model.as_batch_device_view(np.zeros(3))  # a 1-D vector

    def test_duplicate_device_names_rejected(self):
        device = DeviceSpec(
            name="M1",
            kind=DeviceKind.NMOS,
            width_of=lambda x: 1.0,
            length_of=lambda x: 0.1,
        )
        with pytest.raises(ValueError):
            MismatchModel([device, device])

    def test_global_groups_share_labels_by_device_kind(self):
        devices = [
            DeviceSpec(
                name="Ma",
                kind=DeviceKind.NMOS,
                width_of=lambda x: 1.0,
                length_of=lambda x: 0.1,
            ),
            DeviceSpec(
                name="Mb",
                kind=DeviceKind.NMOS,
                width_of=lambda x: 1.0,
                length_of=lambda x: 0.1,
            ),
            DeviceSpec(
                name="Mp",
                kind=DeviceKind.PMOS,
                width_of=lambda x: 1.0,
                length_of=lambda x: 0.1,
            ),
        ]
        model = MismatchModel(devices)
        groups = model.global_groups()
        # Both NMOS devices share the same vth and beta group labels.
        assert groups[0] == groups[2] == "nmos.vth"
        assert groups[1] == groups[3] == "nmos.beta"
        assert groups[4] == "pmos.vth"
