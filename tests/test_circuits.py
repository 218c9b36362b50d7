"""Tests for the three testbench circuits (repro.circuits)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import (
    DramCoreSenseAmp,
    FloatingInverterAmplifier,
    StrongArmLatch,
    available_circuits,
    get_circuit,
)
from repro.circuits.base import AnalogCircuit, MIN_CAP_FACTOR, cap_mismatch_factor
from repro.variation.corners import ProcessCorner, PVTCorner, typical_corner

ALL_CIRCUITS = [StrongArmLatch, FloatingInverterAmplifier, DramCoreSenseAmp]


class TestRegistry:
    def test_available_circuits(self):
        names = available_circuits()
        assert "strongarm_latch" in names
        assert "floating_inverter_amplifier" in names
        assert "dram_core_ocsa" in names

    def test_aliases(self):
        assert isinstance(get_circuit("sal"), StrongArmLatch)
        assert isinstance(get_circuit("fia"), FloatingInverterAmplifier)
        assert isinstance(get_circuit("dram"), DramCoreSenseAmp)

    def test_unknown_circuit(self):
        with pytest.raises(KeyError):
            get_circuit("op_amp_9000")


class TestPaperDimensions:
    """The sizing spaces must match Section VI.A of the paper."""

    def test_strongarm_has_14_parameters(self):
        assert StrongArmLatch().dimension == 14

    def test_fia_has_6_parameters(self):
        assert FloatingInverterAmplifier().dimension == 6

    def test_dram_has_12_parameters(self):
        assert DramCoreSenseAmp().dimension == 12

    def test_strongarm_targets(self):
        constraints = StrongArmLatch().constraints
        assert constraints["power"] == pytest.approx(40e-6)
        assert constraints["set_delay"] == pytest.approx(4e-9)
        assert constraints["reset_delay"] == pytest.approx(4e-9)
        assert constraints["noise"] == pytest.approx(120e-6)

    def test_fia_targets(self):
        constraints = FloatingInverterAmplifier().constraints
        assert constraints["energy_per_conversion"] == pytest.approx(0.1e-12)
        assert constraints["noise"] == pytest.approx(130e-3)

    def test_dram_targets_are_sign_flipped(self):
        constraints = DramCoreSenseAmp().constraints
        assert constraints["neg_delta_v_d0"] == pytest.approx(-85e-3)
        assert constraints["neg_delta_v_d1"] == pytest.approx(-85e-3)
        assert constraints["energy_per_bit"] == pytest.approx(30e-15)

    def test_strongarm_width_range(self):
        widths = [p for p in StrongArmLatch().parameters if p.name.startswith("W_")]
        assert all(p.lower == pytest.approx(0.28e-6) for p in widths)
        assert all(p.upper == pytest.approx(32.8e-6) for p in widths)

    def test_dram_width_ranges(self):
        circuit = DramCoreSenseAmp()
        by_name = {p.name: p for p in circuit.parameters}
        assert by_name["W_nsa"].upper == pytest.approx(1.028e-6)
        assert by_name["W_sh_ndrv"].lower == pytest.approx(5e-6)
        assert by_name["W_sh_ndrv"].upper == pytest.approx(15e-6)
        assert by_name["L_nsa"].upper == pytest.approx(0.06e-6)


@pytest.mark.parametrize("circuit_cls", ALL_CIRCUITS)
class TestEvaluationContract:
    def test_reports_every_metric(self, circuit_cls, rng):
        circuit = circuit_cls()
        metrics = circuit.evaluate(circuit.random_sizing(rng))
        assert set(metrics) == set(circuit.metric_names)

    def test_metrics_are_finite(self, circuit_cls, rng):
        circuit = circuit_cls()
        for _ in range(20):
            metrics = circuit.evaluate(circuit.random_sizing(rng))
            assert all(np.isfinite(v) for v in metrics.values())

    def test_normalize_denormalize_roundtrip(self, circuit_cls, rng):
        circuit = circuit_cls()
        x = circuit.random_sizing(rng)
        recovered = circuit.normalize(circuit.denormalize(x))
        assert np.allclose(recovered, x, atol=1e-9)

    def test_denormalize_respects_bounds(self, circuit_cls, rng):
        circuit = circuit_cls()
        physical = circuit.denormalize(np.zeros(circuit.dimension))
        for value, parameter in zip(physical, circuit.parameters):
            assert value == pytest.approx(parameter.lower)
        physical = circuit.denormalize(np.ones(circuit.dimension))
        for value, parameter in zip(physical, circuit.parameters):
            assert value == pytest.approx(parameter.upper)

    def test_wrong_dimension_rejected(self, circuit_cls):
        circuit = circuit_cls()
        with pytest.raises(ValueError):
            circuit.evaluate(np.zeros(circuit.dimension + 1))

    def test_wrong_mismatch_shape_rejected(self, circuit_cls):
        """``evaluate`` takes one mismatch vector, never a batch of them."""
        circuit = circuit_cls()
        x = np.full(circuit.dimension, 0.5)
        dim = circuit.mismatch_dimension
        for shape in ((dim + 1,), (1, dim), (2, dim)):
            with pytest.raises(ValueError):
                circuit.evaluate(x, mismatch=np.zeros(shape))

    def test_nominal_mismatch_matches_default(self, circuit_cls, rng):
        circuit = circuit_cls()
        x = circuit.random_sizing(rng)
        zero_h = circuit.mismatch_model.zero()
        assert circuit.evaluate(x, mismatch=zero_h) == circuit.evaluate(x)

    def test_describe_mentions_every_parameter(self, circuit_cls):
        circuit = circuit_cls()
        text = circuit.describe()
        for parameter in circuit.parameters:
            assert parameter.name in text


class TestStrongArmBehaviour:
    def test_bigger_load_cap_increases_power_and_delay(self, rng):
        circuit = StrongArmLatch()
        x = circuit.random_sizing(rng)
        x_small, x_big = x.copy(), x.copy()
        x_small[circuit.C_LOAD] = 0.1
        x_big[circuit.C_LOAD] = 0.9
        small = circuit.evaluate(x_small)
        big = circuit.evaluate(x_big)
        assert big["power"] > small["power"]
        assert big["set_delay"] > small["set_delay"]

    def test_low_supply_slows_the_latch(self, rng):
        circuit = StrongArmLatch()
        x = circuit.random_sizing(rng)
        nominal = circuit.evaluate(x, PVTCorner(ProcessCorner.TT, 0.9, 27.0))
        low_vdd = circuit.evaluate(x, PVTCorner(ProcessCorner.TT, 0.8, 27.0))
        assert low_vdd["set_delay"] > nominal["set_delay"]

    def test_local_mismatch_increases_noise(self, rng):
        circuit = StrongArmLatch()
        x = np.full(circuit.dimension, 0.5)
        model = circuit.mismatch_model
        h = model.zero()
        h[model.index_of("M_input_a", "vth")] = 0.02
        h[model.index_of("M_input_b", "vth")] = -0.02
        assert circuit.evaluate(x, mismatch=h)["noise"] > circuit.evaluate(x)["noise"]

    def test_offset_cap_attenuates_mismatch(self, rng):
        circuit = StrongArmLatch()
        model = circuit.mismatch_model
        h = model.zero()
        h[model.index_of("M_input_a", "vth")] = 0.03
        x_small, x_big = np.full(circuit.dimension, 0.5), np.full(circuit.dimension, 0.5)
        x_small[circuit.C_OFFSET] = 0.05
        x_big[circuit.C_OFFSET] = 0.95
        assert (
            circuit.evaluate(x_big, mismatch=h)["noise"]
            < circuit.evaluate(x_small, mismatch=h)["noise"]
        )


class TestFiaBehaviour:
    def test_energy_scales_with_reservoir(self, rng):
        circuit = FloatingInverterAmplifier()
        x = circuit.random_sizing(rng)
        x_small, x_big = x.copy(), x.copy()
        x_small[circuit.C_RESERVOIR] = 0.1
        x_big[circuit.C_RESERVOIR] = 0.9
        assert (
            circuit.evaluate(x_big)["energy_per_conversion"]
            > circuit.evaluate(x_small)["energy_per_conversion"]
        )

    def test_pair_mismatch_increases_noise(self):
        circuit = FloatingInverterAmplifier()
        x = np.full(circuit.dimension, 0.5)
        model = circuit.mismatch_model
        h = model.zero()
        h[model.index_of("M_nmos_a", "vth")] = 0.02
        h[model.index_of("M_nmos_b", "vth")] = -0.02
        assert circuit.evaluate(x, mismatch=h)["noise"] > circuit.evaluate(x)["noise"]

    @pytest.mark.parametrize(
        "circuit_cls", [FloatingInverterAmplifier, StrongArmLatch]
    )
    def test_out_of_model_cap_mismatch_stays_finite(self, circuit_cls, rng):
        """A standard-normal cap delta must not drive a capacitance negative."""
        circuit = circuit_cls()
        with np.errstate(invalid="raise"):
            for _ in range(20):
                metrics = circuit.evaluate_batch(
                    rng.uniform(size=circuit.dimension),
                    mismatch=rng.normal(size=(160, circuit.mismatch_dimension)),
                )
                for values in metrics.values():
                    assert np.all(np.isfinite(values))

    def test_common_mode_shift_does_not_offset(self):
        """A die-level shift common to both pair halves adds no offset."""
        circuit = FloatingInverterAmplifier()
        x = np.full(circuit.dimension, 0.5)
        model = circuit.mismatch_model
        h = model.zero()
        h[model.index_of("M_nmos_a", "vth")] = 0.03
        h[model.index_of("M_nmos_b", "vth")] = 0.03
        common = circuit.evaluate(x, mismatch=h)["noise"]
        nominal = circuit.evaluate(x)["noise"]
        assert common == pytest.approx(nominal, rel=0.25)


class TestCapMismatchFloor:
    """Every capacitor's ``1 + delta`` goes through one shared floor."""

    def test_factor_is_floored_only_below_the_minimum(self):
        below = np.array([-40.0, -1.0, -0.96])
        above = np.array([-0.5, 0.0, 0.03])
        np.testing.assert_array_equal(
            cap_mismatch_factor(below), np.full(3, MIN_CAP_FACTOR)
        )
        np.testing.assert_array_equal(cap_mismatch_factor(above), 1.0 + above)
        assert cap_mismatch_factor(-3.0) == MIN_CAP_FACTOR

    @pytest.mark.parametrize(
        "circuit_cls, device",
        [
            (StrongArmLatch, "C_load"),
            (StrongArmLatch, "C_offset"),
            (FloatingInverterAmplifier, "C_reservoir"),
            (FloatingInverterAmplifier, "C_load"),
        ],
    )
    def test_deltas_past_the_floor_evaluate_alike(self, circuit_cls, device):
        """A cap delta past the floor is the floored capacitance: finite,
        unlike nominal, and the same however far past the floor it is."""
        circuit = circuit_cls()
        model = circuit.mismatch_model
        x = np.full(circuit.dimension, 0.5)

        def with_delta(delta):
            h = model.zero()
            h[model.index_of(device, "cap")] = delta
            with np.errstate(invalid="raise", divide="raise"):
                return circuit.evaluate(x, mismatch=h)

        floored = with_delta(-0.96)
        assert all(np.isfinite(value) for value in floored.values())
        assert with_delta(-3.0) == floored
        assert with_delta(-40.0) == floored
        assert floored != with_delta(0.0)


class TestSubclassContract:
    def test_vectorized_model_is_the_only_evaluation_hook(self):
        """A circuit with only a scalar ``_evaluate_physical`` is abstract:
        ``_evaluate_physical_batch`` is the one model every entry point
        runs through."""

        class ScalarOnly(AnalogCircuit):
            name = "scalar_only"
            _build_parameters = StrongArmLatch._build_parameters
            _build_constraints = StrongArmLatch._build_constraints
            _build_devices = StrongArmLatch._build_devices

            def _evaluate_physical(self, x_physical, corner, mismatch):
                return {name: 0.0 for name in self.metric_names}

        with pytest.raises(TypeError, match="_evaluate_physical_batch"):
            ScalarOnly()


class TestDramBehaviour:
    def test_sensing_voltages_conflict_through_imbalance(self):
        circuit = DramCoreSenseAmp()
        x = np.full(circuit.dimension, 0.5)
        x_strong_n = x.copy()
        x_strong_n[circuit.W_NSA] = 0.95
        x_strong_n[circuit.W_PSA] = 0.05
        balanced = circuit.evaluate(x)
        skewed = circuit.evaluate(x_strong_n)
        # Strengthening the NMOS path helps data-0 sensing relative to the
        # balanced design but hurts data-1 sensing (metrics are negated).
        assert skewed["neg_delta_v_d1"] > balanced["neg_delta_v_d1"]

    def test_pair_mismatch_degrades_sensing(self):
        circuit = DramCoreSenseAmp()
        x = np.full(circuit.dimension, 0.5)
        model = circuit.mismatch_model
        h = model.zero()
        h[model.index_of("M_nsa_a", "vth")] = 0.03
        h[model.index_of("M_nsa_b", "vth")] = -0.03
        degraded = circuit.evaluate(x, mismatch=h)
        nominal = circuit.evaluate(x)
        assert degraded["neg_delta_v_d0"] > nominal["neg_delta_v_d0"]
        assert degraded["neg_delta_v_d1"] > nominal["neg_delta_v_d1"]

    def test_low_supply_reduces_sensing_margin(self):
        circuit = DramCoreSenseAmp()
        x = np.full(circuit.dimension, 0.5)
        nominal = circuit.evaluate(x, PVTCorner(ProcessCorner.TT, 0.9, 27.0))
        low = circuit.evaluate(x, PVTCorner(ProcessCorner.TT, 0.8, 27.0))
        assert low["neg_delta_v_d1"] > nominal["neg_delta_v_d1"]

    def test_bigger_drivers_cost_energy(self):
        circuit = DramCoreSenseAmp()
        x = np.full(circuit.dimension, 0.5)
        x_big = x.copy()
        x_big[circuit.W_SH_N] = 1.0
        x_big[circuit.W_SH_P] = 1.0
        assert (
            circuit.evaluate(x_big)["energy_per_bit"]
            > circuit.evaluate(x)["energy_per_bit"]
        )


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1.0), min_size=14, max_size=14),
)
def test_strongarm_metrics_positive_property(values):
    """Power, delays and noise are physical quantities: always positive."""
    circuit = StrongArmLatch()
    metrics = circuit.evaluate(np.array(values), typical_corner())
    assert metrics["power"] > 0
    assert metrics["set_delay"] > 0
    assert metrics["reset_delay"] > 0
    assert metrics["noise"] > 0
