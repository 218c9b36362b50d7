"""Tests for the netlist model (repro.spice) and, through the test tree's
reference DC solve (``spice_reference.py``), the device model in a circuit."""

import pytest

from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    GROUND,
    Mosfet,
    MosfetModel,
    Resistor,
    VCCS,
    VoltageSource,
    nmos_28nm,
    pmos_28nm,
)
from spice_reference import common_source_amplifier, common_source_ladder, solve_dc


class TestNetlistConstruction:
    def test_duplicate_element_names_rejected(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", GROUND, 1e3))
        with pytest.raises(ValueError):
            circuit.add(Resistor("R1", "b", GROUND, 1e3))

    def test_negative_resistance_rejected(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", -5.0)

    def test_negative_capacitance_rejected(self):
        with pytest.raises(ValueError):
            Capacitor("C1", "a", "b", -1e-12)

    def test_node_names_exclude_ground(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", GROUND, 1e3))
        circuit.add(Resistor("R2", "a", "b", 1e3))
        assert circuit.node_names() == ["a", "b"]

    def test_validate_requires_ground(self):
        circuit = Circuit()
        circuit.add(Resistor("R1", "a", "b", 1e3))
        with pytest.raises(ValueError):
            circuit.validate()

    def test_validate_requires_elements(self):
        with pytest.raises(ValueError):
            Circuit().validate()


class TestLinearDC:
    def test_voltage_divider(self):
        circuit = Circuit("divider")
        circuit.add(VoltageSource("VIN", "in", GROUND, 1.0))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Resistor("R2", "out", GROUND, 1e3))
        solution = solve_dc(circuit)
        assert solution["out"] == pytest.approx(0.5, rel=1e-6)
        assert solution["in"] == pytest.approx(1.0, rel=1e-6)

    def test_current_source_into_resistor(self):
        circuit = Circuit()
        circuit.add(CurrentSource("I1", "a", GROUND, 1e-3))
        circuit.add(Resistor("R1", "a", GROUND, 2e3))
        solution = solve_dc(circuit)
        assert solution["a"] == pytest.approx(2.0, rel=1e-6)

    def test_vccs_acts_as_transconductance(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VIN", "in", GROUND, 1.0))
        circuit.add(Resistor("Rload", "out", GROUND, 1e3))
        # i(out -> ground) = gm * v(in); with gm = 1 mS the load sees -1 V.
        circuit.add(VCCS("G1", "out", GROUND, "in", GROUND, 1e-3))
        solution = solve_dc(circuit)
        assert solution["out"] == pytest.approx(-1.0, rel=1e-4)

    def test_capacitor_is_open_at_dc(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VIN", "in", GROUND, 1.0))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", GROUND, 1e-12))
        solution = solve_dc(circuit)
        assert solution["out"] == pytest.approx(1.0, rel=1e-4)

    def test_voltage_between(self):
        circuit = Circuit()
        circuit.add(VoltageSource("VIN", "in", GROUND, 1.0))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Resistor("R2", "out", GROUND, 3e3))
        solution = solve_dc(circuit)
        assert solution["in"] - solution["out"] == pytest.approx(0.25, rel=1e-6)


class TestNonlinearDC:
    def test_nmos_pulls_output_low_when_on(self):
        circuit = Circuit("common_source")
        circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
        circuit.add(VoltageSource("VG", "gate", GROUND, 0.9))
        circuit.add(Resistor("RD", "vdd", "drain", 20e3))
        circuit.add(
            Mosfet("M1", "drain", "gate", GROUND, MosfetModel(2e-6, 100e-9, nmos_28nm()))
        )
        solution = solve_dc(circuit)
        assert solution["drain"] < 0.3

    def test_nmos_off_keeps_output_high(self):
        circuit = Circuit("common_source_off")
        circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
        circuit.add(VoltageSource("VG", "gate", GROUND, 0.0))
        circuit.add(Resistor("RD", "vdd", "drain", 20e3))
        circuit.add(
            Mosfet("M1", "drain", "gate", GROUND, MosfetModel(2e-6, 100e-9, nmos_28nm()))
        )
        solution = solve_dc(circuit)
        assert solution["drain"] > 0.85

    def test_cmos_inverter_transfer(self):
        def inverter_output(vin: float) -> float:
            circuit = Circuit("inverter")
            circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
            circuit.add(VoltageSource("VIN", "in", GROUND, vin))
            circuit.add(
                Mosfet("MN", "out", "in", GROUND, MosfetModel(1e-6, 60e-9, nmos_28nm()))
            )
            circuit.add(
                Mosfet("MP", "out", "in", "vdd", MosfetModel(2e-6, 60e-9, pmos_28nm()))
            )
            circuit.add(Resistor("Rload", "out", GROUND, 10e6))
            return solve_dc(circuit)["out"]

        assert inverter_output(0.0) > 0.7
        assert inverter_output(0.9) < 0.2

    def test_vth_mismatch_changes_operating_point(self):
        def drain_voltage(vth_shift: float) -> float:
            return solve_dc(common_source_amplifier(vth_shift))["drain"]

        # A higher threshold means less current, so the drain sits higher.
        assert drain_voltage(+0.05) > drain_voltage(-0.05)


class TestLadderNetlist:
    @pytest.mark.parametrize(
        "coupling, nodes_per_stage", [("resistive", 6), ("isolated", 5)]
    )
    def test_node_and_device_counts(self, coupling, nodes_per_stage):
        # Per stage: drain + 4 filter taps, plus a gate tap unless isolated;
        # vdd and bias are shared.
        ladder = common_source_ladder(3, 4, coupling=coupling)
        assert len(ladder.node_names()) == nodes_per_stage * 3 + 2
        assert sum(isinstance(e, Mosfet) for e in ladder.elements) == 3

    def test_rejects_bad_shape_and_coupling(self):
        with pytest.raises(ValueError, match="stages"):
            common_source_ladder(0)
        with pytest.raises(ValueError, match="coupling"):
            common_source_ladder(2, coupling="capacitive")
