"""Canonical example testbenches for the SPICE substrate.

Small, well-understood netlists used as shared fixtures by the equivalence
tests, the perf benchmarks and the documentation — one definition, so the
circuits the benchmarks time are guaranteed to be the circuits the
equivalence suite checks.
"""

from __future__ import annotations

from repro.circuits.registry import register_circuit_factory
from repro.spice.mosfet import MosfetModel, nmos_28nm, pmos_28nm
from repro.spice.netlist import (
    Capacitor,
    Circuit,
    GROUND,
    Mosfet,
    Resistor,
    VoltageSource,
)


def common_source_amplifier(vth_shift: float = 0.0) -> Circuit:
    """Resistor-loaded NMOS common-source stage (one nonlinear device).

    The drain voltage is strongly sensitive to ``vth_shift``, so threshold
    mismatch moves the operating point visibly.
    """
    circuit = Circuit("common_source")
    circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
    circuit.add(VoltageSource("VG", "gate", GROUND, 0.45))
    circuit.add(Resistor("RD", "vdd", "drain", 50e3))
    circuit.add(
        Mosfet(
            "M1",
            "drain",
            "gate",
            GROUND,
            MosfetModel(2e-6, 100e-9, nmos_28nm()),
            vth_shift=vth_shift,
        )
    )
    return circuit


def loaded_cmos_inverter(vth_shift: float = 0.0) -> Circuit:
    """CMOS inverter with output cap + bleed resistor (transient testbench).

    ``vth_shift`` perturbs the NMOS pull-down, which skews both the static
    switching threshold and the falling-edge delay.
    """
    circuit = Circuit("loaded_inverter")
    circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
    circuit.add(VoltageSource("VIN", "in", GROUND, 0.0))
    circuit.add(
        Mosfet(
            "MN",
            "out",
            "in",
            GROUND,
            MosfetModel(1e-6, 60e-9, nmos_28nm()),
            vth_shift=vth_shift,
        )
    )
    circuit.add(
        Mosfet("MP", "out", "in", "vdd", MosfetModel(2e-6, 60e-9, pmos_28nm()))
    )
    circuit.add(Capacitor("CL", "out", GROUND, 10e-15))
    circuit.add(Resistor("RL", "out", GROUND, 10e6))
    return circuit


def common_source_ladder(
    stages: int = 16, filter_nodes: int = 4, coupling: str = "resistive"
) -> Circuit:
    """``stages`` coupled common-source stages: the larger-netlist testbench.

    Each stage is the resistor-loaded NMOS of :func:`common_source_amplifier`
    with its own gate-bias tap on a resistive divider ladder, a resistive
    output filter chain of ``filter_nodes`` extra nodes, and neighbouring
    drains weakly coupled through bridge resistors so the MNA matrix is not
    block-diagonal: ``(2 + filter_nodes) * stages + 2`` nodes but only
    ``stages`` nonlinear devices.

    ``coupling="isolated"`` builds the sense-amp-array variant instead:
    every gate ties directly to the shared ``bias`` rail and the divider
    ladder / drain bridge resistors are omitted, so stages interact only
    through ideally pinned rails and one-way MOSFET gates.  That is the
    memory-array shape where probing one column's output makes the rest of
    the array provably irrelevant — the benchmark target for waveform-mode
    netlist trimming (:mod:`repro.spice.trim`).  The default
    ``"resistive"`` netlist is byte-identical to what this factory always
    produced.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if coupling not in ("resistive", "isolated"):
        raise ValueError(
            f"unknown coupling {coupling!r} (expected 'resistive' or 'isolated')"
        )
    isolated = coupling == "isolated"
    name = f"cs_ladder_{stages}x{filter_nodes}"
    if isolated:
        name += "_isolated"
    circuit = Circuit(name)
    circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
    circuit.add(VoltageSource("VB", "bias", GROUND, 0.55))
    previous_gate = "bias"
    for stage in range(stages):
        gate = "bias" if isolated else f"g{stage}"
        drain = f"d{stage}"
        if not isolated:
            # Bias divider ladder: each tap sits a little below the previous.
            circuit.add(Resistor(f"RB{stage}", previous_gate, gate, 2e3))
            circuit.add(Resistor(f"RG{stage}", gate, GROUND, 200e3))
        circuit.add(Resistor(f"RD{stage}", "vdd", drain, 40e3))
        circuit.add(
            Mosfet(
                f"M{stage}",
                drain,
                gate,
                GROUND,
                MosfetModel(2e-6, 100e-9, nmos_28nm()),
            )
        )
        node = drain
        for tap in range(filter_nodes):
            bridge = f"f{stage}_{tap}"
            circuit.add(Resistor(f"RF{stage}_{tap}", node, bridge, 10e3))
            circuit.add(Resistor(f"RFG{stage}_{tap}", bridge, GROUND, 1e6))
            node = bridge
        if stage and not isolated:
            circuit.add(Resistor(f"RC{stage}", f"d{stage - 1}", drain, 500e3))
        previous_gate = gate
    return circuit


# The ladder netlist is nameable through the circuit registry
# (`get_circuit("common_source_ladder", stages=8)`), so the CLI and the
# benchmark harness can refer to it without importing this module.
register_circuit_factory(
    "common_source_ladder", common_source_ladder, aliases=("cs_ladder",)
)

