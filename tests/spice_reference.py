"""Reference DC solve and example netlists for the SPICE-substrate tests.

``repro`` solves no netlist itself: the paper circuits are closed-form
behavioural models, and a netlist reaches an engine only as an ngspice
deck.  One check still needs node voltages: a trimmed netlist must give
the same DC probe voltage as the full one (``tests/test_waveform_pipeline.py``
and ``benchmarks/test_perf_waveform_pipeline.py``).  :func:`solve_dc` is
that solve for every element kind the trim walk knows (capacitors are open
at DC): modified nodal analysis (MNA) with a Newton iteration on each
MOSFET's companion model, linearised through
:meth:`~repro.spice.mosfet.MosfetModel.batch_operating_point`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.spice.mosfet import MosfetModel, nmos_28nm
from repro.spice.netlist import (
    GROUND,
    VCCS,
    Capacitor,
    Circuit,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)

#: Conductance from every node to ground, so no node floats.
GMIN = 1e-12
MAX_ITERATIONS = 200
TOLERANCE = 1e-9


def _assemble(circuit: Circuit, index: Dict[str, int], voltages: np.ndarray):
    """The MNA system ``(A, z)`` with every MOSFET linearised at ``voltages``."""
    nodes = len(index)
    sources = circuit.voltage_sources()
    matrix = np.zeros((nodes + len(sources), nodes + len(sources)))
    rhs = np.zeros(nodes + len(sources))
    matrix[range(nodes), range(nodes)] = GMIN
    source_row = {s.name: nodes + row for row, s in enumerate(sources)}

    def conductance(node_a, node_b, g):
        a, b = index.get(node_a), index.get(node_b)
        if a is not None:
            matrix[a, a] += g
        if b is not None:
            matrix[b, b] += g
        if a is not None and b is not None:
            matrix[a, b] -= g
            matrix[b, a] -= g

    def vccs(plus, minus, control_plus, control_minus, gm):
        c_plus, c_minus = index.get(control_plus), index.get(control_minus)
        for out, sign in ((index.get(plus), 1.0), (index.get(minus), -1.0)):
            if out is None:
                continue
            if c_plus is not None:
                matrix[out, c_plus] += sign * gm
            if c_minus is not None:
                matrix[out, c_minus] -= sign * gm

    def voltage(node):
        return 0.0 if node == GROUND else float(voltages[index[node]])

    for element in circuit.elements:
        if isinstance(element, Resistor):
            conductance(element.node_a, element.node_b, 1.0 / element.resistance)
        elif isinstance(element, VoltageSource):
            row = source_row[element.name]
            for node, sign in ((element.node_plus, 1.0), (element.node_minus, -1.0)):
                if node != GROUND:
                    matrix[row, index[node]] += sign
                    matrix[index[node], row] += sign
            rhs[row] += element.voltage
        elif isinstance(element, Mosfet):
            # PMOS devices see source-referenced magnitudes, and their
            # current flows from source to drain.
            if element.is_pmos:
                high, low, gate_plus, gate_minus = (
                    element.source, element.drain, element.source, element.gate
                )
            else:
                high, low, gate_plus, gate_minus = (
                    element.drain, element.source, element.gate, element.source
                )
            vgs = voltage(gate_plus) - voltage(gate_minus)
            vds = max(voltage(high) - voltage(low), 0.0)
            op = element.model.batch_operating_point(
                vgs, vds, vth_shift=element.vth_shift, beta_error=element.beta_error
            )
            gm, gds = float(op.gm), float(op.gds)
            ieq = float(op.ids) - gm * vgs - gds * vds
            conductance(high, low, gds)
            vccs(high, low, gate_plus, gate_minus, gm)
            if index.get(low) is not None:
                rhs[index[low]] += ieq
            if index.get(high) is not None:
                rhs[index[high]] -= ieq
        elif isinstance(element, CurrentSource):
            for node, sign in ((element.node_plus, 1.0), (element.node_minus, -1.0)):
                if node != GROUND:
                    rhs[index[node]] += sign * element.current
        elif isinstance(element, VCCS):
            vccs(element.node_plus, element.node_minus, element.control_plus,
                 element.control_minus, element.gm)
        elif not isinstance(element, Capacitor):  # a capacitor is open at DC
            raise TypeError(f"the reference solve has no stamp for {element!r}")
    return matrix, rhs


def solve_dc(circuit: Circuit) -> Dict[str, float]:
    """Node voltages (ground excluded) at the DC operating point."""
    circuit.validate()
    index = {node: row for row, node in enumerate(circuit.node_names())}
    voltages = np.zeros(len(index))
    for _ in range(MAX_ITERATIONS):
        solution = np.linalg.solve(*_assemble(circuit, index, voltages))
        delta = solution[: len(index)] - voltages
        voltages = voltages + delta
        if np.max(np.abs(delta)) < TOLERANCE:
            break
    else:
        raise RuntimeError(f"DC solve of {circuit.name!r} did not converge")
    solution = np.linalg.solve(*_assemble(circuit, index, voltages))
    return {node: float(solution[row]) for node, row in index.items()}


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
