"""Backward-Euler transient analysis on the MNA system.

Capacitors are replaced per time step with their backward-Euler companion
model (a conductance ``C/dt`` in parallel with a history current source
``(C/dt) * v_previous``); nonlinear devices are re-linearised with a short
Newton loop inside each step.

Waveforms are stored as one ``(n_nodes, n_steps + 1)`` array written in
place during the step loop (no per-node dict copies), and time-varying
sources are applied as per-step *overrides* — the circuit's
:class:`~repro.spice.netlist.VoltageSource` elements are never mutated, so a
transient run leaves the netlist exactly as it found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.spice.dc import ConvergenceError, solve_dc
from repro.spice.mna import MNAStamper
from repro.spice.netlist import Capacitor, Circuit, GROUND
from repro.variation.corners import PVTCorner


@dataclass
class TransientResult:
    """Time-domain waveforms for every node in the circuit.

    ``data`` holds all waveforms as a single ``(n_nodes, n_steps + 1)``
    array; ``node_index`` maps node names to rows.  ``voltage`` returns a
    row view, so no copies are made on access.
    """

    times: np.ndarray
    data: np.ndarray
    node_index: Dict[str, int]

    @property
    def waveforms(self) -> Dict[str, np.ndarray]:
        """Per-node view of ``data`` (rows, not copies), for compatibility."""
        return {name: self.data[row] for name, row in self.node_index.items()}

    def voltage(self, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros_like(self.times)
        return self.data[self.node_index[node]]

    def final_voltage(self, node: str) -> float:
        return float(self.voltage(node)[-1])

    def crossing_time(self, node: str, threshold: float, rising: bool = True) -> Optional[float]:
        """First time the node waveform crosses ``threshold`` (linear interp).

        Measured by :func:`repro.analysis.waveform.first_crossing`, so
        analytic and external-engine waveforms share one implementation.
        """
        from repro.analysis.waveform import first_crossing

        wave = self.voltage(node)
        crossing = first_crossing(self.times, wave[None, :], threshold, rising)[0]
        return None if np.isnan(crossing) else float(crossing)


def sample_source_waveforms(
    source_waveforms: Dict[str, Callable[[float], float]], time_now: float
) -> Dict[str, float]:
    """Evaluate every waveform at ``time_now`` into stamping overrides."""
    return {
        name: float(waveform(time_now))
        for name, waveform in source_waveforms.items()
    }


def solve_transient(
    circuit: Circuit,
    stop_time: float,
    time_step: float,
    corner: Optional[PVTCorner] = None,
    initial_conditions: Optional[Dict[str, float]] = None,
    source_waveforms: Optional[Dict[str, Callable[[float], float]]] = None,
    newton_iterations: int = 40,
    tolerance: float = 1e-7,
) -> TransientResult:
    """Integrate the circuit from 0 to ``stop_time`` with fixed steps.

    Parameters
    ----------
    initial_conditions:
        Node voltages at t=0; nodes not listed start from the DC solution of
        the circuit with sources at their t=0 values.
    source_waveforms:
        Optional map from voltage-source name to a callable ``v(t)``; sources
        not listed keep their DC value.  The waveform values are applied as
        per-step stamping overrides — the circuit's source elements are
        never modified.
    """
    if stop_time <= 0 or time_step <= 0:
        raise ValueError("stop_time and time_step must be positive")
    source_waveforms = source_waveforms or {}

    if initial_conditions is None:
        start = solve_dc(
            circuit,
            corner,
            source_values=sample_source_waveforms(source_waveforms, 0.0),
        )
        node_state = dict(start.voltages)
    else:
        node_state = {name: 0.0 for name in circuit.node_names()}
        node_state.update(initial_conditions)

    stamper = MNAStamper(circuit, corner)
    node_names = circuit.node_names()
    num_nodes = len(node_names)
    steps = int(np.ceil(stop_time / time_step))
    times = np.linspace(0.0, steps * time_step, steps + 1)

    data = np.zeros((num_nodes, steps + 1))
    voltages = np.array([node_state.get(name, 0.0) for name in node_names])
    data[:, 0] = voltages
    conductance_scale = 1.0 / time_step

    for step in range(1, steps + 1):
        time_now = times[step]
        source_values = sample_source_waveforms(source_waveforms, time_now)

        history: Dict[str, float] = {}
        for capacitor in circuit.capacitors():
            v_prev = _voltage_across(voltages, stamper, capacitor)
            history[capacitor.name] = (
                conductance_scale * capacitor.capacitance * v_prev
            )

        iterate = voltages.copy()
        for _ in range(newton_iterations):
            system = stamper.assemble(
                voltages=iterate,
                capacitor_conductance=conductance_scale,
                capacitor_history=history,
                source_values=source_values,
            )
            try:
                solution = np.linalg.solve(system.matrix, system.rhs)
            except np.linalg.LinAlgError as error:
                raise ConvergenceError(
                    f"singular matrix during transient of {circuit.name!r}"
                ) from error
            new_iterate = solution[:num_nodes]
            if np.max(np.abs(new_iterate - iterate)) < tolerance:
                iterate = new_iterate
                break
            iterate = new_iterate
        voltages = iterate
        data[:, step] = voltages

    return TransientResult(times, data, dict(stamper.node_index))


def _voltage_across(
    voltages: np.ndarray, stamper: MNAStamper, capacitor: Capacitor
) -> float:
    def node_voltage(node: str) -> float:
        if node == GROUND:
            return 0.0
        return float(voltages[stamper.node_index[node]])

    return node_voltage(capacitor.node_a) - node_voltage(capacitor.node_b)
