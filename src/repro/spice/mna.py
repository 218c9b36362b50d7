"""Modified nodal analysis (MNA) stamping.

The MNA system is ``[G  B; C  D] [v; j] = [i; e]`` where ``v`` are node
voltages, ``j`` the currents through voltage sources, ``i`` injected nodal
currents and ``e`` source voltages.  :class:`MNAStamper` assembles the dense
system for the small circuits this substrate targets (tens of nodes); dense
``numpy.linalg.solve`` is both simpler and faster than a sparse path at that
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.spice.netlist import (
    GROUND,
    Capacitor,
    Circuit,
    CurrentSource,
    Mosfet,
    Resistor,
    VCCS,
    VoltageSource,
)
from repro.variation.corners import PVTCorner


@dataclass
class MNASystem:
    """The assembled linear system ``A @ x = z`` and its index maps."""

    matrix: np.ndarray
    rhs: np.ndarray
    node_index: Dict[str, int]
    source_index: Dict[str, int]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


class MNAStamper:
    """Builds MNA matrices for a circuit, linearising MOSFETs around a guess."""

    GMIN = 1e-12  # conductance from every node to ground for conditioning

    def __init__(self, circuit: Circuit, corner: Optional[PVTCorner] = None):
        circuit.validate()
        self.circuit = circuit
        self.corner = corner
        self.node_index = circuit.node_index()
        self.source_index = {
            source.name: index
            for index, source in enumerate(circuit.voltage_sources())
        }
        self.num_nodes = len(self.node_index)
        self.num_sources = len(self.source_index)

    # ------------------------------------------------------------------
    def _idx(self, node: str) -> Optional[int]:
        if node == GROUND:
            return None
        return self.node_index[node]

    def _stamp_conductance(
        self, matrix: np.ndarray, node_a: str, node_b: str, conductance: float
    ) -> None:
        a = self._idx(node_a)
        b = self._idx(node_b)
        if a is not None:
            matrix[a, a] += conductance
        if b is not None:
            matrix[b, b] += conductance
        if a is not None and b is not None:
            matrix[a, b] -= conductance
            matrix[b, a] -= conductance

    def _stamp_current(
        self, rhs: np.ndarray, node_plus: str, node_minus: str, current: float
    ) -> None:
        plus = self._idx(node_plus)
        minus = self._idx(node_minus)
        if plus is not None:
            rhs[plus] += current
        if minus is not None:
            rhs[minus] -= current

    def _stamp_voltage_source_rows(
        self, matrix: np.ndarray, element: VoltageSource
    ) -> int:
        """Stamp a source's +/-1 row/column pattern; returns its MNA row.

        The source *value* goes into the RHS separately (it may be a
        time-varying override).
        """
        row = self.num_nodes + self.source_index[element.name]
        plus = self._idx(element.node_plus)
        minus = self._idx(element.node_minus)
        if plus is not None:
            matrix[row, plus] += 1.0
            matrix[plus, row] += 1.0
        if minus is not None:
            matrix[row, minus] -= 1.0
            matrix[minus, row] -= 1.0
        return row

    def _stamp_vccs(
        self,
        matrix: np.ndarray,
        node_plus: str,
        node_minus: str,
        control_plus: str,
        control_minus: str,
        gm: float,
    ) -> None:
        plus = self._idx(node_plus)
        minus = self._idx(node_minus)
        c_plus = self._idx(control_plus)
        c_minus = self._idx(control_minus)
        for out_index, out_sign in ((plus, +1.0), (minus, -1.0)):
            if out_index is None:
                continue
            if c_plus is not None:
                matrix[out_index, c_plus] += out_sign * gm
            if c_minus is not None:
                matrix[out_index, c_minus] -= out_sign * gm

    # ------------------------------------------------------------------
    def assemble(
        self,
        voltages: Optional[np.ndarray] = None,
        capacitor_conductance: float = 0.0,
        capacitor_history: Optional[Dict[str, float]] = None,
        source_values: Optional[Dict[str, float]] = None,
    ) -> MNASystem:
        """Assemble the MNA system.

        Parameters
        ----------
        voltages:
            Current node-voltage iterate used to linearise MOSFETs (Newton).
            ``None`` means all nodes at zero.
        capacitor_conductance:
            For transient analysis, ``C / dt`` companion conductance scale is
            applied per capacitor: ``g = capacitor_conductance * C``.
            Zero (the default) treats capacitors as open circuits (DC).
        capacitor_history:
            Companion current sources per capacitor (``g * v_previous``) for
            transient backward-Euler steps.
        source_values:
            Per-source voltage overrides (time-varying drives); sources not
            listed use their netlist value.  Overrides keep transient
            analysis from mutating the circuit's source elements.
        """
        size = self.num_nodes + self.num_sources
        matrix = np.zeros((size, size))
        rhs = np.zeros(size)
        if voltages is None:
            voltages = np.zeros(self.num_nodes)

        for node in range(self.num_nodes):
            matrix[node, node] += self.GMIN

        for element in self.circuit.elements:
            if isinstance(element, Resistor):
                self._stamp_conductance(
                    matrix, element.node_a, element.node_b, 1.0 / element.resistance
                )
            elif isinstance(element, Capacitor):
                if capacitor_conductance > 0.0:
                    conductance = capacitor_conductance * element.capacitance
                    self._stamp_conductance(
                        matrix, element.node_a, element.node_b, conductance
                    )
                    history = 0.0
                    if capacitor_history is not None:
                        history = capacitor_history.get(element.name, 0.0)
                    self._stamp_current(rhs, element.node_a, element.node_b, history)
            elif isinstance(element, CurrentSource):
                self._stamp_current(
                    rhs, element.node_plus, element.node_minus, element.current
                )
            elif isinstance(element, VCCS):
                self._stamp_vccs(
                    matrix,
                    element.node_plus,
                    element.node_minus,
                    element.control_plus,
                    element.control_minus,
                    element.gm,
                )
            elif isinstance(element, VoltageSource):
                row = self._stamp_voltage_source_rows(matrix, element)
                value = element.voltage
                if source_values is not None and element.name in source_values:
                    value = source_values[element.name]
                rhs[row] += value
            elif isinstance(element, Mosfet):
                self._stamp_mosfet(matrix, rhs, element, voltages)
            else:  # pragma: no cover - future element types
                raise TypeError(f"unsupported element type {type(element)!r}")

        return MNASystem(matrix, rhs, dict(self.node_index), dict(self.source_index))

    # ------------------------------------------------------------------
    def _node_voltage(self, voltages: np.ndarray, node: str) -> float:
        index = self._idx(node)
        return 0.0 if index is None else float(voltages[index])

    def _stamp_mosfet(
        self,
        matrix: np.ndarray,
        rhs: np.ndarray,
        device: Mosfet,
        voltages: np.ndarray,
    ) -> None:
        """Stamp the linearised (companion) model of a MOSFET.

        The companion model is::

            i_ds(v) ~= I0 + gm * (vgs - VGS0) + gds * (vds - VDS0)

        which stamps a VCCS (gm), a conductance (gds) and an equivalent
        current source.  PMOS devices are evaluated with source-referenced
        magnitudes and the current direction flipped.
        """
        vd = self._node_voltage(voltages, device.drain)
        vg = self._node_voltage(voltages, device.gate)
        vs = self._node_voltage(voltages, device.source)

        if device.is_pmos:
            vgs = vs - vg
            vds = vs - vd
        else:
            vgs = vg - vs
            vds = vd - vs
        vds = max(vds, 0.0)

        op = device.model.operating_point(
            vgs,
            vds,
            corner=self.corner,
            vth_shift=device.vth_shift,
            beta_error=device.beta_error,
        )

        gm, gds, ids = op.gm, op.gds, op.ids
        # Equivalent current source of the companion model.
        ieq = ids - gm * vgs - gds * vds

        if device.is_pmos:
            # Current flows source -> drain (into the drain node).
            self._stamp_conductance(matrix, device.source, device.drain, gds)
            self._stamp_vccs(
                matrix,
                device.source,
                device.drain,
                device.source,
                device.gate,
                gm,
            )
            self._stamp_current(rhs, device.drain, device.source, ieq)
        else:
            self._stamp_conductance(matrix, device.drain, device.source, gds)
            self._stamp_vccs(
                matrix,
                device.drain,
                device.source,
                device.gate,
                device.source,
                gm,
            )
            self._stamp_current(rhs, device.source, device.drain, ieq)
