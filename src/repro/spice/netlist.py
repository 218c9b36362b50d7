"""Netlist data model for the ngspice deck compiler and netlist trimming.

A :class:`Circuit` is a flat collection of two- and four-terminal elements
connected by named nodes.  Node ``"0"`` (also exported as :data:`GROUND`) is
the reference.  :func:`repro.spice.deck.netlist_cards` lowers a circuit to
ngspice cards, and :func:`repro.spice.trim.trim_circuit` cuts it to the cone
of influence of the probed nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.spice.mosfet import MosfetModel

GROUND = "0"


class Element:
    """Base class for all netlist elements."""

    name: str

    def nodes(self) -> Tuple[str, ...]:
        raise NotImplementedError


@dataclass
class Resistor(Element):
    name: str
    node_a: str
    node_b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"resistor {self.name} must have positive resistance")

    def nodes(self) -> Tuple[str, ...]:
        return (self.node_a, self.node_b)


@dataclass
class Capacitor(Element):
    name: str
    node_a: str
    node_b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ValueError(f"capacitor {self.name} must have positive capacitance")

    def nodes(self) -> Tuple[str, ...]:
        return (self.node_a, self.node_b)


@dataclass
class VoltageSource(Element):
    """Ideal DC voltage source from ``node_plus`` to ``node_minus``."""

    name: str
    node_plus: str
    node_minus: str
    voltage: float

    def nodes(self) -> Tuple[str, ...]:
        return (self.node_plus, self.node_minus)


@dataclass
class CurrentSource(Element):
    """Ideal DC current source pushing current into ``node_plus``."""

    name: str
    node_plus: str
    node_minus: str
    current: float

    def nodes(self) -> Tuple[str, ...]:
        return (self.node_plus, self.node_minus)


@dataclass
class VCCS(Element):
    """Voltage-controlled current source ``i = gm * (v_cp - v_cn)``."""

    name: str
    node_plus: str
    node_minus: str
    control_plus: str
    control_minus: str
    gm: float

    def nodes(self) -> Tuple[str, ...]:
        return (self.node_plus, self.node_minus, self.control_plus, self.control_minus)


@dataclass
class Mosfet(Element):
    """A MOSFET instance bound to a :class:`~repro.spice.mosfet.MosfetModel`.

    Body terminal is tied to the source; the companion model is a nonlinear
    drain-source current controlled by ``(gate, source)`` and ``(drain,
    source)`` voltages.  PMOS devices are handled by sign inversion inside
    the stamping code, so node voltages keep their natural meaning.
    """

    name: str
    drain: str
    gate: str
    source: str
    model: MosfetModel
    vth_shift: float = 0.0
    beta_error: float = 0.0

    def nodes(self) -> Tuple[str, ...]:
        return (self.drain, self.gate, self.source)

    @property
    def is_pmos(self) -> bool:
        return self.model.parameters.polarity == "pmos"


class Circuit:
    """A flat netlist plus node bookkeeping.

    Example
    -------
    >>> from repro.spice import Circuit, Resistor, VoltageSource
    >>> circuit = Circuit("divider")
    >>> _ = circuit.add(VoltageSource("VIN", "in", "0", 1.0))
    >>> _ = circuit.add(Resistor("R1", "in", "out", 1e3))
    >>> _ = circuit.add(Resistor("R2", "out", "0", 1e3))
    >>> circuit.node_names()
    ['in', 'out']
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._elements: List[Element] = []
        self._element_names: Dict[str, Element] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        if element.name in self._element_names:
            raise ValueError(f"duplicate element name {element.name!r}")
        self._elements.append(element)
        self._element_names[element.name] = element
        return element

    def element(self, name: str) -> Element:
        return self._element_names[name]

    @property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(self._elements)

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------
    def node_names(self) -> List[str]:
        """All non-ground nodes in insertion order."""
        seen: Dict[str, None] = {}
        for element in self._elements:
            for node in element.nodes():
                if node != GROUND and node not in seen:
                    seen[node] = None
        return list(seen.keys())

    def voltage_sources(self) -> List[VoltageSource]:
        return [e for e in self._elements if isinstance(e, VoltageSource)]

    def validate(self) -> None:
        """Basic sanity checks: a ground reference and no floating sources."""
        touches_ground = any(
            GROUND in element.nodes() for element in self._elements
        )
        if not touches_ground:
            raise ValueError(f"circuit {self.name!r} has no connection to ground")
        if not self._elements:
            raise ValueError(f"circuit {self.name!r} is empty")
