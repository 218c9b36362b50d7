"""Analog/mixed-signal testbench circuits used in the paper's evaluation.

Three testcases from Section VI.A, each exposing the same sizing-vector
dimensionality, parameter ranges, performance metrics and design targets as
the paper:

* :class:`~repro.circuits.strongarm.StrongArmLatch` — 14 parameters,
  targets on power, set delay, reset delay and input-referred noise.
* :class:`~repro.circuits.fia.FloatingInverterAmplifier` — 6 parameters,
  targets on energy per conversion and noise.
* :class:`~repro.circuits.dram_core.DramCoreSenseAmp` — 12 parameters
  (offset-cancellation sense amplifier + subhole drivers in a DRAM core),
  targets on low/high data sensing voltage and energy per bit.

The circuits are behavioural performance models built on the device physics
in :mod:`repro.spice`.  They stand in for the paper's HSPICE testbenches,
which run on a proprietary 28 nm PDK that a public reproduction cannot use.

The circuits self-register with :mod:`repro.circuits.registry` via the
``@register_circuit`` decorator.
"""

from repro.circuits.base import AnalogCircuit, SizingParameter
from repro.circuits.strongarm import StrongArmLatch
from repro.circuits.fia import FloatingInverterAmplifier
from repro.circuits.dram_core import DramCoreSenseAmp
from repro.circuits.registry import (
    available_circuits,
    get_circuit,
    register_circuit,
)

__all__ = [
    "AnalogCircuit",
    "SizingParameter",
    "StrongArmLatch",
    "FloatingInverterAmplifier",
    "DramCoreSenseAmp",
    "available_circuits",
    "get_circuit",
    "register_circuit",
]
