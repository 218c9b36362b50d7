"""Lightweight SPICE-like circuit simulation substrate.

The paper sizes circuits against HSPICE with a proprietary 28 nm PDK.  This
subpackage provides the open substitute: a small but genuine circuit
simulator built on modified nodal analysis (MNA), with

* a netlist data model (:mod:`repro.spice.netlist`),
* a square-law / velocity-saturation MOSFET model with corner- and
  mismatch-aware parameters (:mod:`repro.spice.mosfet`),
* DC operating-point solution via damped Newton iteration
  (:mod:`repro.spice.dc`),
* backward-Euler transient analysis (:mod:`repro.spice.transient`),
* output-referred thermal-noise estimation (:mod:`repro.spice.noise`), and
* an ngspice-dialect deck compiler + measure-log parser bridging the
  netlist model to external simulators (:mod:`repro.spice.deck`),
* a binary/ascii rawfile reader + writer for waveform-mode measurement
  (:mod:`repro.spice.rawfile`), and
* connectivity-based netlist trimming that drops elements outside the
  cone of influence of the probed nodes (:mod:`repro.spice.trim`).

The behavioural testbenches in :mod:`repro.circuits` use the device model
directly for their analytic performance expressions and use the solvers for
sanity anchoring; the optimizer never needs to know which is which — it only
ever sees performance metrics.
"""

from repro.spice.mosfet import MosfetModel, MosfetParameters, nmos_28nm, pmos_28nm
from repro.spice.netlist import (
    Circuit,
    Resistor,
    Capacitor,
    VoltageSource,
    CurrentSource,
    VCCS,
    Mosfet,
    GROUND,
)
from repro.spice.dc import DCSolution, solve_dc
from repro.spice.transient import TransientResult, solve_transient
from repro.spice.noise import thermal_noise_voltage, ktc_noise, mosfet_thermal_noise_current
from repro.spice.deck import (
    Deck,
    DeckParseError,
    MeasureSpec,
    compile_job_deck,
    parse_deck_job,
    parse_measure_log,
)
from repro.spice.rawfile import (
    Rawfile,
    RawfileError,
    parse_rawfile,
    read_rawfile,
    render_rawfile,
)
from repro.spice.trim import TrimResult, describe_trim, trim_circuit

__all__ = [
    "Deck",
    "DeckParseError",
    "MeasureSpec",
    "compile_job_deck",
    "parse_deck_job",
    "parse_measure_log",
    "Rawfile",
    "RawfileError",
    "parse_rawfile",
    "read_rawfile",
    "render_rawfile",
    "TrimResult",
    "describe_trim",
    "trim_circuit",
    "MosfetModel",
    "MosfetParameters",
    "nmos_28nm",
    "pmos_28nm",
    "Circuit",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "VCCS",
    "Mosfet",
    "GROUND",
    "DCSolution",
    "solve_dc",
    "TransientResult",
    "solve_transient",
    "thermal_noise_voltage",
    "ktc_noise",
    "mosfet_thermal_noise_current",
]
