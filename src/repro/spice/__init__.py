"""SPICE-side substrate: the device model, netlists and the ngspice bridge.

The paper sizes circuits against HSPICE with a proprietary 28 nm PDK.
This reproduction evaluates closed-form behavioural testbenches instead
(:mod:`repro.circuits`), so it solves no netlist itself.  This subpackage
holds what those testbenches and the external-engine path share:

* a square-law / velocity-saturation MOSFET model with corner- and
  mismatch-aware parameters (:mod:`repro.spice.mosfet`), whose
  ufunc-style ``batch_*`` evaluation the behavioural models build on;
* a netlist data model (:mod:`repro.spice.netlist`);
* an ngspice-dialect deck compiler + measure-log parser bridging the
  netlist model to external simulators (:mod:`repro.spice.deck`);
* a binary/ascii rawfile reader + writer for waveform-mode measurement
  (:mod:`repro.spice.rawfile`); and
* connectivity-based netlist trimming that drops elements outside the
  cone of influence of the probed nodes (:mod:`repro.spice.trim`).
"""

from repro._lazy import export_names, lazy_getattr

#: Every re-export, by the module that defines it, imported on first
#: read: the behavioural testbenches load only the device model.
_EXPORTS = {
    "repro.spice.deck": (
        "Deck",
        "DeckParseError",
        "MeasureSpec",
        "compile_job_deck",
        "parse_deck_job",
        "parse_measure_log",
    ),
    "repro.spice.rawfile": (
        "Rawfile",
        "RawfileError",
        "parse_rawfile",
        "read_rawfile",
        "render_rawfile",
    ),
    "repro.spice.trim": ("TrimResult", "describe_trim", "trim_circuit"),
    "repro.spice.mosfet": ("MosfetModel", "MosfetParameters", "nmos_28nm", "pmos_28nm"),
    "repro.spice.netlist": (
        "Circuit",
        "Resistor",
        "Capacitor",
        "VoltageSource",
        "CurrentSource",
        "VCCS",
        "Mosfet",
        "GROUND",
    ),
}

__all__ = export_names(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
