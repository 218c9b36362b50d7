"""Reporting for the paper's evaluation.

:mod:`repro.analysis.metrics` aggregates repeated optimization runs into the
quantities Table II and Table III report (RL iterations, simulation counts,
normalized runtime, success rate); :mod:`repro.analysis.tables` renders them
as text tables.  The runs themselves go through :mod:`repro.api`
(``run_experiment`` / ``run_comparison``).

:mod:`repro.analysis.waveform` is the engine-neutral waveform metric
library: vectorized crossing/delay/slew/settling/average measurements
over the traces of an external simulator's rawfile, plus the
:class:`WaveformSpec` declarations circuits use to describe how each
metric is extracted from traces.
"""

from repro._lazy import export_names, lazy_getattr

#: Every re-export, by the module that defines it, imported on first read.
_EXPORTS = {
    "repro.analysis.metrics": (
        "MethodSummary",
        "aggregate_results",
        "normalize_runtimes",
        "straggler_idle_fraction",
    ),
    "repro.analysis.tables": ("format_comparison_table", "format_ablation_table"),
    "repro.analysis.waveform": (
        "TraceMissingError",
        "WaveformError",
        "WaveformSpec",
        "crossing_time",
        "delay_between",
        "extract_metric",
        "extract_metrics",
        "first_crossing",
        "overshoot",
        "settling_time",
        "slew_time",
    ),
}

__all__ = export_names(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
