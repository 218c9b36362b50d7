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

from repro.analysis.metrics import (
    MethodSummary,
    aggregate_results,
    normalize_runtimes,
    straggler_idle_fraction,
)
from repro.analysis.tables import format_comparison_table, format_ablation_table
from repro.analysis.waveform import (
    TraceMissingError,
    WaveformError,
    WaveformSpec,
    crossing_time,
    delay_between,
    extract_metric,
    extract_metrics,
    first_crossing,
    overshoot,
    settling_time,
    slew_time,
)

__all__ = [
    "MethodSummary",
    "aggregate_results",
    "normalize_runtimes",
    "straggler_idle_fraction",
    "format_comparison_table",
    "format_ablation_table",
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
]
