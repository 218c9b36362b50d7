"""Waveform-first metric extraction shared by every simulation engine.

This module is **one** library of pure-array metric extractors —
crossing/delay, slew, overshoot, settling, amplitude and average power —
operating on raw ``(time, trace)`` float64 arrays.  The waveform-mode
ngspice backend (:mod:`repro.simulation.ngspice`) feeds parsed rawfile
traces (:mod:`repro.spice.rawfile`) through these functions instead of
hand-written ``.measure`` cards, so every engine's waveforms are measured
by *literally the same code*.

Circuits declare how each metric is extracted with a :class:`WaveformSpec`
(probe trace names plus an extraction recipe), the waveform twin of
:class:`~repro.spice.deck.MeasureSpec`.  Recipes are deliberately small and
closed — ``crossing``, ``value_at``, ``final``, ``average`` and
``power_average`` — because each one is *exactly invertible*:
:func:`synthesize_canonical` renders, for any target metric values, a
canonical set of traces whose extraction returns those values **bit-for-
bit** (crossings are anchored so the interpolation fraction is exactly
``1.0`` and the Sterbenz lemma makes the time arithmetic exact; averages
run over a power-of-two sample count so the compensated sum and the final
division are exact).  The hermetic fake-ngspice double uses this inverse
to emit real binary rawfiles carrying the analytic engine's values, which
is what lets the whole waveform subsystem be acceptance-tested end-to-end
— deck, subprocess, rawfile bytes, extraction — with zero tolerance loss.

This module imports nothing from the rest of the package (pure numpy +
stdlib), so any layer — the circuits, the deck compiler, simulation
backends, the test double — can depend on it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "WaveformSpec",
    "WaveformError",
    "TraceMissingError",
    "first_crossing",
    "crossing_time",
    "delay_between",
    "slew_time",
    "overshoot",
    "settling_time",
    "amplitude",
    "sample_average",
    "time_average",
    "value_at",
    "final_value",
    "resolved_threshold",
    "extract_metric",
    "extract_metrics",
    "synthesize_canonical",
]


class WaveformError(ValueError):
    """A waveform metric could not be extracted from the given traces."""


class TraceMissingError(WaveformError):
    """A required probe trace is absent or too short to post-process."""


# ----------------------------------------------------------------------
# Core vectorized extractors
# ----------------------------------------------------------------------
def first_crossing(
    times: np.ndarray, waves: np.ndarray, threshold: float, rising: bool = True
) -> np.ndarray:
    """Vectorized first-crossing with linear interpolation.

    ``waves`` is ``(B, n_steps + 1)``; returns ``(B,)`` crossing times with
    ``NaN`` where a waveform never crosses.  This is the single crossing
    implementation for the whole codebase: :func:`crossing_time` and every
    ``crossing`` recipe measure through it.
    """
    previous = waves[:, :-1]
    current = waves[:, 1:]
    if rising:
        crossed = (previous < threshold) & (threshold <= current)
    else:
        crossed = (previous > threshold) & (threshold >= current)

    result = np.full(waves.shape[0], np.nan)
    any_crossing = crossed.any(axis=1)
    if not np.any(any_crossing):
        return result

    rows = np.flatnonzero(any_crossing)
    first = np.argmax(crossed[rows], axis=1)
    prev_v = previous[rows, first]
    curr_v = current[rows, first]
    t_prev = times[first]
    t_curr = times[first + 1]
    step = curr_v - prev_v
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = np.where(step != 0.0, (threshold - prev_v) / step, 0.0)
    # A flat segment "crosses" at the segment's end, matching the scalar
    # semantics the per-index loop used to implement.
    result[rows] = np.where(
        step == 0.0, t_curr, t_prev + fraction * (t_curr - t_prev)
    )
    return result


def crossing_time(
    times: np.ndarray, wave: np.ndarray, threshold: float, rising: bool = True
) -> float:
    """Scalar convenience wrapper over :func:`first_crossing` (NaN = never)."""
    wave = np.asarray(wave, dtype=float)
    return float(first_crossing(times, wave[None, :], threshold, rising)[0])


def delay_between(
    times: np.ndarray,
    trig_wave: np.ndarray,
    trig_threshold: float,
    targ_wave: np.ndarray,
    targ_threshold: float,
    trig_rising: bool = True,
    targ_rising: bool = True,
) -> float:
    """``.meas trig/targ``-style delay: target crossing after the trigger.

    Returns the time from the trigger wave's first crossing to the first
    target-wave crossing at or after it; NaN when either never crosses.
    """
    t_trig = crossing_time(times, trig_wave, trig_threshold, trig_rising)
    if math.isnan(t_trig):
        return math.nan
    after = times >= t_trig
    if not np.any(after):
        return math.nan
    start = int(np.argmax(after))
    # Re-run the crossing search on the suffix so "first crossing after the
    # trigger" is exact even when an earlier crossing exists.
    t_targ = crossing_time(
        times[start:], np.asarray(targ_wave, dtype=float)[start:],
        targ_threshold, targ_rising,
    )
    if math.isnan(t_targ):
        return math.nan
    return t_targ - t_trig


def slew_time(
    times: np.ndarray,
    wave: np.ndarray,
    low_threshold: float,
    high_threshold: float,
    rising: bool = True,
) -> float:
    """10/90-style edge duration between two thresholds (NaN = no edge)."""
    if rising:
        t_low = crossing_time(times, wave, low_threshold, rising=True)
        t_high = crossing_time(times, wave, high_threshold, rising=True)
        return t_high - t_low
    t_high = crossing_time(times, wave, high_threshold, rising=False)
    t_low = crossing_time(times, wave, low_threshold, rising=False)
    return t_low - t_high


def overshoot(wave: np.ndarray, reference: float) -> float:
    """Peak excursion above ``reference`` (0 when the wave never exceeds it)."""
    wave = np.asarray(wave, dtype=float)
    peak = float(np.max(wave))
    if math.isnan(peak):
        return math.nan
    return max(peak - float(reference), 0.0)


def settling_time(
    times: np.ndarray, wave: np.ndarray, reference: float, tolerance: float
) -> float:
    """First time after which the wave stays inside ``reference +- tolerance``.

    Returns ``times[0]`` when the whole record is in band and NaN when the
    wave is still out of band at the final sample.
    """
    wave = np.asarray(wave, dtype=float)
    outside = ~(np.abs(wave - float(reference)) <= float(tolerance))
    if not bool(outside.any()):
        return float(times[0])
    last_outside = int(len(wave) - 1 - np.argmax(outside[::-1]))
    if last_outside >= len(wave) - 1:
        return math.nan
    return float(times[last_outside + 1])


def amplitude(wave: np.ndarray) -> float:
    """Peak-to-peak excursion ``max - min``."""
    wave = np.asarray(wave, dtype=float)
    return float(np.max(wave) - np.min(wave))


def sample_average(wave: np.ndarray) -> float:
    """Compensated (fsum) mean over the samples.

    On a uniform grid this equals the time average; it is the canonical
    ``average`` recipe because it is *exactly* invertible — a constant
    trace over a power-of-two sample count averages back to the constant
    bit-for-bit (the exact sum ``c * 2**k`` is representable and the
    division by ``2**k`` is an exponent shift).
    """
    wave = np.asarray(wave, dtype=float)
    if wave.size == 0:
        return math.nan
    return math.fsum(wave.tolist()) / wave.size


def time_average(times: np.ndarray, wave: np.ndarray) -> float:
    """Trapezoidal time-weighted average over the full record."""
    times = np.asarray(times, dtype=float)
    wave = np.asarray(wave, dtype=float)
    if wave.size < 2:
        return math.nan
    duration = float(times[-1] - times[0])
    if duration <= 0.0:
        return math.nan
    widths = np.diff(times)
    mids = 0.5 * (wave[:-1] + wave[1:])
    return math.fsum((mids * widths).tolist()) / duration


def value_at(times: np.ndarray, wave: np.ndarray, at_time: float) -> float:
    """Sample the wave at ``at_time`` (exact grid hit, else linear interp).

    An exact grid point returns the stored sample untouched — no
    interpolation arithmetic — which is what keeps ``find ... at=``-style
    metrics bit-exact through the canonical rawfile round trip.
    """
    times = np.asarray(times, dtype=float)
    wave = np.asarray(wave, dtype=float)
    at_time = float(at_time)
    if at_time < times[0] or at_time > times[-1]:
        return math.nan
    index = int(np.searchsorted(times, at_time))
    if index < len(times) and times[index] == at_time:
        return float(wave[index])
    return float(np.interp(at_time, times, wave))


def final_value(wave: np.ndarray) -> float:
    """The last sample of the record."""
    wave = np.asarray(wave, dtype=float)
    if wave.size == 0:
        return math.nan
    return float(wave[-1])


# ----------------------------------------------------------------------
# Waveform measurement declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WaveformSpec:
    """How one circuit metric is extracted from transient waveforms.

    The waveform twin of :class:`~repro.spice.deck.MeasureSpec`: instead of
    a ``.measure`` card body, it names the probe trace(s) and one of the
    closed extraction recipes below, all evaluated host-side by
    :func:`extract_metric` on the parsed rawfile.

    Attributes
    ----------
    metric:
        Metric name; must match a key of the circuit's constraints.
    recipe:
        ``"crossing"`` — first crossing time of ``signal`` through the
        resolved threshold (absolute time; the stimulus is at the
        transient origin, so this *is* the delay);
        ``"value_at"`` — ``signal - signal_minus`` sampled at ``at_time``;
        ``"final"`` — last sample of ``signal - signal_minus``;
        ``"average"`` — compensated sample mean of ``signal - signal_minus``;
        ``"power_average"`` — compensated sample mean of
        ``-signal * aux`` (supply current x supply voltage).
    signal / signal_minus / aux:
        Rawfile trace names (ngspice vector spelling, e.g. ``"v(outp)"``,
        ``"i(vvdd)"``).  ``signal_minus`` subtracts a second trace;
        ``aux`` is the voltage trace of ``power_average``.
    threshold / vdd_scale:
        The crossing threshold is ``threshold + vdd_scale * vdd`` with the
        row corner's supply, so specs stay corner-portable exactly like the
        ``val='0.5*vdd_val'`` measure cards they replace.
    rising:
        Crossing direction.
    at_time:
        Sample instant for ``value_at`` (seconds).
    expression:
        Optional ngspice expression over the deck's ``.param`` cards; when
        set, the deck compiler emits a behavioural source pinning the
        ``signal`` node to this expression so real engines can report
        parameter-derived metrics (noise/energy estimates) as a trace.
    placeholder:
        The spec probes synthetic trace names with no testbench meaning;
        only payload-aware runners (the fake) can honour it, exactly like
        placeholder measure specs.
    """

    metric: str
    recipe: str = "final"
    signal: str = ""
    signal_minus: str = ""
    aux: str = ""
    threshold: float = 0.0
    vdd_scale: float = 0.0
    rising: bool = True
    at_time: float = 0.0
    expression: str = ""
    placeholder: bool = False

    _RECIPES = ("crossing", "value_at", "final", "average", "power_average")

    def __post_init__(self) -> None:
        if self.recipe not in self._RECIPES:
            raise ValueError(
                f"unknown waveform recipe {self.recipe!r} for metric "
                f"{self.metric!r} (expected one of {self._RECIPES})"
            )
        if not self.signal:
            raise ValueError(f"waveform spec {self.metric!r} names no signal")
        if self.recipe == "power_average" and not self.aux:
            raise ValueError(
                f"power_average spec {self.metric!r} needs an aux voltage trace"
            )

    @property
    def probes(self) -> Tuple[str, ...]:
        """Every rawfile trace this recipe reads."""
        names = [self.signal]
        if self.signal_minus:
            names.append(self.signal_minus)
        if self.aux:
            names.append(self.aux)
        return tuple(names)


def resolved_threshold(spec: WaveformSpec, vdd: float) -> float:
    """The crossing threshold at a given supply.

    Shared verbatim by extraction and canonical synthesis so the two sides
    compute the *identical* float.
    """
    return float(spec.threshold + spec.vdd_scale * float(vdd))


def _trace(traces: Mapping[str, np.ndarray], name: str) -> np.ndarray:
    wave = traces.get(name.lower())
    if wave is None:
        raise TraceMissingError(f"rawfile carries no trace {name!r}")
    wave = np.asarray(wave, dtype=float)
    if wave.size < 2:
        raise TraceMissingError(
            f"trace {name!r} is too short to post-process ({wave.size} samples)"
        )
    return wave


def extract_metric(
    spec: WaveformSpec,
    times: np.ndarray,
    traces: Mapping[str, np.ndarray],
    vdd: float,
) -> float:
    """Apply one spec's recipe to parsed traces.

    ``traces`` maps lower-cased trace names to ``(n_points,)`` arrays.
    Missing or too-short traces raise :class:`TraceMissingError` (the
    backend degrades those cells to ``FAILURE_NAN``); a trace that is
    present but never crosses / never settles yields a plain ``NaN`` — a
    genuine "the design does not measure" result.
    """
    times = np.asarray(times, dtype=float)
    signal = _trace(traces, spec.signal)
    if spec.signal_minus:
        signal = signal - _trace(traces, spec.signal_minus)
    if spec.recipe == "crossing":
        return crossing_time(
            times, signal, resolved_threshold(spec, vdd), spec.rising
        )
    if spec.recipe == "value_at":
        return value_at(times, signal, spec.at_time)
    if spec.recipe == "final":
        return final_value(signal)
    if spec.recipe == "average":
        return sample_average(signal)
    if spec.recipe == "power_average":
        return sample_average(-signal * _trace(traces, spec.aux))
    raise WaveformError(f"unhandled recipe {spec.recipe!r}")  # pragma: no cover


def extract_metrics(
    specs: Sequence[WaveformSpec],
    times: np.ndarray,
    traces: Mapping[str, np.ndarray],
    vdd: float,
) -> Dict[str, float]:
    """Extract every spec's metric; see :func:`extract_metric`."""
    return {
        spec.metric: extract_metric(spec, times, traces, vdd) for spec in specs
    }


# ----------------------------------------------------------------------
# Canonical synthesis (the exact inverse, used by the hermetic fake)
# ----------------------------------------------------------------------
#: Gap between a value_at sample and the release pin that returns the trace
#: to its baseline (seconds); a power of two so grid times stay exact.
_RELEASE_DELTA = 2.0 ** -40


class _TraceBuilder:
    """Right-continuous step functions defined by (time, value) pins."""

    def __init__(self) -> None:
        self._pins: Dict[str, Dict[float, float]] = {}

    def ensure(self, name: str) -> None:
        self._pins.setdefault(name.lower(), {})

    def pin(self, name: str, time: float, value: float) -> None:
        pins = self._pins.setdefault(name.lower(), {})
        existing = pins.get(time)
        if existing is not None and not (
            existing == value or (math.isnan(existing) and math.isnan(value))
        ):
            raise WaveformError(
                f"canonical synthesis conflict: trace {name!r} pinned to both "
                f"{existing!r} and {value!r} at t={time!r}"
            )
        pins[time] = value

    def value_before(self, name: str, time: float) -> float:
        """Step value just *before* ``time`` (0.0 when nothing pinned)."""
        pins = self._pins.get(name.lower(), {})
        best_t = None
        for t in pins:
            if t < time and (best_t is None or t > best_t):
                best_t = t
        return 0.0 if best_t is None else pins[best_t]

    def value_at(self, name: str, time: float) -> float:
        """Step value at ``time`` (pins are right-continuous)."""
        pins = self._pins.get(name.lower(), {})
        if time in pins:
            return pins[time]
        return self.value_before(name, time)

    def pin_times(self) -> List[float]:
        seen = set()
        for pins in self._pins.values():
            seen.update(pins)
        return sorted(seen)

    def materialize(self, grid: np.ndarray) -> Dict[str, np.ndarray]:
        traces = {}
        for name, pins in self._pins.items():
            wave = np.zeros(len(grid))
            if pins:
                pin_t = np.array(sorted(pins))
                pin_v = np.array([pins[t] for t in pin_t])
                index = np.searchsorted(pin_t, grid, side="right") - 1
                valid = index >= 0
                wave[valid] = pin_v[index[valid]]
            traces[name] = wave
        return traces


def synthesize_canonical(
    specs: Sequence[WaveformSpec],
    values: Mapping[str, float],
    vdd: float,
    stop_time: float = 5e-9,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Render canonical traces whose extraction returns ``values`` exactly.

    The inverse of :func:`extract_metrics` for finite, representable
    targets: feeding the returned ``(times, traces)`` back through the
    specs reproduces each value **bit-for-bit**.  Exactness argument, per
    recipe:

    * ``crossing`` — the trace steps from a baseline strictly on the far
      side of the threshold to *exactly* the threshold at grid time ``d``,
      so the interpolation fraction is exactly ``1.0``; the grid also
      carries ``d/2``, so the segment start ``t_prev`` satisfies
      ``d/2 <= t_prev < d`` and by the Sterbenz lemma
      ``t_prev + (d - t_prev)`` evaluates to exactly ``d``.  A
      non-positive or non-finite target renders a flat trace (extraction:
      NaN), matching the analytic engine's "never crosses" answer.
    * ``value_at`` — the target lands on an exact grid sample (no
      interpolation); the trace releases back to its baseline just after,
      so later ``value_at`` pins on the *difference* partner trace see a
      zero subtrahend and stay exact.
    * ``final`` / ``average`` / ``power_average`` — constant traces;
      the grid is padded to a power-of-two sample count so the fsum mean
      divides exactly (``power_average`` renders the voltage trace as
      exactly ``1.0`` so the per-sample product is the target itself).

    The rendered traces are **canonical, not physical**: they carry the
    metric values in the stipulated recipes' encoding, nothing more.  That
    is the point — the hermetic fake double writes them into a real binary
    rawfile so the full parse-and-extract path is exercised with zero
    tolerance loss against the analytic engine.
    """
    builder = _TraceBuilder()
    needed = {0.0, float(stop_time)}
    wants_average = False

    def target(spec: WaveformSpec) -> float:
        return float(values[spec.metric])

    for spec in sorted(
        (s for s in specs if s.recipe == "value_at"), key=lambda s: s.at_time
    ):
        at_time = float(spec.at_time)
        value = target(spec)
        if not math.isfinite(at_time) or at_time < 0.0:
            raise WaveformError(
                f"value_at spec {spec.metric!r} has invalid at_time {at_time!r}"
            )
        minus = 0.0
        if spec.signal_minus:
            builder.ensure(spec.signal_minus)
            minus = builder.value_at(spec.signal_minus, at_time)
            if minus != 0.0:
                raise WaveformError(
                    f"canonical synthesis cannot keep {spec.metric!r} exact: "
                    f"subtrahend trace {spec.signal_minus!r} is nonzero at "
                    f"t={at_time!r}"
                )
        baseline = builder.value_at(spec.signal, at_time)
        builder.pin(spec.signal, at_time, value)
        builder.pin(spec.signal, at_time + _RELEASE_DELTA, baseline)
        needed.update((at_time, at_time + _RELEASE_DELTA))

    for spec in specs:
        value = target(spec)
        if spec.recipe == "crossing":
            threshold = resolved_threshold(spec, vdd)
            if spec.rising:
                start = 0.0 if threshold > 0.0 else threshold - 1.0
            else:
                start = threshold + 1.0
            builder.pin(spec.signal, 0.0, start)
            if math.isfinite(value) and value > 0.0:
                builder.pin(spec.signal, value, threshold)
                needed.update((value, value / 2.0))
        elif spec.recipe == "final":
            builder.pin(spec.signal, 0.0, value)
        elif spec.recipe == "average":
            wants_average = True
            builder.pin(spec.signal, 0.0, value)
            if spec.signal_minus:
                builder.pin(spec.signal_minus, 0.0, 0.0)
        elif spec.recipe == "power_average":
            wants_average = True
            builder.pin(spec.aux, 0.0, 1.0)
            builder.pin(spec.signal, 0.0, -value)
        elif spec.recipe != "value_at":  # pragma: no cover - closed set
            raise WaveformError(f"unhandled recipe {spec.recipe!r}")

    needed.update(builder.pin_times())
    grid = sorted(t for t in needed if math.isfinite(t) and t >= 0.0)
    if len(grid) < 2:
        grid.append(grid[-1] + _RELEASE_DELTA)
    if wants_average:
        # Pad to the next power-of-two sample count so fsum means divide
        # exactly; padding extends past the last event, where every trace
        # is constant, so no other recipe is disturbed.
        count = 1
        while count < len(grid):
            count *= 2
        tail = grid[-1]
        while len(grid) < count:
            tail = tail + _RELEASE_DELTA
            grid.append(tail)
    times = np.array(grid, dtype=float)
    return times, builder.materialize(times)
