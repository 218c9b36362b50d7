"""Waveform-first measurement subsystem.

Covers the four layers the subsystem spans:

* :mod:`repro.analysis.waveform` — the engine-neutral metric library
  (crossing/delay, slew, overshoot, settling, averages) plus the
  :class:`WaveformSpec` declarations and the canonical synthesis inverse;
* :mod:`repro.spice.rawfile` — binary/ascii rawfile parse + render,
  including the committed golden rawfiles for all three paper circuits
  (regenerate with ``REPRO_REGEN_GOLDEN=1``) and a fuzz battery proving
  malformed bytes always raise the typed :class:`RawfileError`;
* :mod:`repro.spice.trim` — connectivity-based netlist trimming and its
  conservative fallbacks;
* ``measurement="waveform"`` through :class:`NgspiceBackend` — metrics
  bit-equal to the analytic engine via the hermetic fake, FAILURE_NAN
  degradation for missing/garbage rawfiles, plain NaN for engine-reported
  failed measures, and a tiny sizing run whose budget and trajectory match
  ``backend="batched"`` exactly.

Everything runs with no ngspice installed: the ``fake_ngspice_waveform``
fixture makes the fake double answer ``-r`` requests with real binary
rawfiles rendered from the analytic engine's values.
"""

import json
import math
import os

import numpy as np
import pytest

from repro.analysis.waveform import (
    TraceMissingError,
    WaveformSpec,
    amplitude,
    crossing_time,
    delay_between,
    extract_metric,
    extract_metrics,
    final_value,
    first_crossing,
    overshoot,
    resolved_threshold,
    sample_average,
    settling_time,
    slew_time,
    synthesize_canonical,
    time_average,
    value_at,
)
from repro.simulation import BatchedBackend, NgspiceBackend, NgspiceError
from repro.spice.deck import (
    compile_job_deck,
    failure_nan_mask,
    netlist_cards,
    reference_job,
)
from repro.spice.rawfile import (
    RawfileError,
    parse_rawfile,
    read_rawfile,
    render_rawfile,
)
from repro.spice.netlist import (
    GROUND,
    VCCS,
    Capacitor,
    Circuit,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.spice.trim import describe_trim, probe_node_names, trim_circuit
from spice_reference import common_source_amplifier, common_source_ladder, solve_dc

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


# ----------------------------------------------------------------------
# Metric library
# ----------------------------------------------------------------------
class TestWaveformMetrics:
    times = np.array([0.0, 1.0, 2.0, 3.0])

    def test_first_crossing_interpolates_rising(self):
        waves = np.array([[0.0, 1.0, 1.0, 1.0]])
        assert first_crossing(self.times, waves, 0.25)[0] == 0.25

    def test_first_crossing_falling(self):
        waves = np.array([[1.0, 1.0, 0.0, 0.0]])
        assert first_crossing(self.times, waves, 0.5, rising=False)[0] == 1.5

    def test_first_crossing_exact_threshold_hit_is_exact(self):
        # The canonical-synthesis contract: a segment ending exactly on the
        # threshold has interpolation fraction 1.0, landing on the grid time.
        waves = np.array([[0.0, 0.5, 1.0, 1.0]])
        assert first_crossing(self.times, waves, 0.5)[0] == 1.0

    def test_first_crossing_never_is_nan(self):
        waves = np.array([[0.0, 0.1, 0.2, 0.3]])
        assert math.isnan(first_crossing(self.times, waves, 0.9)[0])

    def test_first_crossing_is_vectorized(self):
        waves = np.array(
            [[0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]
        )
        result = first_crossing(self.times, waves, 0.5)
        assert result[0] == 0.5
        assert result[1] == 1.5
        assert math.isnan(result[2])

    def test_crossing_time_matches_batched(self):
        wave = np.array([0.0, 0.0, 1.0, 1.0])
        assert crossing_time(self.times, wave, 0.5) == 1.5

    def test_delay_between_trigger_and_target(self):
        trig = np.array([0.0, 1.0, 1.0, 1.0])
        targ = np.array([0.0, 0.0, 1.0, 1.0])
        assert delay_between(self.times, trig, 0.5, targ, 0.5) == 1.0

    def test_delay_between_ignores_target_crossings_before_trigger(self):
        trig = np.array([0.0, 0.0, 1.0, 1.0])  # crosses at 1.5
        targ = np.array([0.0, 1.0, 0.0, 1.0])  # crosses at 0.5 and again at 2.5
        assert delay_between(self.times, trig, 0.5, targ, 0.5) == 1.0

    def test_delay_between_nan_when_either_never_crosses(self):
        flat = np.zeros(4)
        edge = np.array([0.0, 1.0, 1.0, 1.0])
        assert math.isnan(delay_between(self.times, flat, 0.5, edge, 0.5))
        assert math.isnan(delay_between(self.times, edge, 0.5, flat, 0.5))

    def test_slew_time_rising_and_falling(self):
        rising = np.array([0.0, 0.4, 0.8, 1.0])
        assert slew_time(self.times, rising, 0.1, 0.9) == pytest.approx(
            crossing_time(self.times, rising, 0.9)
            - crossing_time(self.times, rising, 0.1)
        )
        falling = rising[::-1].copy()
        assert slew_time(self.times, falling, 0.1, 0.9, rising=False) > 0.0

    def test_overshoot(self):
        assert overshoot(np.array([0.0, 1.2, 1.0]), 1.0) == pytest.approx(0.2)
        assert overshoot(np.array([0.0, 0.5]), 1.0) == 0.0
        assert math.isnan(overshoot(np.array([0.0, math.nan]), 1.0))

    def test_settling_time(self):
        wave = np.array([0.0, 2.0, 1.05, 1.01])
        assert settling_time(self.times, wave, 1.0, 0.1) == 2.0
        assert settling_time(self.times, np.full(4, 1.0), 1.0, 0.1) == 0.0
        assert math.isnan(settling_time(self.times, wave, 1.0, 0.001))

    def test_amplitude(self):
        assert amplitude(np.array([-0.25, 0.5, 0.0])) == 0.75

    def test_sample_average_is_exact_over_power_of_two(self):
        value = 0.1  # not a dyadic rational
        assert sample_average(np.full(8, value)) == value

    def test_time_average_is_trapezoidal(self):
        times = np.array([0.0, 1.0, 2.0])
        wave = np.array([0.0, 1.0, 1.0])
        assert time_average(times, wave) == pytest.approx(0.75)
        assert math.isnan(time_average(times[:1], wave[:1]))

    def test_value_at_grid_hit_returns_stored_sample(self):
        wave = np.array([0.0, 0.1, 0.2, 0.3])
        assert value_at(self.times, wave, 2.0) == 0.2
        assert value_at(self.times, wave, 0.5) == pytest.approx(0.05)
        assert math.isnan(value_at(self.times, wave, 9.0))

    # A first-order RC step, the edge every RC-loaded node produces:
    # tau = 1 us sampled every 5 ns.
    tau = 1e-6
    rc_times = np.linspace(0.0, 5e-6, 1001)
    rc_wave = 1.0 - np.exp(-rc_times / tau)

    def test_rc_time_constant(self):
        crossing = crossing_time(self.rc_times, self.rc_wave, 1.0 - np.exp(-1.0))
        assert crossing == pytest.approx(self.tau, rel=1e-6)

    def test_rc_slew_is_tau_ln9(self):
        slew = slew_time(self.rc_times, self.rc_wave, 0.1, 0.9)
        assert slew == pytest.approx(self.tau * np.log(9.0), rel=1e-5)

    def test_rc_settles_to_one_percent_within_a_step(self):
        settled = settling_time(self.rc_times, self.rc_wave, 1.0, 0.01)
        exact = self.tau * np.log(100.0)
        assert exact <= settled <= exact + self.rc_times[1]

    def test_final_value(self):
        assert final_value(np.array([1.0, 2.0, 3.0])) == 3.0


class TestWaveformSpec:
    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError, match="unknown waveform recipe"):
            WaveformSpec("m", recipe="integral", signal="v(x)")

    def test_signal_required(self):
        with pytest.raises(ValueError, match="names no signal"):
            WaveformSpec("m", recipe="final")

    def test_power_average_needs_aux(self):
        with pytest.raises(ValueError, match="aux voltage trace"):
            WaveformSpec("m", recipe="power_average", signal="i(vvdd)")

    def test_probes_collects_every_trace(self):
        spec = WaveformSpec(
            "m",
            recipe="power_average",
            signal="i(vvdd)",
            aux="v(vdd)",
        )
        assert spec.probes == ("i(vvdd)", "v(vdd)")
        diff = WaveformSpec(
            "d", recipe="value_at", signal="v(bl)", signal_minus="v(blb)"
        )
        assert diff.probes == ("v(bl)", "v(blb)")

    def test_resolved_threshold_uses_row_vdd(self):
        spec = WaveformSpec(
            "m", recipe="crossing", signal="v(out)", threshold=0.1, vdd_scale=0.5
        )
        assert resolved_threshold(spec, 0.8) == 0.1 + 0.5 * 0.8

    def test_extract_metric_missing_trace_raises(self):
        spec = WaveformSpec("m", recipe="final", signal="v(out)")
        with pytest.raises(TraceMissingError):
            extract_metric(spec, np.array([0.0, 1.0]), {}, 0.9)
        with pytest.raises(TraceMissingError, match="too short"):
            extract_metric(
                spec, np.array([0.0]), {"v(out)": np.array([1.0])}, 0.9
            )


# ----------------------------------------------------------------------
# Rawfile round trip + fuzz
# ----------------------------------------------------------------------
def _sample_rawfile(seed=0, n_points=16, allow_nan=False):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(1e-12, 1e-9, n_points))
    traces = rng.standard_normal((2, n_points))
    data = np.vstack([times, traces])
    variables = [("time", "time"), ("v(outp)", "voltage"), ("i(vvdd)", "current")]
    return variables, data, render_rawfile("round_trip", variables, data)


class TestRawfileRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_render_parse_is_bit_exact(self, seed):
        variables, data, blob = _sample_rawfile(seed, n_points=7 + 5 * seed)
        raw = parse_rawfile(blob)
        assert raw.title == "round_trip"
        assert raw.variables == tuple(variables)
        assert raw.n_vars == 3
        assert raw.n_points == data.shape[1]
        np.testing.assert_array_equal(raw.values, data)
        np.testing.assert_array_equal(raw.time, data[0])

    def test_traces_lowercase_and_exclude_axis(self):
        variables = [("time", "time"), ("V(OutP)", "voltage")]
        data = np.array([[0.0, 1.0], [0.5, 0.75]])
        raw = parse_rawfile(render_rawfile("t", variables, data))
        traces = raw.traces()
        assert set(traces) == {"v(outp)"}
        np.testing.assert_array_equal(traces["v(outp)"], data[1])

    def test_render_is_byte_stable(self):
        _, _, first = _sample_rawfile(3)
        _, _, second = _sample_rawfile(3)
        assert first == second  # canonical Date header, no wall clock

    def test_ascii_section_parses(self):
        header = (
            "Title: ascii\nDate: now\nPlotname: Transient Analysis\n"
            "Flags: real\nNo. Variables: 2\nNo. Points: 2\n"
            "Variables:\n\t0\ttime\ttime\n\t1\tv(out)\tvoltage\n"
        )
        body = "Values:\n0\t0.0\n\t1.5\n1\t1.0\n\t2.5\n"
        raw = parse_rawfile((header + body).encode("ascii"))
        np.testing.assert_array_equal(raw.time, [0.0, 1.0])
        np.testing.assert_array_equal(raw.traces()["v(out)"], [1.5, 2.5])

    def test_read_rawfile_from_disk(self, tmp_path):
        _, data, blob = _sample_rawfile(1)
        path = tmp_path / "out.raw"
        path.write_bytes(blob)
        np.testing.assert_array_equal(read_rawfile(path).values, data)


def _mutate_no_points(blob: bytes, replacement: bytes) -> bytes:
    head, _, tail = blob.partition(b"No. Points:")
    count, newline, rest = tail.partition(b"\n")
    return head + b"No. Points:" + replacement + newline + rest


class TestRawfileFuzz:
    """Every malformed rawfile must raise the typed RawfileError."""

    def _blob(self, **kwargs) -> bytes:
        return _sample_rawfile(0, **kwargs)[2]

    @pytest.mark.parametrize(
        "mutilate",
        [
            pytest.param(lambda blob: b"", id="empty"),
            pytest.param(lambda blob: b"this is not a rawfile\n", id="garbage"),
            pytest.param(lambda blob: blob[: len(blob) // 2], id="cut-mid-body"),
            pytest.param(lambda blob: blob[:-8], id="truncated-point"),
            pytest.param(lambda blob: blob + b"\x00" * 4, id="trailing-bytes"),
            pytest.param(
                lambda blob: blob.replace(b"No. Variables: 3", b"No. Variables: 4"),
                id="var-count-mismatch",
            ),
            pytest.param(
                lambda blob: _mutate_no_points(blob, b" zero"),
                id="non-integer-points",
            ),
            pytest.param(
                lambda blob: _mutate_no_points(blob, b" -3"), id="negative-points"
            ),
            pytest.param(
                lambda blob: blob.replace(b"Flags: real\n", b""), id="missing-flags"
            ),
            pytest.param(
                lambda blob: blob.replace(b"Flags: real", b"Flags: complex"),
                id="complex-flags",
            ),
            pytest.param(
                lambda blob: b"Title: \xff\xfe\n" + blob, id="non-ascii-header"
            ),
            pytest.param(
                lambda blob: blob.replace(b"\t1\tv(outp)", b"\t7\tv(outp)"),
                id="variable-index-out-of-order",
            ),
            pytest.param(
                lambda blob: blob.replace(
                    b"\t1\tv(outp)\tvoltage", b"\t1\tv(outp)"
                ),
                id="malformed-variable-line",
            ),
            pytest.param(
                lambda blob: blob.replace(
                    b"Title: round_trip", b"Title round_trip"
                ),
                id="header-line-without-colon",
            ),
        ],
    )
    def test_malformed_binary_raises(self, mutilate):
        with pytest.raises(RawfileError):
            parse_rawfile(mutilate(self._blob()))

    def test_non_bytes_input_rejected(self):
        with pytest.raises(RawfileError, match="expected rawfile bytes"):
            parse_rawfile("a string")  # type: ignore[arg-type]

    def test_nan_time_axis_always_rejected(self):
        variables, data, _ = _sample_rawfile(0)
        data[0, 3] = math.nan
        blob = render_rawfile("t", variables, data)
        for allow_nan in (False, True):
            with pytest.raises(RawfileError, match="time axis"):
                parse_rawfile(blob, allow_nan=allow_nan)

    def test_non_monotonic_time_axis_rejected(self):
        variables, data, _ = _sample_rawfile(0)
        data[0, 3] = data[0, 2]  # repeated timestamp
        with pytest.raises(RawfileError, match="strictly increasing"):
            parse_rawfile(render_rawfile("t", variables, data))

    def test_nan_trace_strict_by_default_allowed_on_request(self):
        variables, data, _ = _sample_rawfile(0)
        data[1, 5] = math.nan
        blob = render_rawfile("t", variables, data)
        with pytest.raises(RawfileError, match="non-finite"):
            parse_rawfile(blob)
        raw = parse_rawfile(blob, allow_nan=True)
        assert math.isnan(raw.traces()["v(outp)"][5])

    @pytest.mark.parametrize(
        "body, match",
        [
            ("Values:\n0\t0.0\n\t1.5\n", "tokens"),
            ("Values:\n9\t0.0\n\t1.5\n1\t1.0\n\t2.5\n", "starts with"),
            ("Values:\n0\t0.0\n\tabc\n1\t1.0\n\t2.5\n", "not a number"),
        ],
    )
    def test_malformed_ascii_raises(self, body, match):
        header = (
            "Title: ascii\nDate: now\nPlotname: p\nFlags: real\n"
            "No. Variables: 2\nNo. Points: 2\n"
            "Variables:\n\t0\ttime\ttime\n\t1\tv(out)\tvoltage\n"
        )
        with pytest.raises(RawfileError, match=match):
            parse_rawfile((header + body).encode("ascii"))

    def test_missing_file_raises_rawfile_error(self, tmp_path):
        with pytest.raises(RawfileError, match="cannot read"):
            read_rawfile(tmp_path / "no-such.raw")


# ----------------------------------------------------------------------
# Canonical synthesis (the exact inverse the fake engine uses)
# ----------------------------------------------------------------------
class TestCanonicalSynthesis:
    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_is_bit_exact_for_paper_specs(self, paper_circuit, seed):
        specs = paper_circuit.waveform_specs()
        rng = np.random.default_rng(seed)
        vdd = float(rng.uniform(0.7, 1.0))
        values = {
            spec.metric: float(rng.uniform(1e-12, 1e-9))
            if spec.recipe == "crossing"
            else float(rng.standard_normal())
            for spec in specs
        }
        times, traces = synthesize_canonical(specs, values, vdd)
        extracted = extract_metrics(specs, times, traces, vdd)
        for name, expected in values.items():
            assert extracted[name] == expected  # bit-for-bit

    def test_nan_targets_round_trip_as_nan(self, paper_circuit):
        specs = paper_circuit.waveform_specs()
        values = {spec.metric: math.nan for spec in specs}
        times, traces = synthesize_canonical(specs, values, 0.9)
        extracted = extract_metrics(specs, times, traces, 0.9)
        assert all(math.isnan(v) for v in extracted.values())

    def test_synthesized_traces_survive_the_rawfile_format(self, strongarm):
        """The full fake path in miniature: synthesize -> render -> parse ->
        extract, still bit-exact."""
        specs = strongarm.waveform_specs()
        values = {"power": 1.7e-5, "set_delay": 3.3e-10,
                  "reset_delay": 4.1e-10, "noise": 2.5e-4}
        times, traces = synthesize_canonical(specs, values, 0.9)
        variables = [("time", "time")] + [
            (name, "current" if name.startswith("i(") else "voltage")
            for name in sorted(traces)
        ]
        data = np.vstack([times] + [traces[name] for name in sorted(traces)])
        raw = parse_rawfile(render_rawfile("sal", variables, data))
        assert extract_metrics(specs, raw.time, raw.traces(), 0.9) == values


# ----------------------------------------------------------------------
# Golden rawfiles: the committed byte-level contract
# ----------------------------------------------------------------------
class TestGoldenRawfiles:
    """One committed binary rawfile per paper circuit, rendered from the
    analytic engine's metrics for the shared reference job (regenerate with
    ``REPRO_REGEN_GOLDEN=1``)."""

    def _golden_blob(self, circuit):
        job = reference_job(circuit, rows=1)
        metrics = BatchedBackend().evaluate(circuit, job)
        values = {name: float(metrics[name][0]) for name in circuit.metric_names}
        vdd = float(job.row_corners[0].vdd)
        times, traces = synthesize_canonical(circuit.waveform_specs(), values, vdd)
        variables = [("time", "time")] + [
            (name, "current" if name.startswith("i(") else "voltage")
            for name in sorted(traces)
        ]
        data = np.vstack([times] + [traces[name] for name in sorted(traces)])
        return render_rawfile(circuit.name, variables, data), values, vdd

    def test_rawfile_matches_golden_bytes(self, paper_circuit):
        blob, _, _ = self._golden_blob(paper_circuit)
        path = os.path.join(GOLDEN_DIR, f"{paper_circuit.name}.raw")
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(blob)
        with open(path, "rb") as handle:
            expected = handle.read()
        assert blob == expected, (
            f"rendered rawfile for {paper_circuit.name} drifted from {path}; "
            f"regenerate with REPRO_REGEN_GOLDEN=1 if intended"
        )

    def test_golden_rawfile_extracts_analytic_metrics_exactly(self, paper_circuit):
        _, values, vdd = self._golden_blob(paper_circuit)
        path = os.path.join(GOLDEN_DIR, f"{paper_circuit.name}.raw")
        raw = read_rawfile(path, allow_nan=True)
        extracted = extract_metrics(
            paper_circuit.waveform_specs(), raw.time, raw.traces(), vdd
        )
        assert extracted == values  # bit-for-bit through committed bytes


# ----------------------------------------------------------------------
# Netlist trimming
# ----------------------------------------------------------------------
class TestTrim:
    def test_probe_node_names(self):
        nodes, current = probe_node_names(["v(outp)", "bias", "i(vvdd)", " "])
        assert nodes == {"outp", "bias"}
        assert current

    def test_isolated_ladder_trims_to_one_column(self):
        ladder = common_source_ladder(16, 4, coupling="isolated")
        result = trim_circuit(ladder, ["v(f15_3)"])
        assert result.trimmed
        assert len(result.kept) == 12
        assert len(result.kept) + len(result.dropped) == len(ladder.elements)
        assert result.element_reduction > 0.9
        # The kept cone: supplies, stage 15's load + device + filter chain.
        assert {"VDD", "VB", "RD15", "M15"} <= set(result.kept)
        assert "M0" in result.dropped
        assert "92.6% removed" in describe_trim(result)

    def test_trim_preserves_probed_dc_solution(self):
        ladder = common_source_ladder(8, 2, coupling="isolated")
        result = trim_circuit(ladder, ["v(f7_1)"])
        assert result.trimmed
        full = solve_dc(ladder)
        trimmed = solve_dc(result.circuit)
        assert trimmed["f7_1"] == pytest.approx(full["f7_1"], rel=1e-12)

    @pytest.mark.parametrize(
        "stages, filter_nodes, expected",
        [(8, 2, 0.015071395924214862), (16, 4, 0.014076551098444747)],
    )
    def test_reference_solve_is_pinned(self, stages, filter_nodes, expected):
        """Both sides of the trim oracle run through one solve, so an edit
        to it could move them together: pin the full ladder's probe voltage
        to the values a separate implementation of the same solve gave."""
        ladder = common_source_ladder(stages, filter_nodes, coupling="isolated")
        probe = f"f{stages - 1}_{filter_nodes - 1}"
        assert solve_dc(ladder)[probe] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: Capacitor(f"C{n}", n, GROUND, 1e-12),
            lambda n: CurrentSource(f"I{n}", GROUND, n, 20e-6),
            lambda n: VCCS(f"G{n}", n, GROUND, "a", GROUND, 20e-6),
        ],
        ids=["capacitor", "current_source", "vccs"],
    )
    def test_trim_preserves_dc_through_each_element_kind(self, make):
        """Columns ``a`` and ``b`` hang off the pinned rail, each ending in
        one element of a kind; ``Gb`` reads ``a`` only through its control
        pins, a one-way input, so probing ``a`` drops column b every time."""
        circuit = Circuit("columns")
        circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
        for column in "ab":
            circuit.add(Resistor(f"R{column}", "vdd", column, 10e3))
            circuit.add(make(column))
        result = trim_circuit(circuit, ["v(a)"])
        assert result.dropped == ("Rb", circuit.elements[-1].name)
        assert solve_dc(result.circuit)["a"] == pytest.approx(
            solve_dc(circuit)["a"], rel=1e-12
        )

    def test_trim_leaves_the_full_circuit_untouched(self):
        # The oracle compares against the full netlist, so trimming must
        # build a new circuit rather than cut the one it was given.
        ladder = common_source_ladder(8, 2, coupling="isolated")
        before, full = ladder.elements, solve_dc(ladder)
        result = trim_circuit(ladder, ["v(f7_1)"])
        assert result.circuit is not ladder
        assert len(ladder.elements) == len(before)
        assert all(a is b for a, b in zip(ladder.elements, before))
        assert solve_dc(ladder) == full

    def test_resistive_ladder_is_conservatively_untrimmed(self):
        # The divider ladder + drain bridges really do couple every stage to
        # the probe, and the walk proves it by keeping everything.
        ladder = common_source_ladder(16, 4)
        result = trim_circuit(ladder, ["v(f15_3)"])
        assert not result.trimmed
        assert not result.dropped
        assert describe_trim(result) == f"untrimmed ({len(ladder.elements)} elements)"

    def test_current_probe_disables_trimming(self):
        ladder = common_source_ladder(4, 1, coupling="isolated")
        assert not trim_circuit(ladder, ["v(f3_0)", "i(vdd)"]).trimmed

    def test_unknown_probe_only_set_is_untrimmed(self):
        ladder = common_source_ladder(4, 1, coupling="isolated")
        assert not trim_circuit(ladder, ["v(m_energy)"]).trimmed

    def test_trim_requires_waveform_mode(self, strongarm):
        job = reference_job(strongarm, rows=1)
        with pytest.raises(ValueError, match="measurement='waveform'"):
            compile_job_deck(job, strongarm, trim=True)

    def test_waveform_deck_records_trim_note(self, paper_circuit):
        job = reference_job(paper_circuit, rows=1)
        deck = compile_job_deck(job, paper_circuit, measurement="waveform")
        assert "* trim: " in deck.text
        assert ".meas" not in deck.text
        assert ".tran" in deck.text
        assert ".save" in deck.text


# ----------------------------------------------------------------------
# Model cards (lambda scaling + per-row corner shifts)
# ----------------------------------------------------------------------
class TestModelCards:
    def test_lambda_card_is_lambda_per_um_over_length(self):
        """Regression for the channel-length-modulation card: the deck must
        carry ``lambda_per_um / L_um`` — the value ``_ids_core`` actually
        uses — not the raw per-micron coefficient.  nmos_28nm has
        lambda_per_um=0.08, so L=100nm pins lambda at exactly 0.8."""
        cards = netlist_cards(common_source_amplifier())
        model_lines = [line for line in cards if line.startswith(".model")]
        assert model_lines == [
            ".model nmos_m1 nmos (level=1 vto=3.200000000e-01 "
            "kp=3.200000000e-04 lambda=8.000000000e-01)"
        ]

    def test_lambda_card_scales_with_length(self):
        from repro.spice.mosfet import MosfetModel, nmos_28nm
        from repro.spice.netlist import GROUND, Circuit, Mosfet, VoltageSource

        circuit = Circuit("lambda_probe")
        circuit.add(VoltageSource("VDD", "vdd", GROUND, 0.9))
        circuit.add(
            Mosfet("M1", "vdd", "vdd", GROUND, MosfetModel(2e-6, 200e-9, nmos_28nm()))
        )
        (model_line,) = [
            line for line in netlist_cards(circuit) if line.startswith(".model")
        ]
        assert "lambda=4.000000000e-01" in model_line


# ----------------------------------------------------------------------
# Waveform-mode backend (through the hermetic fake)
# ----------------------------------------------------------------------
class TestWaveformBackend:
    def test_measurement_env_resolution(self, fake_ngspice_waveform):
        assert NgspiceBackend().measurement == "waveform"
        assert NgspiceBackend(measurement="measure").measurement == "measure"
        with pytest.raises(ValueError, match="measurement mode"):
            NgspiceBackend(measurement="scope")

    def test_waveform_mode_forces_row_parallel_dispatch(self, fake_ngspice_waveform):
        # Rawfiles are per-run artifacts: even a payload-aware engine must
        # get one single-row deck per row in waveform mode.
        assert NgspiceBackend().row_parallel
        assert not NgspiceBackend(measurement="measure").row_parallel

    def test_metrics_bit_equal_to_analytic_engine(
        self, paper_circuit, fake_ngspice_waveform, conditions_job
    ):
        """The acceptance property: deck -> subprocess -> binary rawfile ->
        host-side extraction reproduces the analytic engine bit-for-bit."""
        job = conditions_job(paper_circuit, rows=3, seed=7)
        waveform = NgspiceBackend().evaluate(paper_circuit, job)
        analytic = BatchedBackend().evaluate(paper_circuit, job)
        for name in paper_circuit.metric_names:
            np.testing.assert_array_equal(waveform[name], analytic[name])

    @pytest.mark.parametrize("mode", ["partial", "garbage"])
    def test_missing_or_garbage_rawfile_degrades_to_failure_nan(
        self, strongarm, fake_ngspice_waveform, monkeypatch, mode, conditions_job
    ):
        # partial = the engine exits 0 but writes no rawfile; garbage = the
        # rawfile is unparseable.  Both mean "the engine never produced the
        # cell", so every cell is FAILURE_NAN (uncharged, uncacheable).
        monkeypatch.setenv("FAKE_NGSPICE_MODE", mode)
        job = conditions_job(strongarm, rows=2, seed=7)
        metrics = NgspiceBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            assert failure_nan_mask(metrics[name]).all()

    def test_engine_reported_nan_is_plain_nan(
        self, strongarm, fake_ngspice_waveform, monkeypatch, conditions_job
    ):
        # failcell = the run succeeded but the first metric's trace carries
        # NaN: a genuine failed measurement, chargeable and cacheable —
        # plain NaN, NOT the FAILURE_NAN signature.
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "failcell")
        job = conditions_job(strongarm, rows=2, seed=7)
        metrics = NgspiceBackend().evaluate(strongarm, job)
        first = strongarm.metric_names[0]
        assert np.isnan(metrics[first]).all()
        assert not failure_nan_mask(metrics[first]).any()
        for name in strongarm.metric_names[1:]:
            assert np.isfinite(metrics[name]).all()

    def test_strict_mode_raises_on_garbage_rawfile(
        self, strongarm, fake_ngspice_waveform, monkeypatch, conditions_job
    ):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "garbage")
        with pytest.raises(NgspiceError):
            NgspiceBackend(strict=True).evaluate(
                strongarm, conditions_job(strongarm, rows=1, seed=7)
            )


class TestWaveformSizingLoop:
    """Acceptance: a seeded waveform-mode sizing run is budget- and
    trajectory-identical to ``backend="batched"``."""

    def tiny_config(self, backend):
        from repro.api import ExperimentConfig

        return ExperimentConfig(
            circuit="sal",
            method="C",
            algorithm="glova",
            seeds=(0,),
            max_iterations=2,
            initial_samples=4,
            optimization_samples=2,
            verification_samples=2,
            backend=backend,
        )

    def test_waveform_sizing_matches_batched_trajectory(
        self, fake_ngspice_waveform
    ):
        from repro.api import run_sizing

        waveform_report = run_sizing(self.tiny_config("ngspice"))
        batched_report = run_sizing(self.tiny_config("batched"))
        wf, ba = waveform_report.runs[0], batched_report.runs[0]
        assert wf.simulations == ba.simulations  # budget-identical
        assert wf.success == ba.success
        assert wf.iterations == ba.iterations
        if ba.final_design is None:
            assert wf.final_design is None
        else:
            assert wf.final_design == pytest.approx(ba.final_design, rel=1e-12)
        json.loads(waveform_report.to_json())
