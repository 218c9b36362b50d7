"""External-simulator (ngspice) backend: deck compiler, measure parser,
subprocess runner and the hermetic fake-simulator harness.

Everything here runs with **no ngspice installed**: the ``fake_ngspice``
fixture installs ``tests/fake_ngspice.py`` as the simulator executable, so
the full ``NgspiceBackend`` pipeline — SimJob → deck → subprocess →
measure log → metrics tensor — is exercised end-to-end in CI.  The single
test that wants a real binary is marked ``requires_ngspice`` and
auto-skips.

Covers:

* deck structure (measure cards per metric per row, sorted params, valid
  single-row ngspice) and the committed golden decks for all three paper
  circuits (regenerate with ``REPRO_REGEN_GOLDEN=1``);
* the netlist → deck → re-parse round trip over randomized designs,
  corners, mismatch blocks, phases and both batch axes (full-precision
  payload: the reconstructed job has the *same content hash*);
* measure-log reassembly: ``failed``/missing/garbage measures become NaN
  cells of a full-shape tensor;
* per-job agreement between ``NgspiceBackend`` (through the fake) and
  ``BatchedBackend`` within the fake's declared tolerance;
* failure handling: timeouts, nonzero exits and missing executables
  degrade to NaN blocks (or raise in strict mode);
* composition with ``CachingBackend`` and ``ShardedDispatcher``; and
* ``ExperimentConfig(backend="ngspice")`` driving a full tiny-budget
  sizing loop whose trajectory matches the batched backend bit-for-bit.
"""

import json
import os
import re

import numpy as np
import pytest

import fake_ngspice as fake_module
from repro.circuits import StrongArmLatch
from repro.simulation import (
    BACKENDS,
    BatchedBackend,
    CachingBackend,
    NgspiceBackend,
    NgspiceError,
    NgspiceRunner,
    SimJob,
    SimulationPhase,
    SimulationService,
    available_backends,
    resolve_backend,
)
from repro.simulation import ngspice as ngspice_module
from repro.simulation.ngspice import (
    EXECUTABLE_ENV,
    PAYLOAD_AWARE_ENV,
    STRICT_ENV,
)
from repro.spice.deck import (
    DeckParseError,
    compile_job_deck,
    measure_name,
    netlist_cards,
    parse_deck_job,
    parse_measure_log,
    reference_job,
)
from repro.spice.netlist import (
    VCCS,
    Capacitor,
    Circuit,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.variation.corners import (
    ProcessCorner,
    PVTCorner,
    full_corner_set,
    typical_corner,
)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def sample_conditions_job(circuit, seed=1, rows=4, corners=None, seeded_mismatch=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 0.8, circuit.dimension)
    if seeded_mismatch is not None:
        mismatch = seeded_mismatch(circuit, x, rows, seed=seed).samples
    else:
        mismatch = rng.standard_normal((rows, circuit.mismatch_dimension))
    corners = corners if corners is not None else (typical_corner(),)
    return SimJob.conditions(circuit.name, x, corners, mismatch)


def corner_rows_job(circuit, seed=1, rows=4):
    """One seeded design across ``rows`` distinct corners at zero
    mismatch: a job a real (non-payload-aware) engine can run, one deck
    per row that differs from its siblings."""
    x = np.random.default_rng(seed).uniform(0.2, 0.8, circuit.dimension)
    corners = tuple(full_corner_set())[:rows]
    mismatch = np.zeros((rows, circuit.mismatch_dimension))
    return SimJob.conditions(circuit.name, x, corners, mismatch)


# ----------------------------------------------------------------------
# Deck structure
# ----------------------------------------------------------------------
class TestDeckCompiler:
    def test_measure_cards_for_every_metric_and_row(self, paper_circuit):
        job = sample_conditions_job(paper_circuit, rows=3)
        deck = compile_job_deck(job, paper_circuit)
        for row in range(3):
            for metric in paper_circuit.metric_names:
                assert measure_name(metric, row) in deck.text
        assert deck.text.rstrip().endswith(".end")
        assert deck.rows == 3
        assert deck.metric_names == tuple(paper_circuit.metric_names)

    def test_param_cards_are_sorted_and_fixed_format(self, strongarm):
        job = sample_conditions_job(strongarm, rows=1)
        deck = compile_job_deck(job, strongarm)
        params = re.findall(r"^\.param (\S+)=(\S+)$", deck.text, re.MULTILINE)
        names = [name for name, _ in params]
        assert names == sorted(names)
        for _, value in params:
            assert re.fullmatch(r"-?\d\.\d{9}e[+-]\d{2,3}", value), value

    def test_compile_is_deterministic(self, fia):
        job = sample_conditions_job(fia, rows=2)
        assert (
            compile_job_deck(job, fia).text == compile_job_deck(job, fia).text
        )

    def test_wrong_circuit_rejected(self, strongarm, fia):
        job = sample_conditions_job(fia)
        with pytest.raises(ValueError, match="deck compiler"):
            compile_job_deck(job, strongarm)

    @pytest.mark.parametrize(
        "element, card",
        [
            (Resistor("R1", "a", "0", 1e3), "R1 a 0 1.000000000e+03"),
            # A name without its type letter gets one: "load" -> "Cload".
            (Capacitor("load", "a", "0", 2e-15), "Cload a 0 2.000000000e-15"),
            (VoltageSource("VDD", "vdd", "0", 0.9), "VDD vdd 0 DC 9.000000000e-01"),
            # SPICE drives I from its first node into its second, so a
            # source pushing current into node "a" lists ground first.
            (CurrentSource("I1", "a", "0", 1e-6), "I1 0 a DC 1.000000000e-06"),
            (VCCS("G1", "a", "0", "in", "0", 1e-3), "G1 a 0 in 0 1.000000000e-03"),
        ],
        ids=["resistor", "capacitor", "voltage_source", "current_source", "vccs"],
    )
    def test_netlist_cards_lower_each_element_kind(self, element, card):
        circuit = Circuit("kinds")
        circuit.add(element)
        assert netlist_cards(circuit) == [card]

    def test_generic_default_testbench_compiles(self):
        """Circuits without a bespoke testbench still get a valid deck —
        and their placeholder measures emit *no* ``.meas`` card (a real
        engine must report NaN, not a fabricated number)."""
        from repro.circuits.base import AnalogCircuit, SizingParameter
        from repro.variation.distributions import DeviceKind, DeviceSpec

        class Probe(AnalogCircuit):
            name = "deck_probe"

            def _build_parameters(self):
                return [SizingParameter("w", 1.0, 2.0, unit="um")]

            def _build_constraints(self):
                return {"margin": 1.0}

            def _build_devices(self):
                return [
                    DeviceSpec(
                        "D",
                        DeviceKind.NMOS,
                        width_of=lambda x: 0.04,
                        length_of=lambda x: 0.03,
                    )
                ]

            def _evaluate_physical_batch(self, x, corner, mismatch):
                return {"margin": 0.5 + 0.0 * mismatch["D"]["vth"]}

        probe = Probe()
        job = SimJob.conditions(
            probe.name, np.array([0.5]), (typical_corner(),), None
        )
        deck = compile_job_deck(job, probe)
        assert measure_name("margin", 0) in deck.text
        assert "MD out bias 0" in deck.text  # generic diode-loaded bench
        # Placeholder metrics: a comment names the measure, but no .meas
        # card (ngspice would evaluate it to a fabricated 0.0) and no
        # .tran analysis is forced by placeholder-only decks.
        assert "placeholder measure" in deck.text
        assert ".meas" not in deck.text
        assert ".tran" not in deck.text


class TestGoldenDecks:
    """Committed expected decks: serialization regressions diff readably.

    The reference job lives in :func:`repro.spice.deck.reference_job` so
    the ``repro deck`` CLI regenerates the exact same bytes.
    """

    def golden_job(self, circuit):
        return reference_job(circuit)

    def _check_golden(self, deck, path):
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            deck.write(path)
        with open(path, "r", encoding="utf-8") as handle:
            expected = handle.read()
        assert deck.text == expected, (
            f"compiled deck drifted from {path}; regenerate with "
            f"REPRO_REGEN_GOLDEN=1 if intended"
        )

    def test_deck_matches_golden(self, paper_circuit):
        deck = compile_job_deck(self.golden_job(paper_circuit), paper_circuit)
        self._check_golden(
            deck, os.path.join(GOLDEN_DIR, f"{paper_circuit.name}.cir")
        )

    def test_waveform_deck_matches_golden(self, paper_circuit):
        deck = compile_job_deck(
            self.golden_job(paper_circuit),
            paper_circuit,
            measurement="waveform",
        )
        self._check_golden(
            deck,
            os.path.join(GOLDEN_DIR, f"{paper_circuit.name}.waveform.cir"),
        )

    def test_corner_shifts_produce_distinct_model_cards(self, paper_circuit):
        """Satellite regression: the reference job mixes a TT and an SS
        corner, so the per-row ``.model`` cards must differ between rows —
        corner vth/mu shifts are lowered into the deck, not just recorded
        in the payload."""
        deck = compile_job_deck(self.golden_job(paper_circuit), paper_circuit)
        rows = re.split(r"^\* ---- row \d+ ----$", deck.text, flags=re.MULTILINE)
        assert len(rows) == 3  # preamble + two rows
        models_by_row = [
            sorted(
                line
                for line in section.splitlines()
                if line.startswith(".model ")
            )
            for section in rows[1:]
        ]
        assert models_by_row[0], "expected .model cards inside each row"
        assert models_by_row[0] != models_by_row[1]

    def test_cli_deck_regenerates_golden_bytes(self, paper_circuit, capsys):
        """``repro deck <circuit>`` must emit the committed golden deck
        byte-for-byte (both measurement modes share ``reference_job``)."""
        from repro.__main__ import deck_main

        for suffix, extra in (("", []), (".waveform", ["--measurement", "waveform"])):
            assert deck_main([paper_circuit.name] + extra) == 0
            produced = capsys.readouterr().out
            path = os.path.join(
                GOLDEN_DIR, f"{paper_circuit.name}{suffix}.cir"
            )
            with open(path, "r", encoding="utf-8") as handle:
                assert produced == handle.read()

    def test_cli_deck_rejects_unknown_circuit(self, capsys):
        from repro.__main__ import deck_main
        from repro.circuits import available_circuits

        with pytest.raises(SystemExit) as exit_info:
            deck_main(["nosuch"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "unknown circuit 'nosuch'" in error
        assert str(available_circuits()) in error


class TestDeckRoundTrip:
    """netlist → deck → re-parse property test over randomized designs."""

    @pytest.mark.parametrize("seed", range(5))
    def test_conditions_job_round_trips_exactly(self, paper_circuit, seed):
        rng = np.random.default_rng(seed)
        corners = tuple(
            rng.choice(len(full_corner_set()), size=3, replace=False)
        )
        corner_set = list(full_corner_set())
        job = SimJob.conditions(
            paper_circuit.name,
            rng.uniform(0.0, 1.0, paper_circuit.dimension),
            tuple(corner_set[index] for index in corners),
            rng.standard_normal((3, paper_circuit.mismatch_dimension)),
            phase=rng.choice(list(SimulationPhase)),
        )
        rebuilt = parse_deck_job(compile_job_deck(job, paper_circuit).text)
        assert rebuilt == job  # content hash + phase equality
        assert rebuilt.job_id == job.job_id
        assert rebuilt.axis == job.axis

    @pytest.mark.parametrize("seed", range(3))
    def test_design_batch_round_trips_exactly(self, paper_circuit, seed):
        rng = np.random.default_rng(100 + seed)
        job = SimJob.design_batch(
            paper_circuit.name,
            rng.uniform(0.0, 1.0, (4, paper_circuit.dimension)),
            PVTCorner(ProcessCorner.FS, 0.8, 80.0),
        )
        rebuilt = parse_deck_job(compile_job_deck(job, paper_circuit).text)
        assert rebuilt == job
        assert rebuilt.axis == "designs"
        assert rebuilt.mismatch is None

    def test_nominal_mismatch_round_trips(self, strongarm):
        job = SimJob.conditions(
            strongarm.name,
            np.full(strongarm.dimension, 0.5),
            (typical_corner(),),
            None,
        )
        rebuilt = parse_deck_job(compile_job_deck(job, strongarm).text)
        assert rebuilt == job
        assert rebuilt.mismatch is None

    def test_payloadless_text_rejected(self):
        with pytest.raises(DeckParseError, match="payload"):
            parse_deck_job("* just a comment\n.end\n")

    def test_other_format_versions_rejected(self, strongarm):
        job = sample_conditions_job(strongarm, rows=1)
        text = compile_job_deck(job, strongarm).text
        with pytest.raises(DeckParseError, match="format 99"):
            parse_deck_job(text.replace("format=2", "format=99"))
        # Version 1 predates the corners=/mismatch= counts: the format
        # gate must reject it before the shape checks produce a
        # misleading "truncated" error.
        with pytest.raises(DeckParseError, match="format 1"):
            parse_deck_job(text.replace("format=2", "format=1"))

    def test_truncated_mismatch_payload_rejected(self, strongarm):
        """A deck missing a payload row must raise, not silently rebuild a
        smaller job."""
        text = compile_job_deck(
            sample_conditions_job(strongarm, rows=3), strongarm
        ).text
        lines = [
            line
            for line in text.splitlines()
            if not line.startswith("*:mismatch 2 ")
        ]
        assert len(lines) == len(text.splitlines()) - 1
        with pytest.raises(DeckParseError, match="truncated"):
            parse_deck_job("\n".join(lines))

    def test_truncated_design_payload_rejected(self, strongarm):
        designs = np.random.default_rng(3).uniform(
            0.2, 0.8, (4, strongarm.dimension)
        )
        job = SimJob.design_batch(strongarm.name, designs, typical_corner())
        text = compile_job_deck(job, strongarm).text
        lines = [
            line
            for line in text.splitlines()
            if not line.startswith("*:design 3 ")
        ]
        assert len(lines) == len(text.splitlines()) - 1
        with pytest.raises(DeckParseError, match="rows=4"):
            parse_deck_job("\n".join(lines))

    def test_truncated_per_row_corner_block_rejected(self, strongarm):
        """Dropping per-row corner lines must not silently re-parse as a
        broadcast (length-1) corner block: the declared corners= count
        pins the block length exactly."""
        rng = np.random.default_rng(9)
        corner_set = list(full_corner_set())
        job = SimJob.conditions(
            strongarm.name,
            rng.uniform(0.2, 0.8, strongarm.dimension),
            (corner_set[0], corner_set[1]),  # one corner per mismatch row
            rng.standard_normal((2, strongarm.mismatch_dimension)),
        )
        text = compile_job_deck(job, strongarm).text
        lines = [
            line
            for line in text.splitlines()
            if not line.startswith("*:corner 1 ")
        ]
        assert len(lines) == len(text.splitlines()) - 1
        with pytest.raises(DeckParseError, match="corners=2"):
            parse_deck_job("\n".join(lines))

    def test_tampered_rows_count_rejected(self, strongarm):
        text = compile_job_deck(
            sample_conditions_job(strongarm, rows=3), strongarm
        ).text.replace("rows=3", "rows=5")
        with pytest.raises(DeckParseError, match="rows=5"):
            parse_deck_job(text)

    def test_noncontiguous_payload_indices_rejected(self, strongarm):
        job = SimJob.conditions(
            strongarm.name,
            np.full(strongarm.dimension, 0.5),
            (typical_corner(),),
            None,
        )
        text = compile_job_deck(job, strongarm).text.replace(
            "*:design 0 ", "*:design 1 "
        )
        with pytest.raises(DeckParseError, match="not contiguous"):
            parse_deck_job(text)


# ----------------------------------------------------------------------
# Measure-log parsing
# ----------------------------------------------------------------------
class TestMeasureLogParser:
    METRICS = ("power", "noise")

    def test_full_log_fills_tensor(self):
        log = "\n".join(
            [
                "m_power_r0 = 1.5e-05",
                "M_POWER_R1  =  2.5e-05",  # ngspice may shout
                "m_noise_r0=3e-04",
                "m_noise_r1 = 4e-04 ; trailing",
            ]
        )
        metrics = parse_measure_log(log, 2, self.METRICS)
        assert metrics["power"].tolist() == [1.5e-05, 2.5e-05]
        assert metrics["noise"].tolist() == [3e-04, 4e-04]

    def test_failed_and_missing_measures_become_nan(self):
        log = "m_power_r0 = failed\nm_noise_r1 = 4e-04\n"
        metrics = parse_measure_log(log, 2, self.METRICS)
        assert np.isnan(metrics["power"]).all()
        assert np.isnan(metrics["noise"][0])
        assert metrics["noise"][1] == 4e-04

    def test_garbage_log_is_all_nan_with_full_shape(self):
        metrics = parse_measure_log("no measures at all", 3, self.METRICS)
        for name in self.METRICS:
            assert metrics[name].shape == (3,)
            assert np.isnan(metrics[name]).all()

    def test_absent_vs_reported_failed_cells_are_distinguished(self):
        """Both read as NaN, but only cells the engine never produced carry
        the FAILURE_NAN tag the service's failure accounting checks."""
        from repro.spice.deck import failure_nan_mask

        log = "m_power_r0 = failed\nm_noise_r0 = 1e-3\n"
        metrics = parse_measure_log(log, 2, self.METRICS)
        assert np.isnan(metrics["power"][0])  # reported as failed...
        assert not failure_nan_mask(metrics["power"])[0]  # ...a result
        assert failure_nan_mask(metrics["power"])[1]  # row 1 never produced
        assert failure_nan_mask(metrics["noise"])[1]

    def test_unknown_measures_ignored(self):
        log = "m_power_r9 = 1.0\nm_other_r0 = 2.0\nm_power_r0 = 3.0\n"
        metrics = parse_measure_log(log, 1, self.METRICS)
        assert metrics["power"].tolist() == [3.0]


# ----------------------------------------------------------------------
# NgspiceBackend through the fake simulator
# ----------------------------------------------------------------------
class TestNgspiceBackendWithFake:
    def test_registered_and_resolvable(self):
        assert "ngspice" in available_backends()
        assert BACKENDS["ngspice"] is NgspiceBackend
        assert isinstance(resolve_backend("ngspice"), NgspiceBackend)

    def test_agrees_with_batched_backend_conditions(
        self, paper_circuit, fake_ngspice, seeded_mismatch
    ):
        job = sample_conditions_job(
            paper_circuit, rows=4, seeded_mismatch=seeded_mismatch
        )
        fake = NgspiceBackend().evaluate(paper_circuit, job)
        reference = BatchedBackend().evaluate(paper_circuit, job)
        for name in paper_circuit.metric_names:
            np.testing.assert_allclose(
                fake[name], reference[name], rtol=fake_module.TOLERANCE, atol=0
            )

    def test_agrees_with_batched_backend_corner_block(
        self, paper_circuit, fake_ngspice
    ):
        x = np.full(paper_circuit.dimension, 0.45)
        job = SimJob.conditions(
            paper_circuit.name, x, tuple(full_corner_set())[:6], None
        )
        fake = NgspiceBackend().evaluate(paper_circuit, job)
        reference = BatchedBackend().evaluate(paper_circuit, job)
        for name in paper_circuit.metric_names:
            np.testing.assert_allclose(
                fake[name], reference[name], rtol=fake_module.TOLERANCE, atol=0
            )

    def test_agrees_with_batched_backend_design_axis(
        self, paper_circuit, fake_ngspice
    ):
        designs = np.random.default_rng(7).uniform(
            0.2, 0.8, (5, paper_circuit.dimension)
        )
        job = SimJob.design_batch(paper_circuit.name, designs, typical_corner())
        fake = NgspiceBackend().evaluate(paper_circuit, job)
        reference = BatchedBackend().evaluate(paper_circuit, job)
        for name in paper_circuit.metric_names:
            np.testing.assert_allclose(
                fake[name], reference[name], rtol=fake_module.TOLERANCE, atol=0
            )

    def test_service_runs_and_charges_budget(
        self, strongarm, fake_ngspice, service_factory
    ):
        service = service_factory(strongarm, backend="ngspice")
        job = sample_conditions_job(strongarm, rows=3)
        result = service.run(job)
        assert result.backend == "ngspice"
        assert service.budget.total == 3
        for name in strongarm.metric_names:
            assert np.isfinite(result.metrics[name]).all()


class TestPerRowFallback:
    """Real (non-payload-aware) engines get one single-row deck per row.

    A real ngspice binary resolves the repeated per-row ``.param`` sections
    of a multi-row deck last-wins, so handing it the batch deck whole would
    silently return wrong numbers for every row but the last.  The backend
    therefore splits batched jobs row-wise by default; only the fixture's
    explicitly payload-aware fake gets the multi-row fast path.
    """

    def count_runs(self, monkeypatch):
        calls = []
        original = NgspiceRunner.run_deck

        def counting(runner, deck_text, tag="job", **kwargs):
            calls.append(tag)
            return original(runner, deck_text, tag, **kwargs)

        monkeypatch.setattr(NgspiceRunner, "run_deck", counting)
        return calls

    def test_payload_awareness_defaults_off_and_env_selectable(
        self, monkeypatch
    ):
        monkeypatch.delenv(PAYLOAD_AWARE_ENV, raising=False)
        assert not NgspiceBackend().payload_aware
        monkeypatch.setenv(PAYLOAD_AWARE_ENV, "1")
        assert NgspiceBackend().payload_aware
        assert not NgspiceBackend(payload_aware=False).payload_aware

    def test_multi_row_job_splits_into_single_row_decks(
        self, strongarm, fake_ngspice, monkeypatch
    ):
        calls = self.count_runs(monkeypatch)
        job = corner_rows_job(strongarm, rows=3)
        backend = NgspiceBackend(payload_aware=False)
        metrics = backend.evaluate(strongarm, job)
        assert len(calls) == 3  # one subprocess per batch row
        reference = BatchedBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            np.testing.assert_allclose(
                metrics[name],
                reference[name],
                rtol=fake_module.TOLERANCE,
                atol=0,
            )

    def test_payload_aware_runner_keeps_single_deck_fast_path(
        self, strongarm, fake_ngspice, monkeypatch
    ):
        calls = self.count_runs(monkeypatch)
        job = sample_conditions_job(strongarm, rows=3)
        NgspiceBackend().evaluate(strongarm, job)  # fixture sets the env
        assert len(calls) == 1

    def test_design_axis_splits_per_row_too(
        self, paper_circuit, fake_ngspice, monkeypatch
    ):
        calls = self.count_runs(monkeypatch)
        designs = np.random.default_rng(11).uniform(
            0.2, 0.8, (4, paper_circuit.dimension)
        )
        job = SimJob.design_batch(
            paper_circuit.name, designs, typical_corner()
        )
        metrics = NgspiceBackend(payload_aware=False).evaluate(
            paper_circuit, job
        )
        assert len(calls) == 4
        reference = BatchedBackend().evaluate(paper_circuit, job)
        for name in paper_circuit.metric_names:
            np.testing.assert_allclose(
                metrics[name],
                reference[name],
                rtol=fake_module.TOLERANCE,
                atol=0,
            )

    def test_failed_row_degrades_alone(
        self, strongarm, fake_ngspice, monkeypatch, tmp_path
    ):
        marker = tmp_path / "fail-once"
        marker.write_text("")
        monkeypatch.setenv("FAKE_NGSPICE_FAIL_ONCE", str(marker))
        job = corner_rows_job(strongarm, rows=3)
        backend = NgspiceBackend(payload_aware=False)
        with pytest.warns(RuntimeWarning, match="1/3 ngspice row runs"):
            metrics = backend.evaluate(strongarm, job)
        reference = BatchedBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            assert np.isnan(metrics[name][0])  # the failed row only
            np.testing.assert_allclose(
                metrics[name][1:],
                reference[name][1:],
                rtol=fake_module.TOLERANCE,
                atol=0,
            )

    def test_failed_row_raises_in_strict_mode(
        self, strongarm, fake_ngspice, monkeypatch
    ):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "exit3")
        job = corner_rows_job(strongarm, rows=2)
        backend = NgspiceBackend(strict=True, payload_aware=False)
        with pytest.raises(NgspiceError, match="ngspice run failed for row 0 of 2"):
            backend.evaluate(strongarm, job)

    def test_placeholder_only_circuit_rejected_for_real_engines(
        self, fake_ngspice
    ):
        """A circuit with only placeholder measures emits no .meas card, so
        a real engine could never report a metric: that is a deployment
        error (raised even non-strict), not a per-run NaN degradation —
        otherwise every run would go uncharged and make no progress."""
        from repro.circuits.base import AnalogCircuit, SizingParameter
        from repro.variation.distributions import DeviceKind, DeviceSpec

        class PlaceholderProbe(AnalogCircuit):
            name = "placeholder_probe"

            def _build_parameters(self):
                return [SizingParameter("w", 1.0, 2.0, unit="um")]

            def _build_constraints(self):
                return {"margin": 1.0}

            def _build_devices(self):
                return [
                    DeviceSpec(
                        "D",
                        DeviceKind.NMOS,
                        width_of=lambda x: 0.04,
                        length_of=lambda x: 0.03,
                    )
                ]

            def _evaluate_physical_batch(self, x, corner, mismatch):
                return {"margin": 0.5 + 0.0 * mismatch["D"]["vth"]}

        probe = PlaceholderProbe()
        job = SimJob.conditions(
            probe.name, np.array([0.5]), (typical_corner(),), None
        )
        with pytest.raises(NgspiceError, match="placeholder"):
            NgspiceBackend(payload_aware=False).evaluate(probe, job)

    @pytest.mark.parametrize("measurement", ["measure", "waveform"])
    def test_mismatch_row_refused_for_real_engines(
        self, strongarm, fake_ngspice, monkeypatch, measurement
    ):
        """A real engine's deck carries corners but not a row's mismatch
        vector, so it would simulate sigma = 0: a job with a non-zero
        mismatch row is a deployment error, raised before any deck is
        compiled or subprocess started, strict or not.  Its zero-mismatch
        twin runs and matches the analytic engine."""
        calls = self.count_runs(monkeypatch)
        compiled = []
        original_compile = ngspice_module.compile_job_deck

        def counting_compile(*args, **kwargs):
            compiled.append(args[0].job_id)
            return original_compile(*args, **kwargs)

        monkeypatch.setattr(ngspice_module, "compile_job_deck", counting_compile)
        twin = corner_rows_job(strongarm, rows=2)
        mismatch = np.array(twin.mismatch)
        mismatch[1] = 3.0  # row 1 at 3 sigma on every coordinate
        job = SimJob.conditions(strongarm.name, twin.designs[0], twin.corners, mismatch)
        backend = NgspiceBackend(
            strict=False, payload_aware=False, measurement=measurement
        )
        with pytest.raises(
            NgspiceError, match=r"'strongarm_latch': row 1 of 2 has a non-zero mismatch"
        ):
            backend.evaluate(strongarm, job)
        assert calls == [] and compiled == []
        metrics = backend.evaluate(strongarm, twin)
        assert len(calls) == 2  # one deck per row
        reference = BatchedBackend().evaluate(strongarm, twin)
        for name in strongarm.metric_names:
            np.testing.assert_allclose(
                metrics[name], reference[name], rtol=fake_module.TOLERANCE, atol=0
            )


class TestNgspiceFailureHandling:
    def test_nonzero_exit_degrades_to_nan(
        self, strongarm, fake_ngspice, monkeypatch
    ):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "exit3")
        job = sample_conditions_job(strongarm, rows=2)
        with pytest.warns(RuntimeWarning, match="exit 3"):
            metrics = NgspiceBackend().evaluate(strongarm, job)
        for name in strongarm.metric_names:
            assert metrics[name].shape == (2,)
            assert np.isnan(metrics[name]).all()

    def test_nonzero_exit_raises_in_strict_mode(
        self, strongarm, fake_ngspice, monkeypatch
    ):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "exit3")
        job = sample_conditions_job(strongarm, rows=2)
        with pytest.raises(NgspiceError, match="exit 3"):
            NgspiceBackend(strict=True).evaluate(strongarm, job)

    def test_strict_env_default(self, fake_ngspice, monkeypatch):
        monkeypatch.setenv(STRICT_ENV, "1")
        assert NgspiceBackend().strict
        monkeypatch.delenv(STRICT_ENV)
        assert not NgspiceBackend().strict
        assert NgspiceBackend(strict=True).strict

    def test_timeout_degrades_to_nan(self, strongarm, fake_ngspice, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "hang")
        job = sample_conditions_job(strongarm, rows=1)
        backend = NgspiceBackend(timeout=1.0)
        with pytest.warns(RuntimeWarning, match="timed out"):
            metrics = backend.evaluate(strongarm, job)
        assert all(
            np.isnan(metrics[name]).all() for name in strongarm.metric_names
        )

    def test_partial_measures_are_nan_cells(
        self, strongarm, fake_ngspice, monkeypatch
    ):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "partial")
        job = sample_conditions_job(strongarm, rows=3)
        metrics = NgspiceBackend().evaluate(strongarm, job)
        reference = BatchedBackend().evaluate(strongarm, job)
        first = strongarm.metric_names[0]
        assert np.isnan(metrics[first][0])  # reported "failed"
        for name in strongarm.metric_names:
            assert np.isnan(metrics[name][2])  # whole row omitted
            np.testing.assert_allclose(  # intact cells still exact
                metrics[name][1], reference[name][1], rtol=1e-12, atol=0
            )

    def test_garbage_log_is_all_nan(self, strongarm, fake_ngspice, monkeypatch):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "garbage")
        job = sample_conditions_job(strongarm, rows=2)
        metrics = NgspiceBackend().evaluate(strongarm, job)
        assert all(
            np.isnan(metrics[name]).all() for name in strongarm.metric_names
        )

    def test_missing_executable_raises(self, strongarm, monkeypatch, tmp_path):
        monkeypatch.setenv(EXECUTABLE_ENV, str(tmp_path / "nope"))
        job = corner_rows_job(strongarm, rows=1)
        with pytest.raises(NgspiceError, match="not found"):
            NgspiceBackend().evaluate(strongarm, job)


class TestNgspiceComposition:
    def test_composes_with_cache(self, strongarm, fake_ngspice, service_factory):
        service = service_factory(strongarm, backend="ngspice", cache=True)
        job = sample_conditions_job(strongarm, rows=2)
        first = service.run(job)
        second = service.run(job)
        assert not first.cached and second.cached
        assert service.budget.total == 2  # the hit charged nothing
        assert service.cache.hits == 1
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(
                first.metrics[name], second.metrics[name]
            )

    def test_failure_nan_blocks_never_poison_the_cache(
        self, strongarm, fake_ngspice, service_factory, monkeypatch
    ):
        """A transient simulator failure (all-NaN degradation block) must
        not be memoized: once the simulator recovers, the same job gets a
        real evaluation instead of the cached failure forever."""
        service = service_factory(strongarm, backend="ngspice", cache=True)
        job = sample_conditions_job(strongarm, rows=2)
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "exit3")
        with pytest.warns(RuntimeWarning):
            failed = service.run(job)
        assert np.isnan(failed.metrics[strongarm.metric_names[0]]).all()
        assert len(service.cache) == 0  # the NaN block was not stored
        monkeypatch.delenv("FAKE_NGSPICE_MODE")
        recovered = service.run(job)  # simulator healthy again
        assert not recovered.cached
        for name in strongarm.metric_names:
            assert np.isfinite(recovered.metrics[name]).all()
        assert service.run(job).cached  # the real result is what memoizes

    def test_nonstrict_failure_refunds_budget(
        self, strongarm, fake_ngspice, service_factory, monkeypatch
    ):
        """Graceful (non-raising) simulator failure accounts like the
        strict/raise path: a run that produced no metrics — the all-NaN
        degradation block the cache already refuses to store — is not
        counted, so the retry charges exactly once."""
        service = service_factory(strongarm, backend="ngspice")
        job = sample_conditions_job(strongarm, rows=2)
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "exit3")
        with pytest.warns(RuntimeWarning):
            failed = service.run(job)
        assert np.isnan(failed.metrics[strongarm.metric_names[0]]).all()
        assert service.budget.total == 0  # the failure block was not charged
        monkeypatch.delenv("FAKE_NGSPICE_MODE")
        recovered = service.run(job)  # retry charges like a first attempt
        assert service.budget.total == 2
        for name in strongarm.metric_names:
            assert np.isfinite(recovered.metrics[name]).all()

    def test_all_failed_measures_is_a_result_not_a_failure(
        self, strongarm, fake_ngspice, service_factory, monkeypatch
    ):
        """The engine ran fine but every .measure reported ``failed`` (a
        design that simply doesn't switch): that is a genuine result —
        charged and cached — not the infrastructure-failure signature,
        which only FAILURE_NAN-tagged cells (never produced at all) carry."""
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "allfail")
        service = service_factory(strongarm, backend="ngspice", cache=True)
        job = sample_conditions_job(strongarm, rows=2)
        first = service.run(job)
        for name in strongarm.metric_names:
            assert np.isnan(first.metrics[name]).all()
        assert service.budget.total == 2  # the engine ran: charged
        assert service.run(job).cached  # and the result memoizes
        assert service.budget.total == 2  # the hit charged nothing

    def test_failed_measure_cells_are_still_cacheable(
        self, strongarm, fake_ngspice, service_factory, monkeypatch
    ):
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "failcell")
        service = service_factory(strongarm, backend="ngspice", cache=True)
        job = sample_conditions_job(strongarm, rows=3)
        first = service.run(job)
        assert np.isnan(first.metrics[strongarm.metric_names[0]][0])
        assert service.run(job).cached  # individual failed measures cache

    def test_fully_nan_rows_are_not_cached(
        self, strongarm, fake_ngspice, service_factory, monkeypatch
    ):
        """A row that produced no metrics at all (per-row flake / omitted
        from the log) must be re-simulated next time, not memoized."""
        monkeypatch.setenv("FAKE_NGSPICE_MODE", "partial")
        service = service_factory(strongarm, backend="ngspice", cache=True)
        job = sample_conditions_job(strongarm, rows=3)
        first = service.run(job)
        for name in strongarm.metric_names:
            assert np.isnan(first.metrics[name][2])  # whole row omitted
        assert len(service.cache) == 0
        monkeypatch.delenv("FAKE_NGSPICE_MODE")
        recovered = service.run(job)  # simulator healthy again
        assert not recovered.cached
        assert np.isfinite(recovered.metrics[strongarm.metric_names[0]][2])
        assert service.run(job).cached  # the full result is what memoizes

    def test_composes_with_sharding(
        self, strongarm, fake_ngspice, service_factory
    ):
        # workers=3 keeps this pool private to the ngspice tests: process
        # pools are cached per worker count and fork with a snapshot of the
        # environment, so reusing a pool created before the fake-simulator
        # fixture ran would resolve a stale executable path.
        service = service_factory(strongarm, backend="ngspice", workers=3)
        job = sample_conditions_job(strongarm, rows=9)
        sharded = service.run(job)
        reference = NgspiceBackend().evaluate(strongarm, job)
        assert service.budget.total == 9
        for name in strongarm.metric_names:
            np.testing.assert_array_equal(sharded.metrics[name], reference[name])


class TestNgspiceExperimentConfig:
    """Acceptance: backend="ngspice" drives a full tiny sizing loop."""

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

    def test_sizing_loop_matches_batched_trajectory(self, fake_ngspice):
        from repro.api import run_sizing

        ngspice_report = run_sizing(self.tiny_config("ngspice"))
        batched_report = run_sizing(self.tiny_config("batched"))
        ng, ba = ngspice_report.runs[0], batched_report.runs[0]
        # Bit-exact measure logs => identical optimization trajectory.
        assert ng.simulations == ba.simulations
        assert ng.success == ba.success
        assert ng.iterations == ba.iterations
        assert ng.final_design == pytest.approx(ba.final_design, rel=1e-12)
        json.loads(ngspice_report.to_json())  # still fully serializable

    def test_unknown_backend_rejected_by_config(self):
        from repro.api import ExperimentConfig

        with pytest.raises(ValueError, match="simulation backend"):
            ExperimentConfig(backend="hspice")

    def test_cli_dry_run_accepts_ngspice(self, fake_ngspice, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv(EXECUTABLE_ENV, fake_ngspice)
        assert (
            main(
                [
                    "--circuit",
                    "sal",
                    "--method",
                    "C",
                    "--backend",
                    "ngspice",
                    "--ngspice-executable",
                    fake_ngspice,
                    "--dry-run",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ngspice" in out
        assert os.environ[EXECUTABLE_ENV] == fake_ngspice


# ----------------------------------------------------------------------
# Opt-in smoke test against a real ngspice binary
# ----------------------------------------------------------------------
@pytest.mark.requires_ngspice
def test_real_ngspice_runs_single_row_deck(strongarm):
    """One real deck through a real binary: single-row decks are plain
    valid ngspice, and whatever measures it manages to evaluate parse into
    the full-shape tensor (unevaluated ones stay NaN)."""
    job = SimJob.conditions(
        strongarm.name,
        np.full(strongarm.dimension, 0.5),
        (typical_corner(),),
        None,
    )
    deck = compile_job_deck(job, strongarm)
    run = NgspiceRunner(executable="ngspice", timeout=60.0).run_deck(
        deck.text, tag="smoke"
    )
    assert run.returncode == 0, run.describe_failure()
    metrics = parse_measure_log(
        run.log_text + "\n" + run.stdout, job.batch, strongarm.metric_names
    )
    for name in strongarm.metric_names:
        assert metrics[name].shape == (1,)
