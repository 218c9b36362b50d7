#!/usr/bin/env python3
"""Hermetic ngspice test double.

A drop-in stand-in for ``ngspice -b -o run.log deck.cir`` that needs no
SPICE engine: it parses the machine payload the deck compiler embeds in
every deck (:func:`repro.spice.deck.parse_deck_job`), reconstructs the
original :class:`SimJob`, evaluates it with the **analytic engine**
(:class:`repro.simulation.service.BatchedBackend`) and answers with an
ngspice-style measure log (``m_<metric>_r<row> = <value>`` lines).  Because
the payload stores every float at 17 significant digits, the round trip is
bit-exact: metrics reported through the fake agree with a direct
``BatchedBackend`` evaluation to within :data:`TOLERANCE`.

The ``conftest.py`` fixture ``fake_ngspice`` installs this module as an
executable launcher and points ``$REPRO_NGSPICE`` at it, so the full
``NgspiceBackend`` pipeline — deck compile, subprocess, measure-log parse —
runs end-to-end in CI with no ngspice installed.

Failure injection (for the backend's error-path tests):

``FAKE_NGSPICE_MODE``
    ``ok`` (default) — normal measure log;
    ``exit3`` — exit with status 3 and no log;
    ``hang`` — sleep forever (exercises the runner timeout);
    ``garbage`` — exit 0 with a log containing no measures;
    ``failcell`` — report ``failed`` for the first measure of row 0 only
    (a partial *row*: still a cacheable result);
    ``allfail`` — report ``failed`` for every measure (the engine ran
    fine, the design just doesn't measure: a genuine, chargeable result);
    ``partial`` — ``failcell`` plus the last row omitted entirely (a
    fully-NaN row: exercises NaN cell reassembly and the cache's refusal
    to memoize rows that produced no metrics).
``FAKE_NGSPICE_FAIL_ONCE``
    Path to a marker file: if it exists, consume (delete) it and exit 3;
    subsequent runs succeed.  With sharded workers this makes exactly one
    worker fail mid-shard while its siblings succeed; with the backend's
    per-row fallback it makes exactly one row degrade to NaN.
"""

from __future__ import annotations

import os
import sys
import time

#: Declared agreement between the fake's measure log and a direct
#: BatchedBackend evaluation.  Values are printed at 17 significant
#: digits (exact for IEEE doubles); the bound is slack for safety.
TOLERANCE = 1e-12


def _render_log(job, circuit, metrics, mode: str) -> str:
    from repro.spice.deck import measure_name

    lines = [
        "Note: fake ngspice (repro hermetic test double)",
        f"Circuit: {job.circuit_name}",
        "  Measurements:",
    ]
    for row in range(job.batch):
        if mode == "partial" and row == job.batch - 1:
            continue  # the whole last row goes missing
        for index, name in enumerate(circuit.metric_names):
            label = measure_name(name, row)
            if mode == "allfail" or (
                mode in ("partial", "failcell") and row == 0 and index == 0
            ):
                lines.append(f"{label} = failed")
                continue
            lines.append(f"{label} = {float(metrics[name][row]):.17e}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    mode = os.environ.get("FAKE_NGSPICE_MODE", "ok")
    fail_once = os.environ.get("FAKE_NGSPICE_FAIL_ONCE", "")

    # The ngspice batch CLI subset the runner uses:
    # [-b] [-r rawfile] [-o logfile] deck.  A -r request is the waveform-
    # mode signal: answer with a binary rawfile instead of a measure log.
    log_path = None
    raw_path = None
    deck_path = None
    index = 0
    while index < len(argv):
        argument = argv[index]
        if argument == "-o" and index + 1 < len(argv):
            log_path = argv[index + 1]
            index += 2
            continue
        if argument == "-r" and index + 1 < len(argv):
            raw_path = argv[index + 1]
            index += 2
            continue
        if not argument.startswith("-"):
            deck_path = argument
        index += 1
    if deck_path is None:
        sys.stderr.write("fake-ngspice: no deck file on the command line\n")
        return 2

    if fail_once and os.path.exists(fail_once):
        consumed = True
        try:
            os.unlink(fail_once)
        except OSError:
            consumed = False  # a sibling shard consumed it first
        if consumed:
            sys.stderr.write("fake-ngspice: injected one-shot failure\n")
            return 3
    if mode == "exit3":
        sys.stderr.write("fake-ngspice: injected failure (exit3 mode)\n")
        return 3
    if mode == "hang":
        time.sleep(600.0)
        return 0

    with open(deck_path, "r", encoding="utf-8") as handle:
        deck_text = handle.read()

    if raw_path is not None:
        return _run_waveform(deck_text, raw_path, log_path, mode)

    if mode == "garbage":
        output = "fake-ngspice: no measures in this log\n"
    else:
        from repro.circuits.registry import get_circuit
        from repro.simulation.service import BatchedBackend
        from repro.spice.deck import parse_deck_job

        job = parse_deck_job(deck_text)
        circuit = get_circuit(job.circuit_name)
        metrics = BatchedBackend().evaluate(circuit, job)
        output = _render_log(job, circuit, metrics, mode)

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 0


def _run_waveform(deck_text: str, raw_path: str, log_path, mode: str) -> int:
    """Waveform mode: answer with a real binary rawfile.

    The metric values still come from the analytic engine via the deck
    payload; :func:`repro.analysis.waveform.synthesize_canonical` renders
    them into traces whose extraction is bit-exact, and
    :func:`repro.spice.rawfile.render_rawfile` writes the same binary
    format a real ngspice would — so the backend's parse-and-extract path
    runs for real.  Mode mapping: ``garbage`` writes unparseable rawfile
    bytes, ``partial`` writes no rawfile at all (a FAILURE_NAN row),
    ``failcell`` NaNs the first metric, ``allfail`` NaNs every metric.
    """
    note = "Note: fake ngspice (repro hermetic test double, waveform mode)\n"
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as handle:
            handle.write(note)

    if mode == "garbage":
        with open(raw_path, "wb") as handle:
            handle.write(b"this is not a rawfile\n")
        return 0
    if mode == "partial":
        return 0  # engine "succeeds" but never writes the rawfile

    import numpy as np

    from repro.analysis.waveform import synthesize_canonical
    from repro.circuits.registry import get_circuit
    from repro.simulation.service import BatchedBackend
    from repro.spice.deck import parse_deck_job
    from repro.spice.rawfile import render_rawfile

    job = parse_deck_job(deck_text)
    if job.batch != 1:
        sys.stderr.write(
            "fake-ngspice: waveform decks must be single-row "
            f"(got {job.batch} rows)\n"
        )
        return 2
    circuit = get_circuit(job.circuit_name)
    metrics = BatchedBackend().evaluate(circuit, job)
    values = {
        name: float(metrics[name][0]) for name in circuit.metric_names
    }
    names = list(circuit.metric_names)
    if mode == "allfail":
        for name in names:
            values[name] = float("nan")
    elif mode == "failcell" and names:
        values[names[0]] = float("nan")

    vdd = float(job.row_corners[0].vdd)
    times, traces = synthesize_canonical(
        circuit.waveform_specs(), values, vdd
    )
    variables = [("time", "time")]
    rows = [times]
    for name in sorted(traces):
        var_type = "current" if name.startswith("i(") else "voltage"
        variables.append((name, var_type))
        rows.append(traces[name])
    data = np.vstack(rows)
    with open(raw_path, "wb") as handle:
        handle.write(render_rawfile(job.circuit_name, variables, data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
