"""Perf benchmark: the waveform measurement pipeline.

Three properties are measured and recorded to
``benchmarks/results/BENCH_waveform_pipeline.json``:

1. **Netlist trim ratio** — the 16-stage isolated ``cs_ladder`` (the
   sense-amp-array shape) trimmed to the cone of influence of one probed
   column output.  Recorded: element and deck-byte reduction.  The
   acceptance floor is a 40% element reduction; the cone walk actually
   removes >90% because stages only interact through ideally pinned rails.
   Metric preservation is asserted (probed DC voltage agrees with the full
   netlist) before anything is timed.

2. **Simulation-time reduction** — wall clock of the test tree's reference
   DC solve (``tests/spice_reference.py``) on the trimmed versus the
   untrimmed netlist, the same work a real engine saves per waveform run.

3. **Rawfile parse throughput** — MB/s of
   :func:`repro.spice.rawfile.parse_rawfile` on a realistic multi-trace
   binary rawfile (the vectorized ``frombuffer`` path, no per-point loop).

Numbers track trends across PRs rather than absolute performance.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np
import pytest

from harness import write_bench_json
from repro.spice.rawfile import parse_rawfile, render_rawfile
from repro.spice.trim import trim_circuit

# The netlists and the DC solve live with the tests; make them importable
# when this file runs on its own.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from spice_reference import common_source_ladder, solve_dc  # noqa: E402

pytestmark = pytest.mark.perf

STAGES = 16
FILTER_NODES = 4
PROBE = f"v(f{STAGES - 1}_{FILTER_NODES - 1})"
SOLVE_REPEATS = 20
PARSE_POINTS = 20_000
PARSE_TRACES = 16
PARSE_REPEATS = 10


def _deck_bytes(circuit) -> int:
    from repro.spice.deck import netlist_cards

    return len("\n".join(netlist_cards(circuit)).encode("utf-8"))


def _time_solves(circuit, repeats: int) -> float:
    solve_dc(circuit)  # warm-up (stamp allocation, Newton bring-up)
    start = time.perf_counter()
    for _ in range(repeats):
        solve_dc(circuit)
    return (time.perf_counter() - start) / repeats


def _trim_block() -> dict:
    ladder = common_source_ladder(STAGES, FILTER_NODES, coupling="isolated")
    result = trim_circuit(ladder, [PROBE])
    assert result.trimmed, "benchmark netlist must actually trim"
    assert result.element_reduction >= 0.40, result.element_reduction

    probe_node = PROBE[2:-1]
    full_v = solve_dc(ladder)[probe_node]
    trim_v = solve_dc(result.circuit)[probe_node]
    assert trim_v == pytest.approx(full_v, rel=1e-12)

    full_seconds = _time_solves(ladder, SOLVE_REPEATS)
    trim_seconds = _time_solves(result.circuit, SOLVE_REPEATS)
    return {
        "circuit": ladder.name,
        "probe": PROBE,
        "elements_total": len(result.kept) + len(result.dropped),
        "elements_kept": len(result.kept),
        "element_reduction": result.element_reduction,
        "deck_bytes_full": _deck_bytes(ladder),
        "deck_bytes_trimmed": _deck_bytes(result.circuit),
        "solve_full_seconds": full_seconds,
        "solve_trimmed_seconds": trim_seconds,
        "speedup": full_seconds / trim_seconds,
    }


def _parse_block() -> dict:
    rng = np.random.default_rng(0)
    times = np.cumsum(rng.uniform(1e-12, 1e-11, PARSE_POINTS))
    traces = rng.standard_normal((PARSE_TRACES, PARSE_POINTS))
    variables = [("time", "time")] + [
        (f"v(n{i})", "voltage") for i in range(PARSE_TRACES)
    ]
    blob = render_rawfile("bench", variables, np.vstack([times, traces]))

    parse_rawfile(blob)  # warm-up
    start = time.perf_counter()
    for _ in range(PARSE_REPEATS):
        raw = parse_rawfile(blob)
    elapsed = (time.perf_counter() - start) / PARSE_REPEATS
    assert raw.n_points == PARSE_POINTS
    return {
        "rawfile_bytes": len(blob),
        "n_points": PARSE_POINTS,
        "n_traces": PARSE_TRACES,
        "parse_seconds": elapsed,
        "throughput_mb_per_second": len(blob) / elapsed / 1e6,
    }


def test_waveform_pipeline_perf():
    trim = _trim_block()
    parse = _parse_block()
    print(
        f"\ntrim: kept {trim['elements_kept']}/{trim['elements_total']} "
        f"elements ({100 * trim['element_reduction']:.1f}% removed), "
        f"solve speedup {trim['speedup']:.1f}x; "
        f"rawfile parse {parse['throughput_mb_per_second']:.0f} MB/s"
    )
    write_bench_json(
        "waveform_pipeline",
        {
            "description": (
                "Waveform measurement pipeline: cone-of-influence netlist "
                "trimming on the 16-stage isolated cs_ladder with one probed "
                "column output (element/deck reduction plus analytic solve "
                "speedup, probed voltage asserted identical first), and "
                "binary rawfile parse throughput."
            ),
            "trim": trim,
            "rawfile_parse": parse,
        },
    )
