"""SimJob → ngspice-dialect netlist deck compiler and measure-log parser.

External SPICE engines consume text, not python objects, so the
external-simulator backend (:mod:`repro.simulation.ngspice`) lowers every
:class:`~repro.simulation.service.SimJob` into a *deck*: a self-contained
ngspice-dialect netlist that carries

* a **machine payload** — structured ``*:``-prefixed comment cards holding a
  full-precision image of the job (designs, corners, mismatch rows, phase),
  so the deck round-trips losslessly back into an equal ``SimJob``
  (:func:`parse_deck_job`).  The hermetic fake simulator used by the test
  suite reads exactly this section;
* a **testbench netlist** — the circuit's structural surrogate testbench
  (:meth:`repro.circuits.base.AnalogCircuit.build_testbench`) lowered from
  :mod:`repro.spice.netlist` elements to ngspice cards, with one ``.model``
  card per distinct device polarity/technology;
* **per-row sections** — ``.param``/``.alter``-style blocks, one per batch
  row, each with alphabetically sorted ``.param`` cards (physical design
  values, ``vdd_val``, ``temp_val``, process-shift params), the row's
  ``.model`` cards (corner vth/mobility shifts and element-static
  mismatch lowered through the analytic engine's ``effective_vth_mu``, and
  ``lambda`` scaled ``lambda_per_um / L_um`` exactly like the device model),
  a ``.temp`` card, the ``.op``/``.tran`` analyses and one ``.measure``
  card per metric (:meth:`repro.circuits.base.AnalogCircuit.measure_specs`),
  row-suffixed so measure names never collide.

With ``measurement="waveform"`` the per-metric ``.measure`` cards are
replaced wholesale by a ``.tran`` + ``.save`` pair (plus behavioural
B-sources for expression metrics): the engine writes a binary rawfile,
:mod:`repro.spice.rawfile` parses it, and all metric extraction happens
host-side in :mod:`repro.analysis.waveform` — the same vectorized code the
analytic engine uses.  Waveform decks are additionally *trimmed* to the
probed cone of influence (:mod:`repro.spice.trim`) before lowering.

Single-row decks are plain valid ngspice and can be batch-run directly
(``ngspice -b -o run.log deck.cir``); multi-row decks are consumed only by
*payload-aware* runners (the fake simulator, or a future ``.alter``-capable
dialect) that understand the row sections natively — a real ngspice binary
resolves the repeated per-row ``.param`` sections last-wins, which is why
:class:`repro.simulation.ngspice.NgspiceBackend` runs one single-row deck
per batch row unless told the engine is payload-aware.

Serialization is **normalized** — sorted params, fixed float formats
(:data:`PAYLOAD_FLOAT` for the payload, :data:`CARD_FLOAT` for cards) — so
golden-deck regressions diff readably and payload floats round-trip
bit-exactly (17 significant digits reproduce any IEEE double).

The reverse direction, :func:`parse_measure_log`, reassembles the
``{metric: (B,) array}`` tensor from ngspice measure output
(``name = value`` lines, case-insensitive); failed or missing measures
become NaN rows, which the reward pipeline already tolerates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.budget import SimulationPhase

# FAILURE_NAN and its mask live beside the failure accounting that reads
# them on every job; the deck side writes the tag and re-exports both.
from repro.simulation.service import FAILURE_NAN, SimJob, failure_nan_mask  # noqa: F401
from repro.spice.netlist import (
    VCCS,
    Capacitor,
    Circuit,
    CurrentSource,
    Element,
    GROUND,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.spice.trim import describe_trim, trim_circuit
from repro.variation.corners import ProcessCorner, PVTCorner, typical_corner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.waveform import WaveformSpec

#: Deck layout version, stamped into (and checked from) the payload.
#: Version 2 added the required corners=/mismatch= block-length counts to
#: the job line (so truncated payloads fail loudly instead of reparsing as
#: smaller/broadcast jobs); version-1 decks are rejected at the format gate.
FORMAT_VERSION = 2

#: Payload float format: 17 significant digits round-trip any IEEE double,
#: so ``parse_deck_job(compile_job_deck(job, c).text) == job`` holds exactly.
PAYLOAD_FLOAT = ".17e"

#: Card float format for the human-facing netlist / ``.param`` sections.
CARD_FLOAT = ".9e"

#: Prefix of the machine-payload comment cards.
PAYLOAD_PREFIX = "*:"

#: Transient analysis grid shared by every deck (step, stop) in seconds.
TRAN_STEP = 1e-11
TRAN_STOP = 5e-9


def payload_float(value: float) -> str:
    return format(float(value), PAYLOAD_FLOAT)


def card_float(value: float) -> str:
    return format(float(value), CARD_FLOAT)


# ----------------------------------------------------------------------
# Measure declarations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasureSpec:
    """How one circuit metric is measured in a SPICE deck.

    Attributes
    ----------
    metric:
        Metric name; must match a key of the circuit's constraints.
    analysis:
        Analysis keyword emitted verbatim into the ``.meas`` card; must be
        one ngspice accepts there (``"tran"``, ``"dc"``, ``"ac"`` — note
        ``.meas op`` is *not* valid ngspice; static operating-point
        quantities are measured as ``param='...'`` expressions or
        ``find ... at=`` clauses on the tran grid instead).
    expression:
        The measure-card body after the measure name (trig/targ spec, an
        ``avg``/``find`` clause, or a ``param='...'`` expression over the
        deck's ``.param`` cards).  Empty means a **placeholder**: no
        ``.meas`` card is emitted — only a comment naming the measure — so
        a real engine leaves the cell NaN (via :func:`parse_measure_log`)
        instead of reporting a fabricated number, and only payload-aware
        runners (e.g. the analytic fake) supply the real value.
    """

    metric: str
    analysis: str = "tran"
    expression: str = ""

    @property
    def is_placeholder(self) -> bool:
        return not self.expression

    def card(self, row: int) -> str:
        name = measure_name(self.metric, row)
        if self.is_placeholder:
            # A comment, deliberately NOT a .meas card: a real engine must
            # leave this cell NaN rather than evaluate a fake expression.
            return f"* placeholder measure {name} (payload-aware runners only)"
        return f".meas {self.analysis} {name} {self.expression}"


def measure_name(metric: str, row: int) -> str:
    """The row-suffixed measure identifier emitted into the deck."""
    return f"m_{metric.lower()}_r{row}"


#: ``name = value`` lines in ngspice batch output / measure logs.
_MEASURE_LINE = re.compile(
    r"^\s*(m_[a-z0-9_]+_r\d+)\s*=\s*([^\s,;]+)", re.IGNORECASE | re.MULTILINE
)

def parse_measure_log(
    text: str, rows: int, metric_names: Sequence[str]
) -> Dict[str, np.ndarray]:
    """Reassemble ``{metric: (B,) array}`` from a measure log.

    Every ``(metric, row)`` cell starts as :data:`FAILURE_NAN` ("the
    engine never produced this cell"); a parseable
    ``m_<metric>_r<row> = <float>`` line fills it in, and a reported-but-
    unparseable value (ngspice's literal ``failed``) becomes a plain NaN —
    a genuine result whose value is unknown.  Callers therefore get a
    full-shape tensor no matter how partially the simulator succeeded, and
    the service's failure accounting can tell absent cells from failed
    measures.
    """
    metrics = {name: np.full(int(rows), FAILURE_NAN) for name in metric_names}
    lookup = {
        measure_name(name, row): (name, row)
        for name in metric_names
        for row in range(int(rows))
    }
    for match in _MEASURE_LINE.finditer(text):
        target = lookup.get(match.group(1).lower())
        if target is None:
            continue
        name, row = target
        try:
            metrics[name][row] = float(match.group(2))
        except ValueError:
            # The engine *reported* this measure but could not evaluate it
            # ("failed"): a result with an unknown value, not an absent one.
            metrics[name][row] = np.nan
    return metrics


# ----------------------------------------------------------------------
# Element lowering
# ----------------------------------------------------------------------
def _card_name(prefix: str, name: str) -> str:
    """SPICE element names must begin with their type letter."""
    if name[:1].upper() == prefix:
        return name
    return prefix + name


class _ModelTable:
    """Deduplicates ``.model`` cards across the netlist's MOSFETs.

    The dedup key covers everything that shapes the emitted card: the
    technology parameter set, the device *length* (the card's ``lambda`` is
    the analytic engine's effective ``lambda_per_um / L_um``, so two
    lengths need two models) and any element-static ``vth_shift`` /
    ``beta_error``.  :meth:`cards` re-emits the table for a given
    :class:`PVTCorner` through the same
    :meth:`~repro.spice.mosfet.MosfetModel.effective_vth_mu` the analytic
    engine uses, which is how per-row sections redefine the models so real
    engines actually simulate SS/FF corners instead of all-TT.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Tuple[str, Mosfet]] = {}

    def name_for(self, mosfet: Mosfet) -> str:
        params = mosfet.model.parameters
        length_um = float(np.asarray(mosfet.model.length)) * 1e6
        key = (
            params.polarity,
            params.vth0,
            params.mu_cox,
            params.lambda_per_um,
            length_um,
            float(mosfet.vth_shift),
            float(mosfet.beta_error),
        )
        entry = self._entries.get(key)
        if entry is None:
            name = f"{params.polarity}_m{len(self._entries) + 1}"
            self._entries[key] = (name, mosfet)
            return name
        return entry[0]

    def cards(self, corner: Optional[PVTCorner] = None) -> List[str]:
        lines = []
        def model_order(entry: Tuple[str, Mosfet]) -> Tuple[str, int]:
            prefix, _, number = entry[0].rpartition("_m")
            return (prefix, int(number))

        for entry in sorted(self._entries.values(), key=model_order):
            name, mosfet = entry
            params = mosfet.model.parameters
            vth, mu_cox = mosfet.model.effective_vth_mu(
                corner, float(mosfet.vth_shift), float(mosfet.beta_error)
            )
            vth = float(vth)
            mu_cox = float(mu_cox)
            length_um = float(np.asarray(mosfet.model.length)) * 1e6
            lam = params.lambda_per_um / max(length_um, 1e-3)
            vto = -vth if params.polarity == "pmos" else vth
            lines.append(
                f".model {name} {params.polarity} (level=1 "
                f"vto={card_float(vto)} kp={card_float(mu_cox)} "
                f"lambda={card_float(lam)})"
            )
        return lines


def _element_card(element: Element, models: _ModelTable) -> str:
    if isinstance(element, Resistor):
        return (
            f"{_card_name('R', element.name)} {element.node_a} "
            f"{element.node_b} {card_float(element.resistance)}"
        )
    if isinstance(element, Capacitor):
        return (
            f"{_card_name('C', element.name)} {element.node_a} "
            f"{element.node_b} {card_float(element.capacitance)}"
        )
    if isinstance(element, VoltageSource):
        return (
            f"{_card_name('V', element.name)} {element.node_plus} "
            f"{element.node_minus} DC {card_float(element.voltage)}"
        )
    if isinstance(element, CurrentSource):
        # SPICE drives an I card's current from its first node, through
        # the source, into its second; the netlist's source pushes it into
        # ``node_plus``, so the nodes go in reverse.
        return (
            f"{_card_name('I', element.name)} {element.node_minus} "
            f"{element.node_plus} DC {card_float(element.current)}"
        )
    if isinstance(element, VCCS):
        return (
            f"{_card_name('G', element.name)} {element.node_plus} "
            f"{element.node_minus} {element.control_plus} "
            f"{element.control_minus} {card_float(element.gm)}"
        )
    if isinstance(element, Mosfet):
        model_name = models.name_for(element)
        # Body tied to source, as the device model assumes.
        return (
            f"{_card_name('M', element.name)} {element.drain} {element.gate} "
            f"{element.source} {element.source} {model_name} "
            f"W={card_float(float(np.asarray(element.model.width)))} "
            f"L={card_float(float(np.asarray(element.model.length)))}"
        )
    raise TypeError(f"cannot lower element {element!r} to an ngspice card")


def netlist_cards(circuit: Circuit) -> List[str]:
    """Lower a :class:`~repro.spice.netlist.Circuit` to ngspice cards.

    Elements keep their netlist insertion order (deterministic — the
    testbench builders are pure functions of the design vector); the
    deduplicated ``.model`` cards follow, sorted by model name.
    """
    models = _ModelTable()
    cards = [_element_card(element, models) for element in circuit.elements]
    return cards + models.cards()


# ----------------------------------------------------------------------
# Deck compilation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Deck:
    """One compiled deck: the text plus enough metadata to parse results."""

    circuit_name: str
    rows: int
    metric_names: Tuple[str, ...]
    text: str
    measurement: str = "measure"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.text)


def _payload_lines(
    job: "SimJob", metric_names: Sequence[str], measurement: str = "measure"
) -> List[str]:
    lines = [
        # corners=/mismatch= pin the block lengths explicitly: for
        # conditions jobs the corner block is legitimately either 1
        # (broadcast) or rows long and the mismatch block either absent or
        # rows long, so without declared counts a truncated per-row corner
        # block (or a wholly stripped mismatch block) would silently
        # re-parse as a broadcast / nominal job.
        f"{PAYLOAD_PREFIX}job circuit={job.circuit_name} axis={job.axis} "
        f"phase={job.phase.value} rows={job.batch} "
        f"corners={len(job.corners)} "
        f"mismatch={0 if job.mismatch is None else len(job.mismatch)} "
        f"format={FORMAT_VERSION}",
        f"{PAYLOAD_PREFIX}metrics " + " ".join(metric_names),
    ]
    if measurement != "measure":
        # Informational: parse_deck_job ignores unknown payload kinds, so
        # older parsers keep round-tripping waveform decks unchanged.
        lines.append(f"{PAYLOAD_PREFIX}measurement {measurement}")
    for index, design in enumerate(job.designs):
        values = " ".join(payload_float(value) for value in design)
        lines.append(f"{PAYLOAD_PREFIX}design {index} {values}")
    for index, corner in enumerate(job.corners):
        lines.append(
            f"{PAYLOAD_PREFIX}corner {index} {corner.process.value} "
            f"{payload_float(corner.vdd)} {payload_float(corner.temperature)}"
        )
    if job.mismatch is not None:
        for index, row in enumerate(job.mismatch):
            values = " ".join(payload_float(value) for value in row)
            lines.append(f"{PAYLOAD_PREFIX}mismatch {index} {values}")
    return lines


def _row_param_cards(
    parameter_names: Sequence[str],
    x_physical: np.ndarray,
    corner: PVTCorner,
) -> List[str]:
    params = {
        f"p_{name.lower()}": float(value)
        for name, value in zip(parameter_names, x_physical)
    }
    params["vdd_val"] = float(corner.vdd)
    params["temp_val"] = float(corner.temperature)
    params["proc_nvth"] = corner.process.nmos_vth_shift
    params["proc_pvth"] = corner.process.pmos_vth_shift
    params["proc_nmob"] = corner.process.nmos_mobility_scale
    params["proc_pmob"] = corner.process.pmos_mobility_scale
    return [
        f".param {name}={card_float(value)}"
        for name, value in sorted(params.items())
    ]


def _behavioral_node(spec: "WaveformSpec") -> str:
    signal = spec.signal.strip()
    if signal.lower().startswith("v(") and signal.endswith(")"):
        return signal[2:-1].strip()
    raise ValueError(
        f"waveform spec {spec.metric!r} carries an expression but probes "
        f"{signal!r}; expression metrics must probe a v(<node>) trace"
    )


def _waveform_cards(
    specs: Sequence["WaveformSpec"],
) -> Tuple[List[str], str]:
    """Behavioural-source cards plus the ``.save`` card for a spec set.

    Expression specs become ngspice B-sources pinning a synthetic node to
    a ``.param``-level expression, so parameter-derived metrics (noise and
    energy estimates) surface as ordinary rawfile traces on real engines.
    """
    sources = []
    probes: set = set()
    for spec in specs:
        probes.update(spec.probes)
        if spec.expression:
            node = _behavioral_node(spec)
            sources.append(f"B_{node} {node} 0 V='{spec.expression}'")
    return sources, ".save " + " ".join(sorted(probes))


def compile_job_deck(
    job: "SimJob",
    circuit,
    measurement: str = "measure",
    trim: Optional[bool] = None,
) -> Deck:
    """Lower one :class:`SimJob` into an ngspice deck for ``circuit``.

    ``circuit`` is the :class:`~repro.circuits.base.AnalogCircuit` the job
    targets; its :meth:`build_testbench` supplies the structural netlist.

    With ``measurement="measure"`` (the default) each row carries one
    ``.measure`` card per metric (:meth:`measure_specs`).  With
    ``measurement="waveform"`` no measure cards are emitted at all: the
    deck requests a transient rawfile, ``.save``s exactly the traces the
    circuit's :meth:`waveform_specs` probe (plus behavioural sources for
    expression metrics), and metric extraction happens host-side in
    :mod:`repro.analysis.waveform`.  Waveform decks are also *trimmed* by
    default (``trim=None``): the testbench is reduced to the probed cone
    of influence via :func:`repro.spice.trim.trim_circuit`, which is
    metric-preserving by construction.  Pass ``trim=False`` to keep the
    full netlist (e.g. for deck-size comparisons).
    """
    if job.circuit_name != circuit.name:
        raise ValueError(
            f"job targets circuit {job.circuit_name!r} but the deck compiler "
            f"was handed {circuit.name!r}"
        )
    if measurement not in ("measure", "waveform"):
        raise ValueError(
            f"unknown measurement mode {measurement!r} "
            "(expected 'measure' or 'waveform')"
        )
    if trim and measurement != "waveform":
        raise ValueError("deck trimming requires measurement='waveform'")
    from repro.simulation.service import DESIGN_AXIS

    metric_names = tuple(circuit.metric_names)
    waveform = measurement == "waveform"
    if waveform:
        wave_specs = tuple(circuit.waveform_specs())
        missing = set(metric_names) - {spec.metric for spec in wave_specs}
    else:
        specs = {spec.metric: spec for spec in circuit.measure_specs()}
        missing = set(metric_names) - set(specs)
    if missing:
        raise ValueError(
            f"circuit {circuit.name!r} declares no "
            f"{'waveform' if waveform else 'measure'} spec for: "
            f"{sorted(missing)}"
        )

    row_corners = job.row_corners
    designs = job.designs
    base_physical = circuit.denormalize(np.asarray(designs[0], dtype=float))
    testbench = circuit.build_testbench(base_physical, row_corners[0])
    testbench.validate()

    trim_note = None
    if waveform and (trim is None or trim):
        probe_list = [
            probe
            for spec in wave_specs
            if not spec.expression
            for probe in spec.probes
        ]
        trim_result = trim_circuit(testbench, probe_list)
        testbench = trim_result.circuit
        trim_note = describe_trim(trim_result)

    models = _ModelTable()
    element_cards = [_element_card(element, models) for element in testbench.elements]

    lines = [
        f"* repro ngspice deck (format {FORMAT_VERSION})",
        f"* circuit: {job.circuit_name} | axis: {job.axis} | rows: {job.batch}",
        f".title {job.circuit_name}",
        "* ---- job payload (machine-readable, full precision) ----",
    ]
    lines += _payload_lines(job, metric_names, measurement)
    lines.append("* ---- testbench netlist (row 0 geometry) ----")
    if trim_note is not None:
        lines.append(f"* trim: {trim_note}")
    lines += element_cards
    if waveform:
        source_cards, save_card = _waveform_cards(wave_specs)
        lines += source_cards
    else:
        needs_tran = any(
            specs[name].analysis == "tran" and not specs[name].is_placeholder
            for name in metric_names
        )
    for row in range(job.batch):
        if job.axis == DESIGN_AXIS:
            x_physical = circuit.denormalize(np.asarray(designs[row], dtype=float))
        else:
            x_physical = base_physical
        corner = row_corners[row]
        lines.append(f"* ---- row {row} ----")
        lines += _row_param_cards(circuit.parameter_names, x_physical, corner)
        # Corner/process shifts are lowered *into* the per-row model cards
        # (same effective_vth_mu math as the analytic engine), so a real
        # engine simulates the declared corner, not TT for every row.
        lines += models.cards(corner)
        lines.append(f".temp {card_float(corner.temperature)}")
        if waveform:
            lines.append(f".tran {card_float(TRAN_STEP)} {card_float(TRAN_STOP)}")
            lines.append(save_card)
        else:
            lines.append(".op")
            if needs_tran:
                lines.append(f".tran {card_float(TRAN_STEP)} {card_float(TRAN_STOP)}")
            for name in metric_names:
                lines.append(specs[name].card(row))
    lines.append(".end")
    return Deck(
        circuit_name=job.circuit_name,
        rows=job.batch,
        metric_names=metric_names,
        text="\n".join(lines) + "\n",
        measurement=measurement,
    )


def reference_job(circuit, rows: int = 2) -> "SimJob":
    """A deterministic small job for a circuit: the golden-deck reference.

    Two rows by default — the typical corner and a slow/cold/low-vdd SS
    corner — over an evenly spaced design vector and a seeded mismatch
    block.  Shared by the golden-deck regression suite and the
    ``repro deck`` CLI so both regenerate byte-identical decks.
    """
    rows = int(rows)
    if rows < 1:
        raise ValueError("reference_job needs at least one row")
    x = np.linspace(0.2, 0.8, circuit.dimension)
    base_corners = (
        typical_corner(),
        PVTCorner(ProcessCorner.SS, 0.8, -40.0),
    )
    corners = tuple(base_corners[index % 2] for index in range(rows))
    mismatch = np.random.default_rng(42).standard_normal(
        (rows, circuit.mismatch_dimension)
    )
    return SimJob.conditions(circuit.name, x, corners, mismatch)


# ----------------------------------------------------------------------
# Deck → SimJob (payload round trip)
# ----------------------------------------------------------------------
class DeckParseError(ValueError):
    """Raised when a deck's machine payload is absent or malformed."""


def _check_payload_shape(
    meta: Dict[str, str],
    designs: Dict[int, List[float]],
    corners: Dict[int, PVTCorner],
    mismatch: Dict[int, List[float]],
) -> None:
    """A truncated or tampered payload must raise, not silently rebuild a
    smaller job: the declared ``rows=`` count and the axis pin down exactly
    how many design/corner/mismatch lines (with contiguous indices) the
    payload must carry."""
    from repro.simulation.service import DESIGN_AXIS

    for label, block in (
        ("design", designs),
        ("corner", corners),
        ("mismatch", mismatch),
    ):
        if block and sorted(block) != list(range(len(block))):
            raise DeckParseError(
                f"deck payload {label} indices are not contiguous from 0 "
                f"(got {sorted(block)})"
            )
    try:
        rows = int(meta["rows"])
        declared_corners = int(meta["corners"])
        declared_mismatch = int(meta["mismatch"])
    except (KeyError, ValueError):
        raise DeckParseError(
            "deck payload declares no integer rows=/corners=/mismatch= "
            "counts"
        )
    for label, declared, count in (
        ("corners", declared_corners, len(corners)),
        ("mismatch", declared_mismatch, len(mismatch)),
    ):
        if count != declared:
            raise DeckParseError(
                f"deck payload declares {label}={declared} but carries "
                f"{count} {label} line(s); the deck is truncated or "
                f"tampered"
            )
    if meta.get("axis") == DESIGN_AXIS:
        expected = {"design": rows, "corner": 1, "mismatch": 0}
    elif mismatch:
        expected = {
            "design": 1,
            "corner": (1, rows),
            "mismatch": rows,
        }
    else:
        expected = {"design": 1, "corner": rows, "mismatch": 0}
    actual = {
        "design": len(designs),
        "corner": len(corners),
        "mismatch": len(mismatch),
    }
    for label, want in expected.items():
        allowed = want if isinstance(want, tuple) else (want,)
        if actual[label] not in allowed:
            raise DeckParseError(
                f"deck payload declares rows={rows} but carries "
                f"{actual[label]} {label} line(s) (expected "
                f"{' or '.join(str(w) for w in allowed)}); "
                f"the deck is truncated or tampered"
            )


def parse_deck_job(text: str) -> "SimJob":
    """Rebuild the :class:`SimJob` a deck was compiled from.

    Reads only the ``*:`` payload cards, so any surrounding netlist edits
    (or none at all) are irrelevant; the reconstructed job is *equal* to the
    original — same content hash, same phase — because the payload stores
    every float at full precision.
    """
    meta: Dict[str, str] = {}
    designs: Dict[int, List[float]] = {}
    corners: Dict[int, PVTCorner] = {}
    mismatch: Dict[int, List[float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith(PAYLOAD_PREFIX):
            continue
        body = line[len(PAYLOAD_PREFIX):].strip()
        kind, _, rest = body.partition(" ")
        if kind == "job":
            for pair in rest.split():
                key, _, value = pair.partition("=")
                meta[key] = value
        elif kind == "design":
            index, _, values = rest.partition(" ")
            designs[int(index)] = [float(v) for v in values.split()]
        elif kind == "corner":
            index, _, values = rest.partition(" ")
            process, vdd, temperature = values.split()
            corners[int(index)] = PVTCorner(
                ProcessCorner(process), float(vdd), float(temperature)
            )
        elif kind == "mismatch":
            index, _, values = rest.partition(" ")
            mismatch[int(index)] = [float(v) for v in values.split()]
    if not meta or not designs or not corners:
        raise DeckParseError("deck carries no (complete) repro job payload")
    declared = int(meta.get("format", "-1"))
    if declared != FORMAT_VERSION:
        raise DeckParseError(
            f"deck payload format {declared} unsupported "
            f"(this parser reads format {FORMAT_VERSION})"
        )
    _check_payload_shape(meta, designs, corners, mismatch)
    design_block = np.array(
        [designs[index] for index in sorted(designs)], dtype=float
    )
    corner_block = tuple(corners[index] for index in sorted(corners))
    mismatch_block: Optional[np.ndarray] = None
    if mismatch:
        mismatch_block = np.array(
            [mismatch[index] for index in sorted(mismatch)], dtype=float
        )
    return SimJob(
        circuit_name=meta["circuit"],
        designs=design_block,
        corners=corner_block,
        mismatch=mismatch_block,
        phase=SimulationPhase(meta.get("phase", "optimization")),
        axis=meta.get("axis", "conditions"),
    )
