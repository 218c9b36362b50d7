"""StrongARM latch (SAL) testbench.

The StrongARM latch [Razavi, SSC Magazine 2015] is a fully dynamic
comparator: an input differential pair integrates onto the output nodes
during the clock-low-to-high transition, after which a cross-coupled latch
regenerates the decision, and precharge devices reset the outputs when the
clock falls.  It is highly sensitive to PVT variation because every phase is
ratioless and every device contributes offset and noise.

Sizing vector (14 parameters, matching the paper):

====  =======================  =====================  ==========
idx   parameter                range                  scale
====  =======================  =====================  ==========
0-5   transistor widths        0.28 um .. 32.8 um     log
6-11  transistor lengths       0.03 um .. 0.33 um     linear
12    output load capacitor    5 fF .. 5.5 pF         log
13    offset-storage capacitor 5 fF .. 5.5 pF         log
====  =======================  =====================  ==========

Performance metrics and targets (Section VI.A):

* ``power``       <= 40 uW
* ``set_delay``   <= 4 ns
* ``reset_delay`` <= 4 ns
* ``noise``       <= 120 uV   (input-referred rms error: thermal noise plus
  residual offset after offset storage on the calibration capacitor)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

import numpy as np

from repro.circuits.base import AnalogCircuit, SizingParameter, cap_mismatch_factor
from repro.circuits.registry import register_circuit
from repro.spice.mosfet import BOLTZMANN, MosfetModel, nmos_28nm, pmos_28nm
from repro.variation.corners import PVTCorner
from repro.variation.distributions import DeviceKind, DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - the netlist loads on use
    from repro.spice.netlist import Circuit

#: Comparator clock frequency assumed for dynamic power (Hz).
CLOCK_FREQUENCY = 250e6

#: Minimum resolvable input used for the regeneration-time logarithm (V).
MIN_RESOLVABLE_INPUT = 1e-3

#: Parasitic capacitance at the offset-storage summing node (F).
OFFSET_NODE_PARASITIC = 3e-15

#: Fraction of the offset-storage capacitor switched every conversion.
OFFSET_CAP_ACTIVITY = 0.02

_MICRON = 1e-6
_WIDTH_RANGE = (0.28 * _MICRON, 32.8 * _MICRON)
_LENGTH_RANGE = (0.03 * _MICRON, 0.33 * _MICRON)
_CAP_RANGE = (0.005e-12, 5.5e-12)


@register_circuit(aliases=("sal",))
class StrongArmLatch(AnalogCircuit):
    """Behavioural performance model of the StrongARM latch testcase."""

    name = "strongarm_latch"

    # Parameter indices, for readability.
    W_INPUT, W_LATCH_N, W_LATCH_P, W_TAIL, W_PRECHARGE, W_RESET = range(6)
    L_INPUT, L_LATCH_N, L_LATCH_P, L_TAIL, L_PRECHARGE, L_RESET = range(6, 12)
    C_LOAD, C_OFFSET = 12, 13

    def _build_parameters(self) -> Sequence[SizingParameter]:
        widths = [
            SizingParameter(f"W_{name}", *_WIDTH_RANGE, unit="m", log_scale=True)
            for name in ("input", "latch_n", "latch_p", "tail", "precharge", "reset")
        ]
        lengths = [
            SizingParameter(f"L_{name}", *_LENGTH_RANGE, unit="m")
            for name in ("input", "latch_n", "latch_p", "tail", "precharge", "reset")
        ]
        caps = [
            SizingParameter("C_load", *_CAP_RANGE, unit="F", log_scale=True),
            SizingParameter("C_offset", *_CAP_RANGE, unit="F", log_scale=True),
        ]
        return widths + lengths + caps

    def _build_constraints(self) -> Dict[str, float]:
        return {
            "power": 40e-6,
            "set_delay": 4e-9,
            "reset_delay": 4e-9,
            "noise": 120e-6,
        }

    def _build_devices(self) -> Sequence[DeviceSpec]:
        def mos(name: str, w_index: int, l_index: int, kind: DeviceKind, mult: int = 1):
            return DeviceSpec(
                name=name,
                kind=kind,
                width_of=lambda x, i=w_index: x[i] * 1e6,
                length_of=lambda x, i=l_index: x[i] * 1e6,
                multiplicity=mult,
            )

        # Matched pairs are modelled as two explicit devices (``_a``/``_b``)
        # so that die-level (global) shifts cancel in pair differences, just
        # as they do on silicon; only local mismatch produces offset.
        return [
            mos("M_input_a", self.W_INPUT, self.L_INPUT, DeviceKind.NMOS),
            mos("M_input_b", self.W_INPUT, self.L_INPUT, DeviceKind.NMOS),
            mos("M_latch_n_a", self.W_LATCH_N, self.L_LATCH_N, DeviceKind.NMOS),
            mos("M_latch_n_b", self.W_LATCH_N, self.L_LATCH_N, DeviceKind.NMOS),
            mos("M_latch_p_a", self.W_LATCH_P, self.L_LATCH_P, DeviceKind.PMOS),
            mos("M_latch_p_b", self.W_LATCH_P, self.L_LATCH_P, DeviceKind.PMOS),
            mos("M_tail", self.W_TAIL, self.L_TAIL, DeviceKind.NMOS),
            mos("M_precharge", self.W_PRECHARGE, self.L_PRECHARGE, DeviceKind.PMOS, mult=2),
            mos("M_reset", self.W_RESET, self.L_RESET, DeviceKind.PMOS, mult=2),
            DeviceSpec(
                name="C_load",
                kind=DeviceKind.CAPACITOR,
                cap_of=lambda x: x[self.C_LOAD],
            ),
            DeviceSpec(
                name="C_offset",
                kind=DeviceKind.CAPACITOR,
                cap_of=lambda x: x[self.C_OFFSET],
            ),
        ]

    # ------------------------------------------------------------------
    # External-simulator declarations (see repro.spice.deck)
    # ------------------------------------------------------------------
    def measure_specs(self):
        from repro.spice.deck import MeasureSpec

        return (
            MeasureSpec("power", "tran", "avg par('-i(vvdd)*v(vdd)')"),
            MeasureSpec(
                "set_delay",
                "tran",
                "trig v(clk) val='0.5*vdd_val' rise=1 "
                "targ v(outp) val='0.5*vdd_val' rise=1",
            ),
            MeasureSpec(
                "reset_delay",
                "tran",
                "trig v(clk) val='0.5*vdd_val' fall=1 "
                "targ v(outp) val='0.9*vdd_val' rise=1",
            ),
            # First-order kT/C estimate over deck params; the calibrated
            # value comes from the analytic engine (fake-simulator path).
            MeasureSpec(
                "noise",
                "tran",
                "param='sqrt(2.0*1.380649e-23*(temp_val+273.15)/p_c_load)'",
            ),
        )

    def waveform_specs(self):
        from repro.analysis.waveform import WaveformSpec

        return (
            # Supply current x supply voltage, averaged over the record.
            WaveformSpec(
                "power", recipe="power_average", signal="i(vvdd)", aux="v(vdd)"
            ),
            # The clock edge sits at the transient origin, so the output
            # crossing's absolute time *is* the regeneration delay.
            WaveformSpec(
                "set_delay",
                recipe="crossing",
                signal="v(outp)",
                vdd_scale=0.5,
                rising=True,
            ),
            WaveformSpec(
                "reset_delay",
                recipe="crossing",
                signal="v(outn)",
                vdd_scale=0.5,
                rising=False,
            ),
            # kT/C estimate as a behavioural trace over the deck params.
            WaveformSpec(
                "noise",
                recipe="final",
                signal="v(m_noise)",
                expression=(
                    "sqrt(2.0*1.380649e-23*(temp_val+273.15)/p_c_load)"
                ),
            ),
        )

    def build_testbench(self, x: np.ndarray, corner: PVTCorner) -> Circuit:
        """Structural SAL testbench: clocked tail, input pair, cross-coupled
        latch, precharge/reset devices and the offset-storage network."""
        from repro.spice.netlist import (
            Capacitor,
            Circuit,
            GROUND,
            Mosfet,
            Resistor,
            VoltageSource,
        )

        vdd = float(corner.vdd)
        nmos = lambda w, l: MosfetModel(x[w], x[l], nmos_28nm())
        pmos = lambda w, l: MosfetModel(x[w], x[l], pmos_28nm())
        bench = Circuit(self.name)
        bench.add(VoltageSource("VVDD", "vdd", GROUND, vdd))
        bench.add(VoltageSource("VCLK", "clk", GROUND, vdd))
        bench.add(VoltageSource("VINP", "inp", GROUND, 0.55 * vdd))
        bench.add(VoltageSource("VINN", "inn", GROUND, 0.55 * vdd))
        bench.add(Mosfet("M_tail", "tail", "clk", GROUND, nmos(self.W_TAIL, self.L_TAIL)))
        m_input = nmos(self.W_INPUT, self.L_INPUT)
        bench.add(Mosfet("M_input_a", "outn", "inp", "tail", m_input))
        bench.add(Mosfet("M_input_b", "outp", "inn", "tail", m_input))
        m_latch_n = nmos(self.W_LATCH_N, self.L_LATCH_N)
        bench.add(Mosfet("M_latch_n_a", "outp", "outn", "tail", m_latch_n))
        bench.add(Mosfet("M_latch_n_b", "outn", "outp", "tail", m_latch_n))
        m_latch_p = pmos(self.W_LATCH_P, self.L_LATCH_P)
        bench.add(Mosfet("M_latch_p_a", "outp", "outn", "vdd", m_latch_p))
        bench.add(Mosfet("M_latch_p_b", "outn", "outp", "vdd", m_latch_p))
        m_precharge = pmos(self.W_PRECHARGE, self.L_PRECHARGE)
        bench.add(Mosfet("M_precharge_a", "outp", "clk", "vdd", m_precharge))
        bench.add(Mosfet("M_precharge_b", "outn", "clk", "vdd", m_precharge))
        m_reset = pmos(self.W_RESET, self.L_RESET)
        bench.add(Mosfet("M_reset_a", "outp", "clk", "vdd", m_reset))
        bench.add(Mosfet("M_reset_b", "outn", "clk", "vdd", m_reset))
        bench.add(Capacitor("C_load_p", "outp", GROUND, x[self.C_LOAD]))
        bench.add(Capacitor("C_load_n", "outn", GROUND, x[self.C_LOAD]))
        bench.add(Resistor("R_offset", "inp", "osn", 1e3))
        bench.add(Capacitor("C_offset", "osn", GROUND, x[self.C_OFFSET]))
        return bench

    # ------------------------------------------------------------------
    def _evaluate_physical_batch(
        self,
        x: np.ndarray,
        corner: PVTCorner,
        mismatch: Dict[str, Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Vectorized performance model: mismatch entries are (B,) arrays and
        ``corner`` may be array-valued; everything below is ufunc arithmetic,
        so one call evaluates the whole Monte-Carlo/corner batch."""
        vdd = corner.vdd
        temperature_k = corner.temperature_kelvin

        m_input = MosfetModel(x[self.W_INPUT], x[self.L_INPUT], nmos_28nm())
        m_latch_n = MosfetModel(x[self.W_LATCH_N], x[self.L_LATCH_N], nmos_28nm())
        m_latch_p = MosfetModel(x[self.W_LATCH_P], x[self.L_LATCH_P], pmos_28nm())
        m_tail = MosfetModel(x[self.W_TAIL], x[self.L_TAIL], nmos_28nm())
        m_precharge = MosfetModel(x[self.W_PRECHARGE], x[self.L_PRECHARGE], pmos_28nm())
        m_reset = MosfetModel(x[self.W_RESET], x[self.L_RESET], pmos_28nm())

        mm = lambda dev, key: mismatch.get(dev, {}).get(key, 0.0)
        cap_load = x[self.C_LOAD] * cap_mismatch_factor(mm("C_load", "cap"))
        cap_offset = x[self.C_OFFSET] * cap_mismatch_factor(mm("C_offset", "cap"))

        # --- capacitive load at each output node -----------------------
        c_output = (
            cap_load
            + m_latch_n.drain_capacitance()
            + m_latch_p.drain_capacitance()
            + m_latch_n.gate_capacitance()
            + m_latch_p.gate_capacitance()
            + m_input.drain_capacitance()
            + m_precharge.drain_capacitance()
        )

        # Average pair shifts drive the bias-dependent quantities; the
        # *difference* within each pair produces offset (computed below).
        input_vth_avg = 0.5 * (mm("M_input_a", "vth") + mm("M_input_b", "vth"))
        input_beta_avg = 0.5 * (mm("M_input_a", "beta") + mm("M_input_b", "beta"))
        latch_n_vth_avg = 0.5 * (mm("M_latch_n_a", "vth") + mm("M_latch_n_b", "vth"))
        latch_n_beta_avg = 0.5 * (mm("M_latch_n_a", "beta") + mm("M_latch_n_b", "beta"))
        latch_p_vth_avg = 0.5 * (mm("M_latch_p_a", "vth") + mm("M_latch_p_b", "vth"))
        latch_p_beta_avg = 0.5 * (mm("M_latch_p_a", "beta") + mm("M_latch_p_b", "beta"))

        # --- tail current and input-pair transconductance --------------
        tail_current = m_tail.batch_drain_current(
            vgs=vdd,
            vds=0.2 * vdd,
            corner=corner,
            vth_shift=mm("M_tail", "vth"),
            beta_error=mm("M_tail", "beta"),
        )
        tail_current = np.maximum(tail_current, 1e-9)
        input_op = m_input.batch_operating_point(
            vgs=0.55 * vdd,
            vds=0.5 * vdd,
            corner=corner,
            vth_shift=input_vth_avg,
            beta_error=input_beta_avg,
        )
        gm_input = np.maximum(input_op.gm, 1e-9)

        # --- set delay: integration + regeneration ----------------------
        latch_p_vth, _ = m_latch_p.effective_vth_mu(
            corner, latch_p_vth_avg, latch_p_beta_avg
        )
        vth_p = np.abs(latch_p_vth)
        integration_time = c_output * vth_p / (0.5 * tail_current)

        gm_latch = m_latch_n.batch_operating_point(
            vgs=0.55 * vdd,
            vds=0.5 * vdd,
            corner=corner,
            vth_shift=latch_n_vth_avg,
            beta_error=latch_n_beta_avg,
        ).gm + m_latch_p.batch_operating_point(
            vgs=0.55 * vdd,
            vds=0.5 * vdd,
            corner=corner,
            vth_shift=latch_p_vth_avg,
            beta_error=latch_p_beta_avg,
        ).gm
        gm_latch = np.maximum(gm_latch, 1e-9)
        regeneration_tau = c_output / gm_latch
        regeneration_time = regeneration_tau * np.log(
            np.maximum(vdd / MIN_RESOLVABLE_INPUT, 2.0)
        )
        set_delay = integration_time + regeneration_time

        # --- reset delay: precharge both outputs back to VDD ------------
        precharge_current = m_precharge.batch_drain_current(
            vgs=vdd,
            vds=0.5 * vdd,
            corner=corner,
            vth_shift=mm("M_precharge", "vth"),
            beta_error=mm("M_precharge", "beta"),
        )
        reset_assist = m_reset.batch_drain_current(
            vgs=vdd,
            vds=0.5 * vdd,
            corner=corner,
            vth_shift=mm("M_reset", "vth"),
            beta_error=mm("M_reset", "beta"),
        )
        reset_current = np.maximum(precharge_current + 0.5 * reset_assist, 1e-9)
        reset_delay = 3.0 * c_output * vdd / reset_current

        # --- power -------------------------------------------------------
        clock_load = (
            m_tail.gate_capacitance()
            + 2.0 * m_precharge.gate_capacitance()
            + 2.0 * m_reset.gate_capacitance()
        )
        dynamic_energy = (
            2.0 * c_output * vdd**2
            + clock_load * vdd**2
            + OFFSET_CAP_ACTIVITY * cap_offset * vdd**2
        )
        leakage = 2.0 * m_latch_n.batch_drain_current(
            vgs=0.0, vds=vdd, corner=corner, vth_shift=latch_n_vth_avg
        )
        power = dynamic_energy * CLOCK_FREQUENCY + leakage * vdd

        # --- input-referred noise (thermal + residual offset) ------------
        # Offset comes from the *differences* within matched pairs, so the
        # die-level component of the mismatch samples cancels here; only
        # within-die (Pelgrom) mismatch survives.
        integration_gain = np.maximum(gm_input * integration_time / c_output, 1.0)
        thermal_noise = (
            np.sqrt(2.0 * BOLTZMANN * temperature_k / c_output) / integration_gain
        )
        input_pair_offset = np.abs(mm("M_input_a", "vth") - mm("M_input_b", "vth"))
        latch_offset = np.abs(
            mm("M_latch_n_a", "vth") - mm("M_latch_n_b", "vth")
        ) + 0.6 * np.abs(mm("M_latch_p_a", "vth") - mm("M_latch_p_b", "vth"))
        beta_offset = (
            0.3
            * np.abs(mm("M_input_a", "beta") - mm("M_input_b", "beta"))
            * np.maximum(input_op.vov, 0.05)
        )
        raw_offset = (
            input_pair_offset + latch_offset / integration_gain + beta_offset
        )
        offset_attenuation = OFFSET_NODE_PARASITIC / (
            cap_offset + OFFSET_NODE_PARASITIC
        )
        residual_offset = raw_offset * offset_attenuation
        noise = np.sqrt(thermal_noise**2 + residual_offset**2)

        return {
            "power": power,
            "set_delay": set_delay,
            "reset_delay": reset_delay,
            "noise": noise,
        }
