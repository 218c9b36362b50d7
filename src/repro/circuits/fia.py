"""Floating inverter amplifier (FIA) testbench.

The FIA [Tang, JSSC 2020] is a dynamic pre-amplifier: a CMOS inverter pair
whose supply rails float on a reservoir capacitor, so each conversion
consumes only the charge delivered from that reservoir.  Its two headline
metrics are the energy drawn per conversion and the equivalent input error
(noise plus residual offset), which the paper constrains to
``energy/conv <= 0.1 pJ`` and ``noise <= 130 mV``.

Sizing vector (6 parameters, matching the paper):

====  =========================  =====================  ==========
idx   parameter                  range                  scale
====  =========================  =====================  ==========
0     NMOS width                 0.28 um .. 32.8 um     log
1     PMOS width                 0.28 um .. 32.8 um     log
2     NMOS length                0.03 um .. 0.33 um     linear
3     PMOS length                0.03 um .. 0.33 um     linear
4     reservoir capacitor        5 fF .. 5.5 pF         log
5     output/load capacitor      5 fF .. 5.5 pF         log
====  =========================  =====================  ==========
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

#: Crest factor applied to the rms error so the metric reflects a
#: high-confidence equivalent input error (matches the paper's mV-scale
#: noise budget for the FIA).
CREST_FACTOR = 6.0

#: Fraction of the reservoir charge lost to the recharge switches each cycle.
RESERVOIR_UTILISATION = 0.9

_MICRON = 1e-6
_WIDTH_RANGE = (0.28 * _MICRON, 32.8 * _MICRON)
_LENGTH_RANGE = (0.03 * _MICRON, 0.33 * _MICRON)
_CAP_RANGE = (0.005e-12, 5.5e-12)


@register_circuit(aliases=("fia",))
class FloatingInverterAmplifier(AnalogCircuit):
    """Behavioural performance model of the FIA testcase."""

    name = "floating_inverter_amplifier"

    W_NMOS, W_PMOS, L_NMOS, L_PMOS, C_RESERVOIR, C_LOAD = range(6)

    def _build_parameters(self) -> Sequence[SizingParameter]:
        return [
            SizingParameter("W_nmos", *_WIDTH_RANGE, unit="m", log_scale=True),
            SizingParameter("W_pmos", *_WIDTH_RANGE, unit="m", log_scale=True),
            SizingParameter("L_nmos", *_LENGTH_RANGE, unit="m"),
            SizingParameter("L_pmos", *_LENGTH_RANGE, unit="m"),
            SizingParameter("C_reservoir", *_CAP_RANGE, unit="F", log_scale=True),
            SizingParameter("C_load", *_CAP_RANGE, unit="F", log_scale=True),
        ]

    def _build_constraints(self) -> Dict[str, float]:
        return {
            "energy_per_conversion": 0.1e-12,
            "noise": 130e-3,
        }

    def _build_devices(self) -> Sequence[DeviceSpec]:
        # The FIA is pseudo-differential: each polarity contributes a matched
        # pair, modelled as explicit ``_a``/``_b`` devices so that die-level
        # shifts cancel in the pair difference (only local mismatch offsets).
        def mos(name: str, w_index: int, l_index: int, kind: DeviceKind):
            return DeviceSpec(
                name=name,
                kind=kind,
                width_of=lambda x, i=w_index: x[i] * 1e6,
                length_of=lambda x, i=l_index: x[i] * 1e6,
            )

        return [
            mos("M_nmos_a", self.W_NMOS, self.L_NMOS, DeviceKind.NMOS),
            mos("M_nmos_b", self.W_NMOS, self.L_NMOS, DeviceKind.NMOS),
            mos("M_pmos_a", self.W_PMOS, self.L_PMOS, DeviceKind.PMOS),
            mos("M_pmos_b", self.W_PMOS, self.L_PMOS, DeviceKind.PMOS),
            DeviceSpec(
                name="C_reservoir",
                kind=DeviceKind.CAPACITOR,
                cap_of=lambda x: x[self.C_RESERVOIR],
            ),
            DeviceSpec(
                name="C_load",
                kind=DeviceKind.CAPACITOR,
                cap_of=lambda x: x[self.C_LOAD],
            ),
        ]

    # ------------------------------------------------------------------
    # External-simulator declarations (see repro.spice.deck)
    # ------------------------------------------------------------------
    def measure_specs(self):
        from repro.spice.deck import MeasureSpec

        return (
            # Reservoir + switched-load charge drawn from VDD each cycle.
            MeasureSpec(
                "energy_per_conversion",
                "tran",
                "param='(0.9*p_c_reservoir+2.0*p_c_load)*vdd_val*vdd_val'",
            ),
            # Crest-factored kT/C estimate; calibrated values come from the
            # analytic engine (fake-simulator path).
            MeasureSpec(
                "noise",
                "tran",
                "param='6.0*sqrt(4.0*1.380649e-23*(temp_val+273.15)/p_c_load)'",
            ),
        )

    def waveform_specs(self):
        from repro.analysis.waveform import WaveformSpec

        # Both FIA metrics are parameter-derived estimates, surfaced as
        # behavioural traces so real engines report them through the
        # rawfile like any probed node.
        return (
            WaveformSpec(
                "energy_per_conversion",
                recipe="final",
                signal="v(m_energy)",
                expression=(
                    "(0.9*p_c_reservoir+2.0*p_c_load)*vdd_val*vdd_val"
                ),
            ),
            WaveformSpec(
                "noise",
                recipe="final",
                signal="v(m_noise)",
                expression=(
                    "6.0*sqrt(4.0*1.380649e-23*(temp_val+273.15)/p_c_load)"
                ),
            ),
        )

    def build_testbench(self, x: np.ndarray, corner: PVTCorner) -> Circuit:
        """Structural FIA testbench: pseudo-differential inverter pair
        floating on the reservoir capacitor, plus output loads."""
        from repro.spice.netlist import (
            Capacitor,
            Circuit,
            GROUND,
            Mosfet,
            Resistor,
            VoltageSource,
        )

        vdd = float(corner.vdd)
        bench = Circuit(self.name)
        bench.add(VoltageSource("VVDD", "vdd", GROUND, vdd))
        bench.add(VoltageSource("VINP", "inp", GROUND, 0.5 * vdd))
        bench.add(VoltageSource("VINN", "inn", GROUND, 0.5 * vdd))
        bench.add(Resistor("R_charge", "vdd", "res", 1e3))
        bench.add(Capacitor("C_reservoir", "res", GROUND, x[self.C_RESERVOIR]))
        m_pmos = MosfetModel(x[self.W_PMOS], x[self.L_PMOS], pmos_28nm())
        m_nmos = MosfetModel(x[self.W_NMOS], x[self.L_NMOS], nmos_28nm())
        bench.add(Mosfet("M_pmos_a", "outp", "inp", "res", m_pmos))
        bench.add(Mosfet("M_pmos_b", "outn", "inn", "res", m_pmos))
        bench.add(Mosfet("M_nmos_a", "outp", "inp", GROUND, m_nmos))
        bench.add(Mosfet("M_nmos_b", "outn", "inn", GROUND, m_nmos))
        bench.add(Capacitor("C_load_p", "outp", GROUND, x[self.C_LOAD]))
        bench.add(Capacitor("C_load_n", "outn", GROUND, x[self.C_LOAD]))
        return bench

    # ------------------------------------------------------------------
    def _evaluate_physical_batch(
        self,
        x: np.ndarray,
        corner: PVTCorner,
        mismatch: Dict[str, Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Vectorized performance model (see :class:`AnalogCircuit`): the
        mismatch entries are (B,) arrays and every expression broadcasts."""
        vdd = corner.vdd
        temperature_k = corner.temperature_kelvin

        m_nmos = MosfetModel(x[self.W_NMOS], x[self.L_NMOS], nmos_28nm())
        m_pmos = MosfetModel(x[self.W_PMOS], x[self.L_PMOS], pmos_28nm())

        mm = lambda dev, key: mismatch.get(dev, {}).get(key, 0.0)
        cap_factor = lambda dev: cap_mismatch_factor(mm(dev, "cap"))
        cap_reservoir = x[self.C_RESERVOIR] * cap_factor("C_reservoir")
        cap_load = x[self.C_LOAD] * cap_factor("C_load")

        # Total capacitance switched each conversion: both output nodes plus
        # the inverter self-loading, charged from the floating reservoir.
        c_output = (
            cap_load
            + m_nmos.drain_capacitance()
            + m_pmos.drain_capacitance()
        )
        c_switched = 2.0 * c_output + m_nmos.gate_capacitance() + m_pmos.gate_capacitance()

        # --- energy per conversion --------------------------------------
        # The reservoir is recharged to VDD every cycle (a fixed fraction of
        # its charge is lost to the recharge switches) and the switched load
        # is drawn from it as well.
        effective_charge_cap = RESERVOIR_UTILISATION * cap_reservoir + c_switched
        energy = effective_charge_cap * vdd**2

        # --- equivalent input error (noise + offset) ---------------------
        nmos_vth_avg = 0.5 * (mm("M_nmos_a", "vth") + mm("M_nmos_b", "vth"))
        nmos_beta_avg = 0.5 * (mm("M_nmos_a", "beta") + mm("M_nmos_b", "beta"))
        pmos_vth_avg = 0.5 * (mm("M_pmos_a", "vth") + mm("M_pmos_b", "vth"))
        pmos_beta_avg = 0.5 * (mm("M_pmos_a", "beta") + mm("M_pmos_b", "beta"))
        nmos_op = m_nmos.batch_operating_point(
            vgs=0.5 * vdd,
            vds=0.5 * vdd,
            corner=corner,
            vth_shift=nmos_vth_avg,
            beta_error=nmos_beta_avg,
        )
        pmos_op = m_pmos.batch_operating_point(
            vgs=0.5 * vdd,
            vds=0.5 * vdd,
            corner=corner,
            vth_shift=pmos_vth_avg,
            beta_error=pmos_beta_avg,
        )
        gm_total = np.maximum(nmos_op.gm + pmos_op.gm, 1e-9)

        # Integration window ends when the reservoir common-mode collapses:
        # larger reservoirs integrate longer and therefore gain more.
        bias_current = np.maximum(nmos_op.ids + pmos_op.ids, 1e-12)
        integration_time = 0.25 * cap_reservoir * vdd / bias_current
        gain = np.maximum(gm_total * integration_time / c_output, 1.0)
        gain = np.minimum(gain, 40.0)

        thermal_noise = (
            np.sqrt(4.0 * BOLTZMANN * temperature_k / c_output) / np.sqrt(gain)
        )
        # Offset is the within-pair mismatch (die-level shifts cancel); the
        # dynamic inverter amplifier provides no offset storage, so it refers
        # to the input with only mild attenuation from the first-stage gain.
        pair_offset = np.abs(
            mm("M_nmos_a", "vth") - mm("M_nmos_b", "vth")
        ) + 0.7 * np.abs(mm("M_pmos_a", "vth") - mm("M_pmos_b", "vth"))
        beta_offset = 0.15 * np.abs(
            mm("M_nmos_a", "beta") - mm("M_nmos_b", "beta")
        ) * vdd
        residual_offset = (pair_offset + beta_offset) / np.power(gain, 0.25)
        noise = CREST_FACTOR * np.sqrt(thermal_noise**2 + residual_offset**2)

        return {
            "energy_per_conversion": energy,
            "noise": noise,
        }
