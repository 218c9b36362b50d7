"""Offset-cancellation sense amplifier (OCSA) + subhole (SH) DRAM-core testbench.

This is the paper's hardest testcase: a bitline sense amplifier with offset
cancellation plus the subhole driver transistors that pull the common source
lines, embedded in a 6F2 open-bitline DRAM core with 2K wordlines.  The
large bitline parasitics and the sheer number of mismatch-carrying devices
make the sensing voltages extremely sensitive to local variation, and the
two sensing metrics pull the design in opposite directions:

* ``delta_v_d0`` — low-data sensing voltage, helped by a stronger NMOS
  sense path (NSA + subhole N driver);
* ``delta_v_d1`` — high-data sensing voltage, helped by a stronger PMOS
  sense path and hurt by exactly the same N-side strength;
* ``energy_per_bit`` — punishes oversizing everything.

Both sensing voltages are maximised in the paper; following Section VI.A
they are sign-flipped so every metric is a "<= bound" constraint:
``-delta_v >= -85 mV``.

Sizing vector (12 parameters):

====  =============================  ===================  ==========
idx   parameter                      range                scale
====  =============================  ===================  ==========
0     OCSA NSA pair width            0.28 um .. 1.028 um  linear
1     OCSA PSA pair width            0.28 um .. 1.028 um  linear
2     OCSA offset-cancel switch W    0.28 um .. 1.028 um  linear
3     OCSA precharge/equalize W      0.28 um .. 1.028 um  linear
4     subhole N driver width         5 um .. 15 um        linear
5     subhole P driver width         5 um .. 15 um        linear
6-11  corresponding lengths          0.03 um .. 0.06 um   linear
====  =============================  ===================  ==========
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

import numpy as np

from repro.circuits.base import AnalogCircuit, SizingParameter
from repro.circuits.registry import register_circuit
from repro.spice.mosfet import BOLTZMANN, MosfetModel, nmos_28nm, pmos_28nm
from repro.variation.corners import PVTCorner
from repro.variation.distributions import DeviceKind, DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - the netlist loads on use
    from repro.spice.netlist import Circuit

#: Bitline capacitance of the 2K-wordline open-bitline array (F).
BITLINE_CAPACITANCE = 85e-15

#: DRAM cell storage capacitance (F).
CELL_CAPACITANCE = 12e-15

#: Common-source-line parasitic capacitance per sense amplifier (F).
CSL_CAPACITANCE = 10e-15

#: Number of sense amplifiers sharing one subhole driver.
SENSE_AMPS_PER_DRIVER = 64

#: Sense window between sense-amp enable and data capture (s).
SENSE_TIME = 2.0e-9

#: Retention/leakage derating of a stored '1' at the moment of sensing.
CELL_HIGH_RETENTION = 0.88

#: Coupling between N/P strength imbalance and the two sensing voltages.
IMBALANCE_COUPLING = 0.55

#: Effective gate overdrive point (fraction of VDD) at which the sense-amp
#: devices are evaluated mid-regeneration.
SENSE_BIAS_FRACTION = 0.65

#: Maximum amplification the latch can develop within the sense window.
MAX_AMPLIFICATION = 8.0

#: Duration of the crowbar current spike at sense-amp enable (s).
CROWBAR_WINDOW = 0.05e-9

_MICRON = 1e-6
_OCSA_WIDTH_RANGE = (0.28 * _MICRON, 1.028 * _MICRON)
_SH_WIDTH_RANGE = (5.0 * _MICRON, 15.0 * _MICRON)
_LENGTH_RANGE = (0.03 * _MICRON, 0.06 * _MICRON)


@register_circuit(aliases=("dram",))
class DramCoreSenseAmp(AnalogCircuit):
    """Behavioural performance model of the OCSA + SH DRAM-core testcase."""

    name = "dram_core_ocsa"

    W_NSA, W_PSA, W_OC, W_PRE, W_SH_N, W_SH_P = range(6)
    L_NSA, L_PSA, L_OC, L_PRE, L_SH_N, L_SH_P = range(6, 12)

    def _build_parameters(self) -> Sequence[SizingParameter]:
        widths = [
            SizingParameter("W_nsa", *_OCSA_WIDTH_RANGE, unit="m"),
            SizingParameter("W_psa", *_OCSA_WIDTH_RANGE, unit="m"),
            SizingParameter("W_oc_switch", *_OCSA_WIDTH_RANGE, unit="m"),
            SizingParameter("W_precharge", *_OCSA_WIDTH_RANGE, unit="m"),
            SizingParameter("W_sh_ndrv", *_SH_WIDTH_RANGE, unit="m"),
            SizingParameter("W_sh_pdrv", *_SH_WIDTH_RANGE, unit="m"),
        ]
        lengths = [
            SizingParameter(f"L_{name}", *_LENGTH_RANGE, unit="m")
            for name in ("nsa", "psa", "oc_switch", "precharge", "sh_ndrv", "sh_pdrv")
        ]
        return widths + lengths

    def _build_constraints(self) -> Dict[str, float]:
        return {
            "neg_delta_v_d0": -85e-3,
            "neg_delta_v_d1": -85e-3,
            "energy_per_bit": 30e-15,
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

        # The cross-coupled NSA/PSA pairs are modelled as explicit ``_a``/
        # ``_b`` devices so the sense-amp offset comes from *within-pair*
        # local mismatch only (die-level shifts cancel in the difference).
        return [
            mos("M_nsa_a", self.W_NSA, self.L_NSA, DeviceKind.NMOS),
            mos("M_nsa_b", self.W_NSA, self.L_NSA, DeviceKind.NMOS),
            mos("M_psa_a", self.W_PSA, self.L_PSA, DeviceKind.PMOS),
            mos("M_psa_b", self.W_PSA, self.L_PSA, DeviceKind.PMOS),
            mos("M_oc_switch", self.W_OC, self.L_OC, DeviceKind.NMOS, mult=2),
            mos("M_precharge", self.W_PRE, self.L_PRE, DeviceKind.NMOS, mult=3),
            mos("M_sh_ndrv", self.W_SH_N, self.L_SH_N, DeviceKind.NMOS),
            mos("M_sh_pdrv", self.W_SH_P, self.L_SH_P, DeviceKind.PMOS),
        ]

    # ------------------------------------------------------------------
    # External-simulator declarations (see repro.spice.deck)
    # ------------------------------------------------------------------
    def measure_specs(self):
        from repro.spice.deck import MeasureSpec

        return (
            # Sign-flipped sensing voltages sampled at the capture instant.
            MeasureSpec(
                "neg_delta_v_d0", "tran", "find par('v(bl)-v(blb)') at=2.0e-09"
            ),
            MeasureSpec(
                "neg_delta_v_d1", "tran", "find par('v(blb)-v(bl)') at=2.0e-09"
            ),
            # Gate-charge estimate over deck params; calibrated values come
            # from the analytic engine (fake-simulator path).
            # Deck params carry SI meters, so W*L is already m^2 and the
            # 0.012 F/m^2 oxide capacitance applies directly.
            MeasureSpec(
                "energy_per_bit",
                "tran",
                "param='(2.0*p_w_nsa*p_l_nsa+2.0*p_w_psa*p_l_psa)"
                "*0.012*vdd_val*vdd_val'",
            ),
        )

    def waveform_specs(self):
        from repro.analysis.waveform import WaveformSpec

        return (
            # Sign-flipped bitline splits sampled at distinct capture
            # instants (d1 samples later so each difference trace is
            # unambiguous in the rawfile record).
            WaveformSpec(
                "neg_delta_v_d0",
                recipe="value_at",
                signal="v(bl)",
                signal_minus="v(blb)",
                at_time=2.0e-9,
            ),
            WaveformSpec(
                "neg_delta_v_d1",
                recipe="value_at",
                signal="v(blb)",
                signal_minus="v(bl)",
                at_time=4.0e-9,
            ),
            # Gate-charge estimate as a behavioural trace over deck params.
            WaveformSpec(
                "energy_per_bit",
                recipe="final",
                signal="v(m_energy)",
                expression=(
                    "(2.0*p_w_nsa*p_l_nsa+2.0*p_w_psa*p_l_psa)"
                    "*0.012*vdd_val*vdd_val"
                ),
            ),
        )

    def build_testbench(self, x: np.ndarray, corner: PVTCorner) -> Circuit:
        """Structural OCSA + subhole testbench: precharged open bitlines,
        cross-coupled sense pairs and the shared common-source drivers."""
        from repro.spice.netlist import (
            Capacitor,
            Circuit,
            GROUND,
            Mosfet,
            VoltageSource,
        )

        vdd = float(corner.vdd)
        bench = Circuit(self.name)
        bench.add(VoltageSource("VVDD", "vdd", GROUND, vdd))
        bench.add(VoltageSource("VPRE", "pre", GROUND, 0.5 * vdd))
        bench.add(Capacitor("C_bl", "bl", GROUND, BITLINE_CAPACITANCE))
        bench.add(Capacitor("C_blb", "blb", GROUND, BITLINE_CAPACITANCE))
        bench.add(Capacitor("C_cell", "bl", GROUND, CELL_CAPACITANCE))
        bench.add(Capacitor("C_csl", "csn", GROUND, CSL_CAPACITANCE))
        m_nsa = MosfetModel(x[self.W_NSA], x[self.L_NSA], nmos_28nm())
        bench.add(Mosfet("M_nsa_a", "bl", "blb", "csn", m_nsa))
        bench.add(Mosfet("M_nsa_b", "blb", "bl", "csn", m_nsa))
        m_psa = MosfetModel(x[self.W_PSA], x[self.L_PSA], pmos_28nm())
        bench.add(Mosfet("M_psa_a", "bl", "blb", "csp", m_psa))
        bench.add(Mosfet("M_psa_b", "blb", "bl", "csp", m_psa))
        bench.add(
            Mosfet(
                "M_oc_switch",
                "bl",
                "vdd",
                "blb",
                MosfetModel(x[self.W_OC], x[self.L_OC], nmos_28nm()),
            )
        )
        bench.add(
            Mosfet(
                "M_precharge",
                "bl",
                "vdd",
                "pre",
                MosfetModel(x[self.W_PRE], x[self.L_PRE], nmos_28nm()),
            )
        )
        bench.add(
            Mosfet(
                "M_sh_ndrv",
                "csn",
                "vdd",
                GROUND,
                MosfetModel(x[self.W_SH_N], x[self.L_SH_N], nmos_28nm()),
            )
        )
        bench.add(
            Mosfet(
                "M_sh_pdrv",
                "csp",
                GROUND,
                "vdd",
                MosfetModel(x[self.W_SH_P], x[self.L_SH_P], pmos_28nm()),
            )
        )
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
        precharge_voltage = 0.5 * vdd

        m_nsa = MosfetModel(x[self.W_NSA], x[self.L_NSA], nmos_28nm())
        m_psa = MosfetModel(x[self.W_PSA], x[self.L_PSA], pmos_28nm())
        m_oc = MosfetModel(x[self.W_OC], x[self.L_OC], nmos_28nm())
        m_pre = MosfetModel(x[self.W_PRE], x[self.L_PRE], nmos_28nm())
        m_sh_n = MosfetModel(x[self.W_SH_N], x[self.L_SH_N], nmos_28nm())
        m_sh_p = MosfetModel(x[self.W_SH_P], x[self.L_SH_P], pmos_28nm())

        mm = lambda dev, key: mismatch.get(dev, {}).get(key, 0.0)

        # --- charge-sharing signal on the bitline ------------------------
        transfer_ratio = CELL_CAPACITANCE / (CELL_CAPACITANCE + BITLINE_CAPACITANCE)
        signal_high = (CELL_HIGH_RETENTION * vdd - precharge_voltage) * transfer_ratio
        signal_low = precharge_voltage * transfer_ratio

        # --- sense-path drive strengths ----------------------------------
        # The sense-amp devices are evaluated at a mid-regeneration bias
        # point; the subhole driver feeds SENSE_AMPS_PER_DRIVER amplifiers at
        # once, so a weak driver starves every amplifier on its common
        # source line.
        nsa_vth_avg = 0.5 * (mm("M_nsa_a", "vth") + mm("M_nsa_b", "vth"))
        nsa_beta_avg = 0.5 * (mm("M_nsa_a", "beta") + mm("M_nsa_b", "beta"))
        psa_vth_avg = 0.5 * (mm("M_psa_a", "vth") + mm("M_psa_b", "vth"))
        psa_beta_avg = 0.5 * (mm("M_psa_a", "beta") + mm("M_psa_b", "beta"))

        sense_bias = SENSE_BIAS_FRACTION * vdd
        nsa_op = m_nsa.batch_operating_point(
            vgs=sense_bias,
            vds=precharge_voltage,
            corner=corner,
            vth_shift=nsa_vth_avg,
            beta_error=nsa_beta_avg,
        )
        psa_op = m_psa.batch_operating_point(
            vgs=sense_bias,
            vds=precharge_voltage,
            corner=corner,
            vth_shift=psa_vth_avg,
            beta_error=psa_beta_avg,
        )
        sh_n_current = m_sh_n.batch_drain_current(
            vgs=vdd,
            vds=0.3 * vdd,
            corner=corner,
            vth_shift=mm("M_sh_ndrv", "vth"),
            beta_error=mm("M_sh_ndrv", "beta"),
        )
        sh_p_current = m_sh_p.batch_drain_current(
            vgs=vdd,
            vds=0.3 * vdd,
            corner=corner,
            vth_shift=mm("M_sh_pdrv", "vth"),
            beta_error=mm("M_sh_pdrv", "beta"),
        )
        n_share = sh_n_current / SENSE_AMPS_PER_DRIVER
        p_share = sh_p_current / SENSE_AMPS_PER_DRIVER
        n_starvation = n_share / (n_share + nsa_op.ids + 1e-12)
        p_starvation = p_share / (p_share + psa_op.ids + 1e-12)
        n_drive = np.maximum(np.minimum(nsa_op.ids, n_share), 1e-9)
        p_drive = np.maximum(np.minimum(psa_op.ids, p_share), 1e-9)

        # --- offset cancellation -----------------------------------------
        raw_offset = (
            np.abs(mm("M_nsa_a", "vth") - mm("M_nsa_b", "vth"))
            + 0.8 * np.abs(mm("M_psa_a", "vth") - mm("M_psa_b", "vth"))
            + 0.2
            * np.abs(mm("M_nsa_a", "beta") - mm("M_nsa_b", "beta"))
            * precharge_voltage
        )
        oc_conductance = m_oc.batch_drain_current(
            vgs=vdd,
            vds=0.05 * vdd,
            corner=corner,
            vth_shift=mm("M_oc_switch", "vth"),
            beta_error=mm("M_oc_switch", "beta"),
        ) / np.maximum(0.05 * vdd, 1e-3)
        # Offset-cancellation efficiency improves with the switch conductance
        # settling the storage node within the calibration window: an
        # undersized switch leaves a large fraction of the raw offset, which
        # is what makes this testcase so sensitive to local mismatch.
        settling = 1.0 - np.exp(-oc_conductance * 1.0e-9 / (CSL_CAPACITANCE))
        cancellation = 0.70 + 0.28 * np.clip(settling, 0.0, 1.0)
        residual_offset = raw_offset * (1.0 - cancellation)

        # Precharge/equalisation error adds a static imbalance if undersized.
        pre_current = m_pre.batch_drain_current(
            vgs=vdd,
            vds=0.05 * vdd,
            corner=corner,
            vth_shift=mm("M_precharge", "vth"),
            beta_error=mm("M_precharge", "beta"),
        )
        equalisation_error = 4e-3 * np.exp(-pre_current / 20e-6)

        # Sampled kT/C noise on the bitline.
        bitline_noise = np.sqrt(BOLTZMANN * temperature_k / BITLINE_CAPACITANCE)

        # --- sensing-voltage development ----------------------------------
        # The latch develops the initial differential (margin) by a factor
        # set by how many regeneration time constants fit in the sense
        # window; a starved subhole driver slows the common-source-line slew
        # and therefore the effective transconductance.
        gm_n_effective = nsa_op.gm * n_starvation
        gm_p_effective = psa_op.gm * p_starvation
        amplification_n = np.minimum(
            gm_n_effective * SENSE_TIME / BITLINE_CAPACITANCE, MAX_AMPLIFICATION
        )
        amplification_p = np.minimum(
            gm_p_effective * SENSE_TIME / BITLINE_CAPACITANCE, MAX_AMPLIFICATION
        )
        imbalance = (n_drive - p_drive) / (n_drive + p_drive)

        margin_low = signal_low - residual_offset - equalisation_error - bitline_noise
        margin_high = signal_high - residual_offset - equalisation_error - bitline_noise

        delta_v_d0 = (
            margin_low * amplification_n * (1.0 + IMBALANCE_COUPLING * imbalance)
        )
        delta_v_d1 = (
            margin_high * amplification_p * (1.0 - IMBALANCE_COUPLING * imbalance)
        )
        delta_v_d0 = np.clip(delta_v_d0, -0.5 * vdd, 0.5 * vdd)
        delta_v_d1 = np.clip(delta_v_d1, -0.5 * vdd, 0.5 * vdd)

        # --- energy per 1-bit sensing -------------------------------------
        driver_gate_energy = (
            m_sh_n.gate_capacitance() + m_sh_p.gate_capacitance()
        ) * vdd**2 / SENSE_AMPS_PER_DRIVER * 8.0
        sa_internal_energy = (
            2.0 * m_nsa.gate_capacitance()
            + 2.0 * m_psa.gate_capacitance()
            + m_oc.gate_capacitance()
            + m_pre.gate_capacitance()
            + CSL_CAPACITANCE
        ) * vdd**2
        restore_energy = 0.25 * BITLINE_CAPACITANCE * vdd * (
            np.abs(delta_v_d0) + np.abs(delta_v_d1)
        ) / 2.0
        crowbar_energy = 0.5 * (nsa_op.ids + psa_op.ids) * CROWBAR_WINDOW * vdd + 0.5 * (
            sh_n_current + sh_p_current
        ) / SENSE_AMPS_PER_DRIVER * CROWBAR_WINDOW * vdd
        energy_per_bit = (
            driver_gate_energy + sa_internal_energy + restore_energy + crowbar_energy
        )

        return {
            "neg_delta_v_d0": -delta_v_d0,
            "neg_delta_v_d1": -delta_v_d1,
            "energy_per_bit": energy_per_bit,
        }
