"""MOSFET compact model used by the simulation substrate.

The model is a square-law formulation with first-order velocity saturation,
channel-length modulation and subthreshold conduction — enough physics that
sizing decisions (W, L) and environment (corner Vth/mobility shifts, supply,
temperature) move the performance metrics the way a designer expects:

* larger W/L -> more current, more transconductance, more capacitance;
* slow corners / high temperature -> less current and slower circuits;
* higher supply -> more overdrive, more current, more dynamic energy;
* mismatch enters as a per-device threshold shift and a relative
  current-factor error, exactly the two Pelgrom quantities sampled in
  :mod:`repro.variation`.

All dimensions are SI (metres, volts, amps, farads) unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

BOLTZMANN = 1.380649e-23
ELECTRON_CHARGE = 1.602176634e-19


@dataclass(frozen=True)
class MosfetParameters:
    """Technology parameters for one device polarity.

    Attributes
    ----------
    vth0:
        Zero-bias threshold voltage magnitude at 27 degC (V).
    mu_cox:
        Process transconductance ``mu * Cox`` at 27 degC (A/V^2).
    lambda_per_um:
        Channel-length modulation coefficient normalised to a 1 um channel
        (1/V*um); the effective lambda is ``lambda_per_um / L_um``.
    v_sat_effect:
        Velocity-saturation critical field expressed in V/um; the effective
        saturation knee voltage is ``v_sat_effect * L_um`` (shorter channels
        saturate at lower Vds, the classic Esat*L behaviour).
    cox_per_area:
        Gate-oxide capacitance per unit area (F/m^2).
    c_overlap_per_width:
        Overlap/fringe capacitance per unit gate width (F/m).
    vth_temp_coeff:
        Threshold drift per kelvin (V/K), negative for both polarities.
    mobility_temp_exponent:
        Mobility power-law exponent ``mu ~ (T/300K)^-k``.
    subthreshold_slope:
        Subthreshold swing factor ``n`` in ``exp(Vgs/(n*kT/q))``.
    """

    vth0: float
    mu_cox: float
    lambda_per_um: float
    v_sat_effect: float
    cox_per_area: float
    c_overlap_per_width: float
    vth_temp_coeff: float
    mobility_temp_exponent: float
    subthreshold_slope: float
    polarity: str = "nmos"


def nmos_28nm() -> MosfetParameters:
    """Representative 28 nm NMOS parameters (public-domain textbook values)."""
    return MosfetParameters(
        vth0=0.32,
        mu_cox=320e-6,
        lambda_per_um=0.08,
        v_sat_effect=5.0,
        cox_per_area=0.012,
        c_overlap_per_width=0.35e-9,
        vth_temp_coeff=-0.8e-3,
        mobility_temp_exponent=1.4,
        subthreshold_slope=1.45,
        polarity="nmos",
    )


def pmos_28nm() -> MosfetParameters:
    """Representative 28 nm PMOS parameters."""
    return MosfetParameters(
        vth0=0.34,
        mu_cox=140e-6,
        lambda_per_um=0.10,
        v_sat_effect=9.0,
        cox_per_area=0.012,
        c_overlap_per_width=0.35e-9,
        vth_temp_coeff=-0.8e-3,
        mobility_temp_exponent=1.3,
        subthreshold_slope=1.5,
        polarity="pmos",
    )


@dataclass(frozen=True)
class BatchedOperatingPoint:
    """Array-valued bias point: every field broadcasts over the batch axis.

    Produced by :meth:`MosfetModel.batch_operating_point`.
    """

    ids: np.ndarray
    gm: np.ndarray
    gds: np.ndarray
    vgs: np.ndarray
    vds: np.ndarray
    vth: np.ndarray
    vov: np.ndarray


class MosfetModel:
    """A sized MOSFET instance with environment- and mismatch-aware evaluation.

    Parameters
    ----------
    width / length:
        Gate dimensions in metres.  Both accept arrays (one entry per batch
        element) as well as scalars: every downstream expression is
        ufunc-style, which is what lets the behavioural circuit models
        evaluate a whole *design* batch — for example a TuRBO proposal
        batch — in one vectorized pass.
    parameters:
        Technology parameters (defaults to the 28 nm NMOS set).
    """

    MIN_LENGTH = 20e-9
    MIN_WIDTH = 50e-9

    def __init__(
        self,
        width,
        length,
        parameters: Optional[MosfetParameters] = None,
    ):
        width = np.asarray(width, dtype=float)
        length = np.asarray(length, dtype=float)
        if np.any(width < self.MIN_WIDTH):
            raise ValueError(f"width {width} m below minimum {self.MIN_WIDTH} m")
        if np.any(length < self.MIN_LENGTH):
            raise ValueError(f"length {length} m below minimum {self.MIN_LENGTH} m")
        # Scalars stay plain floats so the scalar paths are bit-identical to
        # the pre-batching behaviour.
        self.width = float(width) if width.ndim == 0 else width
        self.length = float(length) if length.ndim == 0 else length
        self.parameters = parameters if parameters is not None else nmos_28nm()

    # ------------------------------------------------------------------
    # Environment handling
    # ------------------------------------------------------------------
    def effective_vth_mu(self, corner=None, vth_shift=0.0, beta_error=0.0):
        """Effective ``(vth, mu_cox)`` after corner, temperature and mismatch.

        Ufunc-style: ``vth_shift`` and ``beta_error`` may be scalars or arrays
        (e.g. one entry per Monte-Carlo sample), and ``corner`` may be a
        scalar :class:`PVTCorner` or an array-valued corner batch; the result
        broadcasts accordingly.  This is the single source of truth for the
        environment handling: the ``batch_*`` evaluations and the deck's
        ``.model`` cards both route through it.
        """
        params = self.parameters
        vth = params.vth0
        mu_cox = params.mu_cox
        if corner is not None:
            if params.polarity == "nmos":
                vth = vth + corner.process.nmos_vth_shift
                mu_cox = mu_cox * corner.process.nmos_mobility_scale
            else:
                vth = vth + corner.process.pmos_vth_shift
                mu_cox = mu_cox * corner.process.pmos_mobility_scale
            delta_t = corner.temperature - 27.0
            vth = vth + params.vth_temp_coeff * delta_t
            t_ratio = corner.temperature_kelvin / 300.15
            mu_cox = mu_cox * t_ratio ** (-params.mobility_temp_exponent)
        vth = vth + vth_shift
        mu_cox = mu_cox * (1.0 + beta_error)
        mu_cox = np.maximum(mu_cox, 1e-9)
        return vth, mu_cox

    # ------------------------------------------------------------------
    # Current and small-signal evaluation
    # ------------------------------------------------------------------
    def batch_drain_current(self, vgs, vds, corner=None, vth_shift=0.0, beta_error=0.0):
        """Ufunc-style drain current: all bias/mismatch inputs may be arrays."""
        vth, mu_cox = self.effective_vth_mu(corner, vth_shift, beta_error)
        temperature_k = 300.15 if corner is None else corner.temperature_kelvin
        return self._ids_core(vgs, vds, vth, mu_cox, temperature_k)

    def batch_operating_point(
        self, vgs, vds, corner=None, vth_shift=0.0, beta_error=0.0
    ) -> BatchedOperatingPoint:
        """Vectorized bias point: every input broadcasts ufunc-style.

        This is the hot path of the batched simulation engine — one call
        evaluates a device across a whole mismatch/corner batch with no
        Python-level branching per sample.
        """
        vth, mu_cox = self.effective_vth_mu(corner, vth_shift, beta_error)
        temperature_k = 300.15 if corner is None else corner.temperature_kelvin
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        ids = self._ids_core(vgs, vds, vth, mu_cox, temperature_k)
        delta = 1e-5
        gm = (self._ids_core(vgs + delta, vds, vth, mu_cox, temperature_k) - ids) / delta
        gds = (self._ids_core(vgs, vds + delta, vth, mu_cox, temperature_k) - ids) / delta
        return BatchedOperatingPoint(
            ids=ids,
            gm=np.maximum(gm, 0.0),
            gds=np.maximum(gds, 1e-15),
            vgs=vgs,
            vds=vds,
            vth=np.asarray(vth, dtype=float),
            vov=vgs - vth,
        )

    # ------------------------------------------------------------------
    # Capacitances
    # ------------------------------------------------------------------
    def gate_capacitance(self) -> float:
        """Total gate capacitance (intrinsic channel + overlap), in farads."""
        intrinsic = self.parameters.cox_per_area * self.width * self.length
        overlap = 2.0 * self.parameters.c_overlap_per_width * self.width
        return intrinsic + overlap

    def drain_capacitance(self) -> float:
        """Junction + overlap capacitance seen at the drain, in farads."""
        junction = 0.6 * self.parameters.cox_per_area * self.width * self.length
        overlap = self.parameters.c_overlap_per_width * self.width
        return 0.5 * junction + overlap

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ids_core(self, vgs, vds, vth, mu_cox, temperature_k):
        """Ufunc-style drain current: all arguments broadcast elementwise.

        Region selection uses ``np.where`` instead of Python branches so one
        call covers a whole batch of samples in any mix of subthreshold,
        triode and saturation.
        """
        params = self.parameters
        vds = np.maximum(np.asarray(vds, dtype=float), 0.0)
        vov = np.asarray(vgs, dtype=float) - vth
        beta = mu_cox * (self.width / self.length)
        thermal_voltage = BOLTZMANN * temperature_k / ELECTRON_CHARGE

        # Subthreshold: exponential in Vgs, saturating in Vds.  The exponent
        # is clipped to keep the unselected branch free of overflow warnings.
        i_spec = beta * (params.subthreshold_slope - 0.5) * thermal_voltage**2
        exponent = np.minimum(
            vov / (params.subthreshold_slope * thermal_voltage), 60.0
        )
        i_sub = i_spec * np.exp(exponent) * (1.0 - np.exp(-vds / thermal_voltage))

        # Strong inversion: velocity-saturated square law with CLM.
        length_um = self.length * 1e6
        v_crit = params.v_sat_effect * np.maximum(length_um, 1e-3)
        vdsat = np.where(
            vov > 0, vov * v_crit / np.maximum(vov + v_crit, 1e-12), 0.0
        )
        lam = params.lambda_per_um / np.maximum(length_um, 1e-3)
        i_sat = 0.5 * beta * vov * vdsat * (1.0 + lam * (vds - vdsat))
        i_tri = beta * (vov - 0.5 * vds) * vds

        ids = np.where(vov <= 0, i_sub, np.where(vds >= vdsat, i_sat, i_tri))
        return np.maximum(ids, 0.0)
