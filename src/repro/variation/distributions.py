"""Mismatch covariance construction (``Sigma_Global(x)`` and ``Sigma_Local(x)``).

The paper models process variation hierarchically (Eq. 3): a die-to-die
global shift drawn from ``N(0, Sigma_Global(x))`` and, conditioned on it,
within-die local mismatch drawn from ``N(h_global, Sigma_Local(x))``.  Both
covariances are diagonal, and the *local* variances follow the standard
Pelgrom area law [Drennan & McAndrew, JSSC 2003]::

    sigma(dVth)  = A_VT   / sqrt(W * L)
    sigma(dbeta) = A_beta / sqrt(W * L)   (relative current-factor mismatch)

so enlarging a device reduces its mismatch — which is exactly the tension the
sizing problem has to resolve (bigger devices burn power and slow down the
circuit, smaller devices are noisier and less matched).

Each circuit testbench declares its devices through :class:`DeviceSpec`
objects.  A device contributes two mismatch parameters (threshold shift and
relative current-factor error); capacitors contribute a single relative
capacitance error.  The resulting mismatch vector layout is owned by
:class:`MismatchModel` and is what the samplers, the Pearson-correlation
reordering, and the circuit models all agree on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


class DeviceKind(enum.Enum):
    """Device categories that can carry random mismatch."""

    NMOS = "nmos"
    PMOS = "pmos"
    CAPACITOR = "cap"


@dataclass(frozen=True)
class PelgromCoefficients:
    """Technology mismatch coefficients for an advanced 28 nm node.

    Attributes
    ----------
    a_vt:
        Threshold-voltage mismatch coefficient in V*um (``sigma_dVth =
        a_vt / sqrt(W*L)`` with W, L in micrometres).
    a_beta:
        Relative current-factor mismatch coefficient in %*um.
    a_cap:
        Relative capacitor mismatch coefficient in %*sqrt(fF) (``sigma_dC/C =
        a_cap / sqrt(C_fF)``).
    global_sigma_vth:
        Die-to-die threshold-voltage sigma in volts (independent of sizing).
    global_sigma_beta:
        Die-to-die relative current-factor sigma (fractional).
    global_sigma_cap:
        Die-to-die relative capacitance sigma (fractional).
    """

    a_vt: float = 2.0e-3  # V*um -> 2 mV*um
    a_beta: float = 0.010  # 1 %*um
    a_cap: float = 0.005  # 0.5 %*sqrt(fF)
    global_sigma_vth: float = 0.015  # 15 mV die-to-die
    global_sigma_beta: float = 0.03  # 3 % die-to-die
    global_sigma_cap: float = 0.02  # 2 % die-to-die

    def local_sigma_vth(self, width_um: float, length_um: float) -> float:
        """Within-die threshold mismatch sigma for a W x L device."""
        area = max(width_um * length_um, 1e-9)
        return self.a_vt / np.sqrt(area)

    def local_sigma_beta(self, width_um: float, length_um: float) -> float:
        """Within-die relative current-factor mismatch sigma."""
        area = max(width_um * length_um, 1e-9)
        return self.a_beta / np.sqrt(area)

    def local_sigma_cap(self, cap_farads: float) -> float:
        """Within-die relative capacitance mismatch sigma."""
        cap_ff = max(cap_farads * 1e15, 1e-6)
        return self.a_cap / np.sqrt(cap_ff)


#: Default 28 nm-like coefficients shared by all testbenches.
DEFAULT_PELGROM = PelgromCoefficients()


@dataclass(frozen=True)
class DeviceSpec:
    """Description of one mismatch-carrying device in a circuit.

    Attributes
    ----------
    name:
        Unique device name within the circuit (e.g. ``"M_input_pair"``).
    kind:
        Device category.
    width_of / length_of:
        Callables mapping the *physical* sizing vector to the device's
        gate width / length in micrometres (MOS devices only).
    cap_of:
        Callable mapping the physical sizing vector to the capacitance in
        farads (capacitors only).
    multiplicity:
        Number of identical physical fingers/instances lumped into this
        spec.  Mismatch averages over multiplicity (sigma / sqrt(m)).
    """

    name: str
    kind: DeviceKind
    width_of: Callable[[np.ndarray], float] = None
    length_of: Callable[[np.ndarray], float] = None
    cap_of: Callable[[np.ndarray], float] = None
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.kind in (DeviceKind.NMOS, DeviceKind.PMOS):
            if self.width_of is None or self.length_of is None:
                raise ValueError(
                    f"MOS device {self.name!r} needs width_of and length_of"
                )
        elif self.kind is DeviceKind.CAPACITOR:
            if self.cap_of is None:
                raise ValueError(f"capacitor {self.name!r} needs cap_of")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


@dataclass(frozen=True)
class MismatchParameter:
    """One scalar dimension of the mismatch vector ``h``."""

    device: str
    quantity: str  # "vth", "beta" or "cap"
    index: int


class MismatchModel:
    """Maps a circuit's device list to mismatch-vector covariances.

    The mismatch vector ``h`` is laid out device by device: MOS devices
    contribute ``(dVth, dbeta)`` pairs and capacitors contribute a single
    relative error.  :meth:`local_covariance` evaluates the Pelgrom law at a
    given physical sizing vector, so ``Sigma_Local(x)`` shrinks when devices
    grow, mirroring Eq. (3) of the paper where both covariances are functions
    of the design solution.
    """

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        coefficients: PelgromCoefficients = DEFAULT_PELGROM,
    ):
        if not devices:
            raise ValueError("a MismatchModel needs at least one device")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ValueError("device names must be unique")
        self._devices: Tuple[DeviceSpec, ...] = tuple(devices)
        self._coefficients = coefficients
        self._parameters: List[MismatchParameter] = []
        for device in self._devices:
            if device.kind is DeviceKind.CAPACITOR:
                self._parameters.append(
                    MismatchParameter(device.name, "cap", len(self._parameters))
                )
            else:
                self._parameters.append(
                    MismatchParameter(device.name, "vth", len(self._parameters))
                )
                self._parameters.append(
                    MismatchParameter(device.name, "beta", len(self._parameters))
                )
        # The design-independent parts of the Pelgrom sigmas: where each
        # device's sigmas sit in h, and its multiplicity scale.
        self._mos = tuple(
            d for d in self._devices if d.kind is not DeviceKind.CAPACITOR
        )
        self._caps = tuple(
            d for d in self._devices if d.kind is DeviceKind.CAPACITOR
        )
        index = {(p.device, p.quantity): p.index for p in self._parameters}
        self._vth_index = np.array([index[d.name, "vth"] for d in self._mos], int)
        self._beta_index = np.array([index[d.name, "beta"] for d in self._mos], int)
        self._cap_index = np.array([index[d.name, "cap"] for d in self._caps], int)
        self._mos_scale = 1.0 / np.sqrt([float(d.multiplicity) for d in self._mos])
        self._cap_scale = 1.0 / np.sqrt([float(d.multiplicity) for d in self._caps])
        self._global_sigmas = np.empty(self.dimension)
        self._global_sigmas[self._vth_index] = coefficients.global_sigma_vth
        self._global_sigmas[self._beta_index] = coefficients.global_sigma_beta
        self._global_sigmas[self._cap_index] = coefficients.global_sigma_cap

    @property
    def devices(self) -> Tuple[DeviceSpec, ...]:
        return self._devices

    @property
    def coefficients(self) -> PelgromCoefficients:
        return self._coefficients

    @property
    def parameters(self) -> Tuple[MismatchParameter, ...]:
        return tuple(self._parameters)

    @property
    def dimension(self) -> int:
        """Dimensionality ``r`` of the mismatch vector ``h``."""
        return len(self._parameters)

    def parameter_names(self) -> List[str]:
        return [f"{p.device}.{p.quantity}" for p in self._parameters]

    def index_of(self, device: str, quantity: str) -> int:
        """Return the position of ``device``/``quantity`` in the h-vector."""
        for parameter in self._parameters:
            if parameter.device == device and parameter.quantity == quantity:
                return parameter.index
        raise KeyError(f"no mismatch parameter {device}.{quantity}")

    def local_covariance(self, x_physical: np.ndarray) -> np.ndarray:
        """Diagonal ``Sigma_Local(x)`` evaluated at a physical sizing vector."""
        return np.diag(self.local_sigmas(x_physical) ** 2)

    def global_covariance(self, x_physical: np.ndarray) -> np.ndarray:
        """Diagonal ``Sigma_Global(x)`` (die-to-die spread per parameter)."""
        return np.diag(self.global_sigmas(x_physical) ** 2)

    def local_sigmas(self, x_physical: np.ndarray) -> np.ndarray:
        """Vector of per-parameter local standard deviations.

        One pass over the devices' areas and capacitances, bit-identical
        to the per-device :class:`PelgromCoefficients` formulas times the
        multiplicity scale ``1 / sqrt(m)``.
        """
        coefficients = self._coefficients
        sigmas = np.empty(self.dimension)
        if self._mos:
            width = np.array([float(d.width_of(x_physical)) for d in self._mos])
            length = np.array([float(d.length_of(x_physical)) for d in self._mos])
            root_area = np.sqrt(np.maximum(width * length, 1e-9))
            sigmas[self._vth_index] = coefficients.a_vt / root_area * self._mos_scale
            sigmas[self._beta_index] = (
                coefficients.a_beta / root_area * self._mos_scale
            )
        if self._caps:
            cap = np.array([float(d.cap_of(x_physical)) for d in self._caps])
            root_cap = np.sqrt(np.maximum(cap * 1e15, 1e-6))
            sigmas[self._cap_index] = coefficients.a_cap / root_cap * self._cap_scale
        return sigmas

    def global_sigmas(self, x_physical: np.ndarray) -> np.ndarray:
        """Vector of per-parameter global standard deviations (the same
        for every design)."""
        return self._global_sigmas.copy()

    def global_groups(self) -> List[str]:
        """Group label per mismatch parameter for die-level correlation.

        Global (die-to-die) variation shifts every device of the same type
        by the *same* amount — all NMOS thresholds move together, all PMOS
        thresholds move together, and so on (Fig. 1 of the paper).  The
        sampler therefore draws one global value per group and broadcasts it
        to every parameter carrying that label, which is equivalent to a
        fully-correlated block structure in ``Sigma_Global``.
        """
        groups: List[str] = []
        for device in self._devices:
            if device.kind is DeviceKind.CAPACITOR:
                groups.append("cap.cap")
            else:
                groups.append(f"{device.kind.value}.vth")
                groups.append(f"{device.kind.value}.beta")
        return groups

    def as_batch_device_view(
        self, h_matrix: np.ndarray
    ) -> Dict[str, Dict[str, np.ndarray]]:
        """Unpack a ``(B, r)`` mismatch matrix into per-device column views.

        The returned arrays are views into ``h_matrix`` (no copies), shaped
        ``(B,)`` — the batched circuit models broadcast them directly against
        corner and bias arrays.
        """
        h_matrix = np.asarray(h_matrix, dtype=float)
        if h_matrix.ndim != 2 or h_matrix.shape[1] != self.dimension:
            raise ValueError(
                f"expected mismatch matrix of shape (B, {self.dimension}), "
                f"got {h_matrix.shape}"
            )
        view: Dict[str, Dict[str, np.ndarray]] = {}
        for parameter in self._parameters:
            view.setdefault(parameter.device, {})[parameter.quantity] = h_matrix[
                :, parameter.index
            ]
        return view

    def zero(self) -> np.ndarray:
        """The nominal (no-mismatch) vector."""
        return np.zeros(self.dimension)
