"""Hierarchical global/local mismatch sampling (Eq. 3 of the paper).

The sampled set ``H_N`` is produced by first drawing one die-level global
shift ``h_global ~ N(0, Sigma_Global(x))`` and then drawing ``N`` within-die
samples ``h_k ~ N(h_global, Sigma_Local(x))``.  Depending on the operational
configuration (Table I) either covariance can be switched off:

* ``C``        — no mismatch at all (a single zero vector).
* ``C-MCL``    — local mismatch only (``Sigma_Global = 0``).
* ``C-MCG-L``  — full hierarchical global + local sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.variation.distributions import MismatchModel


@dataclass(frozen=True)
class MismatchSet:
    """A sampled mismatch-condition set ``H_N`` for one design point.

    Attributes
    ----------
    samples:
        Array of shape ``(N, r)``; each row is one mismatch condition ``h``.
    global_shift:
        The die-level shift ``h^(1)`` the local samples were drawn around
        (zero when global variation is disabled).
    """

    samples: np.ndarray
    global_shift: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D array of shape (N, r)")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(
            self, "global_shift", np.asarray(self.global_shift, dtype=float)
        )

    def __len__(self) -> int:
        return self.samples.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.samples)

    def __getitem__(self, index) -> np.ndarray:
        return self.samples[index]

    @property
    def dimension(self) -> int:
        return self.samples.shape[1]

    def subset(self, indices: Sequence[int]) -> "MismatchSet":
        """A new set containing only the rows selected by ``indices``."""
        return MismatchSet(self.samples[list(indices)], self.global_shift)

    def concatenate(self, other: "MismatchSet") -> "MismatchSet":
        """Stack two sets drawn around the same global shift."""
        if self.dimension != other.dimension:
            raise ValueError("mismatch dimensions differ")
        return MismatchSet(
            np.vstack([self.samples, other.samples]), self.global_shift
        )


class MismatchSampler:
    """Draws hierarchical mismatch-condition sets for a circuit's devices."""

    def __init__(
        self,
        model: MismatchModel,
        include_global: bool,
        include_local: bool,
        rng: Optional[np.random.Generator] = None,
    ):
        self._model = model
        self._include_global = bool(include_global)
        self._include_local = bool(include_local)
        self._rng = rng if rng is not None else np.random.default_rng()
        # Precompute the die-level correlation structure once: one standard
        # normal is drawn per unique group (first-occurrence order) and
        # broadcast to every parameter carrying that label.
        groups = model.global_groups()
        unique = list(dict.fromkeys(groups))
        position = {group: index for index, group in enumerate(unique)}
        self._num_groups = len(unique)
        self._group_inverse = np.array([position[group] for group in groups])

    @property
    def model(self) -> MismatchModel:
        return self._model

    @property
    def include_global(self) -> bool:
        return self._include_global

    @property
    def include_local(self) -> bool:
        return self._include_local

    @property
    def dimension(self) -> int:
        return self._model.dimension

    def sample(
        self,
        x_physical: np.ndarray,
        count: int,
        global_shift: Optional[np.ndarray] = None,
        independent_globals: bool = False,
    ) -> MismatchSet:
        """Draw ``count`` mismatch conditions for the design ``x_physical``.

        Parameters
        ----------
        x_physical:
            Physical sizing vector; the local covariance is evaluated at it.
        count:
            Number of within-die samples ``N`` to draw.
        global_shift:
            Optional pre-drawn die-level shift.  Passing the shift keeps the
            verification phase on the *same* die as the optimization-phase
            subset when extending ``H_N'`` to ``H_N`` (Algorithm 2).
        independent_globals:
            Draw a fresh die-level shift for *every* sample instead of one
            shared die.  The optimization phase uses this so that a handful
            of samples already spans die-to-die spread; verification
            keeps the paper's one-die-per-corner hierarchy.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        x_physical = np.asarray(x_physical, dtype=float)
        dimension = self._model.dimension

        if not self._include_global and not self._include_local:
            zero = np.zeros(dimension)
            return MismatchSet(np.zeros((count, dimension)), zero)

        if independent_globals and self._include_global and global_shift is None:
            # One die per sample: a (count, n_groups) block of standard
            # normals broadcast through the group map in a single pass (the
            # row-major draw order matches the former per-sample loop, so
            # seeded streams are unchanged).
            global_sigma = self._model.global_sigmas(x_physical)
            draws = self._rng.standard_normal((count, self._num_groups))
            shifts = draws[:, self._group_inverse] * global_sigma
        else:
            if global_shift is None:
                global_shift = self.sample_global_shift(x_physical)
            else:
                global_shift = np.asarray(global_shift, dtype=float)
                if global_shift.shape != (dimension,):
                    raise ValueError(
                        f"global_shift must have shape ({dimension},), "
                        f"got {global_shift.shape}"
                    )
            shifts = np.tile(global_shift, (count, 1))

        if self._include_local:
            local_sigma = self._model.local_sigmas(x_physical)
            noise = self._rng.standard_normal((count, dimension)) * local_sigma
            samples = shifts + noise
        else:
            samples = shifts
        return MismatchSet(samples, shifts[0])

    def sample_global_shift(self, x_physical: np.ndarray) -> np.ndarray:
        """Draw the die-level shift ``h^(1)`` (zero if global is disabled).

        Die-level variation is fully correlated within a device type: one
        standard-normal draw per group (all NMOS thresholds, all PMOS
        thresholds, ...) is scaled by each parameter's global sigma, so
        matched pairs move together and only local mismatch can offset them.
        """
        dimension = self._model.dimension
        if not self._include_global:
            return np.zeros(dimension)
        global_sigma = self._model.global_sigmas(np.asarray(x_physical, dtype=float))
        draws = self._rng.standard_normal(self._num_groups)
        return draws[self._group_inverse] * global_sigma

    def nominal(self) -> MismatchSet:
        """The single zero-mismatch condition used by corner-only simulation."""
        zero = np.zeros(self._model.dimension)
        return MismatchSet(zero[None, :], zero)

    def reseed(self, seed: int) -> None:
        """Replace the internal random generator (used by tests)."""
        self._rng = np.random.default_rng(seed)
