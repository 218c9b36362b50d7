"""Replay buffers used by the risk-sensitive agent.

Two buffers appear in Fig. 2 of the paper:

* the **worst-case replay buffer** ``B_worst`` stores ``(x, r_worst)``
  pairs, where ``r_worst`` is the minimum reward across the mismatch
  conditions simulated for that design at the worst corner.  The agent
  draws all the minibatches of one update at once
  (:meth:`WorstCaseReplayBuffer.sample_batches`), with exactly the draws
  and RNG stream of as many successive :meth:`~WorstCaseReplayBuffer.sample`
  calls;
* the **last worst-case buffer** remembers, per PVT corner, the most recent
  worst reward observed there — it is used both to pick the worst corner for
  the next optimization step and to order corners at the start of
  verification (Algorithm 2 sorts ``T`` by it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.variation.corners import CornerSet, PVTCorner


#: Above this population ``Generator.choice(replace=False)`` may switch from
#: Floyd's selection to a tail shuffle, which :func:`choice_batches` does
#: not reproduce; the replay buffer's capacity stays within it.
FLOYD_MAX_POPULATION = 10_000


def choice_batches(
    population: int, count: int, size: int, rng: np.random.Generator
) -> np.ndarray:
    """``(count, size)`` indices: ``count`` successive
    ``rng.choice(population, size, replace=False)`` results, from one draw.

    For ``population <= FLOYD_MAX_POPULATION`` each ``choice`` call runs
    Floyd's selection (for ``j = population - size ... population - 1``
    it draws in ``[0, j]`` and takes ``j`` instead of a repeated draw),
    then a Fisher-Yates shuffle of the picks (for ``i = size - 1 ... 1``
    it draws in ``[0, i]`` and swaps ``i`` with the draw).  One
    ``integers`` call over the tiled bounds makes exactly those draws in
    that order, and both steps then run across all rows at once, so the
    indices and the generator's next state match the successive calls.
    """
    if not 1 <= size <= population <= FLOYD_MAX_POPULATION:
        raise ValueError(
            f"batch size must be in [1, population] and population in "
            f"[1, {FLOYD_MAX_POPULATION}]: got size {size}, population {population}"
        )
    floyd = np.arange(population - size, population)
    swaps = np.arange(size - 1, 0, -1)
    draws = rng.integers(
        0, np.tile(np.concatenate([floyd, swaps]), count), endpoint=True,
        dtype=np.int64,
    ).reshape(count, 2 * size - 1)
    picks = np.empty((count, size), dtype=np.int64)
    for step, last in enumerate(floyd):
        drawn = draws[:, step]
        repeated = (picks[:, :step] == drawn[:, None]).any(axis=1)
        picks[:, step] = np.where(repeated, last, drawn)
    flat, starts = picks.reshape(-1), np.arange(0, count * size, size)
    for step, position in enumerate(swaps, start=size):
        other = starts + draws[:, step]
        held = flat[other]
        flat[other] = picks[:, position]
        picks[:, position] = held
    return picks


@dataclass(frozen=True)
class Transition:
    """One stored experience: a design and its worst-case reward."""

    design: np.ndarray
    reward: float


class WorstCaseReplayBuffer:
    """Fixed-capacity FIFO ring of ``(design, worst reward)`` pairs.

    Rejects non-finite input and designs that are not 1-D vectors of the
    stored designs' length: one bad row in the ring would reach every
    minibatch of the agent's next update.
    """

    def __init__(self, capacity: int = 2048):
        if not 1 <= capacity <= FLOYD_MAX_POPULATION:
            raise ValueError(
                f"capacity must be in [1, {FLOYD_MAX_POPULATION}], got {capacity}"
            )
        self._capacity = capacity
        self._designs = np.empty((capacity, 0))
        self._rewards = np.empty(capacity)
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._capacity

    def add(self, design: np.ndarray, reward: float) -> None:
        design = np.asarray(design, dtype=float)
        reward = float(reward)
        if not (math.isfinite(reward) and np.isfinite(design).all()):
            raise ValueError(
                f"replay entries must be finite: reward {reward}, design {design}"
            )
        stored = self._designs.shape[1:]
        if design.ndim != 1 or (self._size and design.shape != stored):
            raise ValueError(
                f"replay designs must be 1-D vectors of one length: got shape "
                f"{design.shape}, stored {stored}"
            )
        if not self._size:
            self._designs = np.empty((self._capacity,) + design.shape)
        self._designs[self._cursor] = design
        self._rewards[self._cursor] = reward
        self._cursor = (self._cursor + 1) % self._capacity
        self._size = min(self._size + 1, self._capacity)

    def sample(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A random batch (with replacement when the buffer is small)."""
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        rng = rng if rng is not None else np.random.default_rng()
        replace = self._size < batch_size
        indices = rng.choice(self._size, size=batch_size, replace=replace)
        return self._designs[indices], self._rewards[indices]

    def sample_batches(
        self, count: int, batch_size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(count, batch, p)`` designs and ``(count, batch)`` rewards.

        The batches, and the generator's state afterwards, are those of
        ``count`` successive :meth:`sample` calls.  ``batch_size`` must be
        in ``[1, len(self)]`` (above it :meth:`sample` would replace), or
        ``ValueError`` is raised before any draw.
        """
        indices = choice_batches(self._size, count, batch_size, rng)
        return self._designs[indices], self._rewards[indices]

    def best(self) -> Transition:
        """The stored transition with the highest worst-case reward (the
        first such in storage order, as ``max`` picks)."""
        if not self._size:
            raise ValueError("buffer is empty")
        index = int(np.argmax(self._rewards[: self._size]))
        return Transition(self._designs[index].copy(), float(self._rewards[index]))

    def all_designs(self) -> np.ndarray:
        return self._designs[: self._size].copy()

    def all_rewards(self) -> np.ndarray:
        return self._rewards[: self._size].copy()


class LastWorstCaseBuffer:
    """Per-corner memory of the most recent worst reward.

    Corners that have not been visited yet report ``None`` and are treated
    as *worst* (lowest priority value) so the optimizer explores them first.
    """

    def __init__(self, corners: CornerSet):
        self._corners = corners
        self._last: Dict[str, Optional[float]] = {c.name: None for c in corners}

    @property
    def corners(self) -> CornerSet:
        return self._corners

    def update(self, corner: PVTCorner, reward: float) -> None:
        if corner.name not in self._last:
            raise KeyError(f"corner {corner.name} not tracked by this buffer")
        self._last[corner.name] = float(reward)

    def reward_of(self, corner: PVTCorner) -> Optional[float]:
        return self._last[corner.name]

    def worst_corner(self) -> PVTCorner:
        """The corner with the lowest recorded reward (unvisited first)."""
        def key(corner: PVTCorner) -> float:
            value = self._last[corner.name]
            return -np.inf if value is None else value

        return min(self._corners, key=key)

    def sorted_corners(self) -> CornerSet:
        """Corners ordered worst-first (Algorithm 2's initial sort of T)."""
        def key(corner: PVTCorner) -> float:
            value = self._last[corner.name]
            return -np.inf if value is None else value

        ordered = sorted(self._corners, key=key)
        return CornerSet(ordered)

    def as_dict(self) -> Dict[str, Optional[float]]:
        return dict(self._last)
