"""Risk-sensitive RL agent (Algorithm 1 of the paper).

The agent owns the actor, the ensemble critic and the worst-case replay
buffer.  Each optimization iteration (driven by the
:class:`~repro.core.optimizer.GlovaOptimizer`) calls

1. :meth:`propose` — run the actor on the previous design and add
   exploration noise, producing the next design to simulate;
2. :meth:`observe` — store the worst-case reward of the simulated design;
3. :meth:`update`  — several gradient steps: every critic base model
   regresses onto worst-case rewards from its own batch, then the actor is
   pushed toward designs whose risk-sensitive bound reaches the feasible
   reward of 0.2 (the paper's actor loss ``MSE(0.2, Q(A(x)))``) on one
   more batch.  All of an update's batches come from one draw before the
   first step: the buffer does not change during the update, and the
   draw makes the indices and leaves the RNG exactly as one ``sample``
   call per batch, in step order, would.

Two learner paths run that update, bit for bit alike.  Critic step ``t``
reads only its own batches and the critic after step ``t - 1``, never the
actor, and actor step ``t`` reads the critic after step ``t``:

* **Sequential**: both chains run in this process, step after step.
* **Pipelined**: a helper process forked at the run's first update runs
  the critic's steps on a second CPU while this process runs the actor's.
  The critic's flat state lives in anonymous shared memory
  (:meth:`~repro.core.nn.StackedMLP.place`).  Per update this process
  writes the critic batches there and sends the batch size over a pipe;
  after each step the helper copies the critic's parameters into one of
  :data:`SNAPSHOT_SLOTS` snapshot slots and announces it, and actor step
  ``t`` reads the critic through a forward-only view of slot ``t``.  Both
  sides compute with the same operands in the same order as the
  sequential loop, so weights, losses and the RNG stream are identical.

The pipelined path runs only inside :meth:`RiskSensitiveAgent.pipelined`,
which every optimizer's ``run`` enters, and only when
:func:`pipeline_available`: Linux with ``os.fork``, at least two CPUs in
this process's affinity mask and no thread but the main one when the
helper would start.  Anywhere else (a bare :meth:`update`, one CPU, a
live server or pool thread) the sequential loop runs.  The helper draws
no random numbers and touches no budget, simulator or file; it ignores
SIGINT and leaves through ``os._exit``.  It ends with the scope that
started it: the scope closes its command pipe and reaps it.  The helper
also ends when this process dies, because its pipe then reads end of
file, and this process raises :class:`RuntimeError` if the helper dies
mid-update.
"""

from __future__ import annotations

import contextlib
import copy
import math
import mmap
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.actor_critic import Actor, EnsembleCritic
from repro.core.config import GlovaConfig
from repro.core.replay import WorstCaseReplayBuffer
from repro.core.reward import FEASIBLE_REWARD

#: Critic snapshots the helper can run ahead of the actor by.
SNAPSHOT_SLOTS = 2
#: Seconds a closed helper has to exit before it is killed.
_EXIT_GRACE_S = 5.0


def pipeline_available() -> bool:
    """Whether an update may start the critic helper (module docstring).

    A second CPU is what makes the helper pay; a second thread is what
    makes ``fork`` unsafe, since the child could inherit a lock that
    thread holds.
    """
    return (
        sys.platform.startswith("linux")
        and hasattr(os, "fork")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _shared(*shape: int) -> np.ndarray:
    """A zeroed float64 array in anonymous memory a forked child shares."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * size), count=size).reshape(shape)


class _CriticHelper:
    """A forked process that runs a critic's update steps (module docstring).

    Each message is one write to a pipe.  This process starts an update
    by sending its batch size (4 bytes), then sends one byte whenever it
    is done with a slot the helper reuses within the update; every slot
    is free again when the next update starts.  The helper sends one
    byte per step, once the step's loss and snapshot are stored.
    """

    def __init__(self, critic: EnsembleCritic, steps: int, batch_size: int):
        network = critic.network
        network.place(mmap.mmap(-1, network.state_nbytes))
        self._steps, self._members = steps, critic.ensemble_size
        self._dimension = critic.design_dimension
        self._slots = _shared(SNAPSHOT_SLOTS, network.parameters.size)
        self._views = []
        for slot in self._slots:
            view = copy.copy(critic)
            view.network = network.view(slot)
            self._views.append(view)
        rows = steps * self._members * batch_size
        self._designs = _shared(rows * self._dimension)
        self._rewards = _shared(rows)
        self._losses = _shared(steps)
        commands, self._commands = os.pipe()
        self._acks, acks = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(self._commands)
                os.close(self._acks)
                self._serve(critic, commands, acks)
            finally:
                os._exit(0)
        os.close(commands)
        os.close(acks)

    def _batches(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The shared ``(steps, K, batch, p)`` designs and
        ``(steps, K, batch, 1)`` rewards of one update."""
        shape = (self._steps, self._members, batch_size)
        rows = math.prod(shape)
        designs = self._designs[: rows * self._dimension].reshape(*shape, -1)
        return designs, self._rewards[:rows].reshape(*shape, 1)

    def _serve(self, critic: EnsembleCritic, commands: int, acks: int) -> None:
        """The helper's loop, until its command pipe reads end of file."""
        while True:
            header = os.read(commands, 4)
            if not header:
                return
            designs, rewards = self._batches(int.from_bytes(header, "little"))
            for step in range(self._steps):
                self._losses[step] = critic.train(designs[step], rewards[step])
                if step >= SNAPSHOT_SLOTS and not os.read(commands, 1):
                    return
                self._slots[step % SNAPSHOT_SLOTS] = critic.network.parameters
                os.write(acks, b"\x00")

    # ------------------------------------------------------------------
    # This process's side
    # ------------------------------------------------------------------
    def start(self, designs: np.ndarray, rewards: np.ndarray) -> None:
        """Hand the helper an update's ``(steps, K, batch, ...)`` critic
        batches; it starts stepping at once."""
        batch_size = designs.shape[2]
        shared_designs, shared_rewards = self._batches(batch_size)
        shared_designs[...] = designs
        shared_rewards[...] = rewards
        self._send(batch_size.to_bytes(4, "little"))

    def snapshot(self, step: int) -> EnsembleCritic:
        """The critic after the update's step ``step``, once the helper
        announces it: a forward-only view of the step's slot."""
        if not os.read(self._acks, 1):
            raise self._died()
        return self._views[step % SNAPSHOT_SLOTS]

    def release(self, step: int) -> None:
        """Done with ``step``'s snapshot; its slot may be overwritten."""
        if step + SNAPSHOT_SLOTS < self._steps:
            self._send(b"\x00")

    def losses(self) -> List[float]:
        """The critic losses of the update's steps, once all are announced."""
        return self._losses.tolist()

    def close(self) -> None:
        """End the helper and reap it.

        End of file on its command pipe makes it exit.  A process forked
        from this one while the helper ran may hold that pipe open, so a
        helper still running after :data:`_EXIT_GRACE_S` is killed.
        """
        os.close(self._commands)
        os.close(self._acks)
        deadline = time.monotonic() + _EXIT_GRACE_S
        while os.waitpid(self.pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
                return
            time.sleep(0.0005)

    def _send(self, message: bytes) -> None:
        try:
            os.write(self._commands, message)
        except BrokenPipeError:
            raise self._died() from None

    def _died(self) -> RuntimeError:
        return RuntimeError(f"the critic helper (pid {self.pid}) exited mid-update")


@dataclass
class AgentUpdateSummary:
    """Diagnostics from one :meth:`RiskSensitiveAgent.update` call."""

    critic_loss: float
    actor_loss: float
    gradient_steps: int


class RiskSensitiveAgent:
    """DDPG-style actor/ensemble-critic agent trained on worst-case rewards."""

    def __init__(
        self,
        design_dimension: int,
        config: GlovaConfig,
        rng: Optional[np.random.Generator] = None,
    ):
        self.design_dimension = design_dimension
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.actor = Actor(
            design_dimension,
            hidden_size=config.hidden_size,
            learning_rate=config.actor_learning_rate,
            rng=self.rng,
        )
        self.critic = EnsembleCritic(
            design_dimension,
            ensemble_size=config.effective_ensemble_size(),
            beta1=config.effective_beta1(),
            hidden_size=config.hidden_size,
            learning_rate=config.critic_learning_rate,
            rng=self.rng,
        )
        self.buffer = WorstCaseReplayBuffer()
        self._noise_scale = config.exploration_noise
        self._in_run = False
        self._helper: Optional[_CriticHelper] = None

    # ------------------------------------------------------------------
    @property
    def exploration_noise(self) -> float:
        return self._noise_scale

    #: Exploration noise never decays below this floor, so the agent keeps
    #: probing the neighbourhood of its incumbent even late in a run.
    NOISE_FLOOR = 0.03

    def propose(self, last_design: np.ndarray) -> np.ndarray:
        """Next design = actor(last design) + exploration noise (Alg. 1)."""
        proposal = self.actor.propose(last_design, self._noise_scale, self.rng)
        self._noise_scale = max(
            self._noise_scale * self.config.noise_decay, self.NOISE_FLOOR
        )
        return proposal

    def observe(self, design: np.ndarray, worst_reward: float) -> None:
        """Store a worst-case experience in the replay buffer."""
        self.buffer.add(design, worst_reward)

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def pipelined(self) -> Iterator[None]:
        """One sizing run: updates inside may run the critic's steps in a
        helper process (module docstring), which ends with the scope."""
        self._in_run = True
        try:
            yield
        finally:
            self._in_run = False
            self._stop_helper()

    def _start_helper(self) -> None:
        # SIGINT waits until the helper is recorded, so an interrupt always
        # finds it where the scope's exit reaps it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._helper = _CriticHelper(
                self.critic,
                self.config.gradient_steps_per_iteration,
                self.config.batch_size,
            )
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _stop_helper(self) -> None:
        helper, self._helper = self._helper, None
        if helper is not None:
            helper.close()

    def update(self) -> AgentUpdateSummary:
        """Train critic and actor from the replay buffer.

        Each step trains the K critic members on batches ``0..K-1`` of
        the step, then takes one policy-gradient step, minimising
        ``MSE(0.2, Q(A(x)))``, on batch ``K``.
        """
        if len(self.buffer) == 0:
            raise RuntimeError("cannot update the agent with an empty buffer")
        steps = self.config.gradient_steps_per_iteration
        members = self.critic.ensemble_size
        batch_size = min(self.config.batch_size, len(self.buffer))
        designs, rewards = self.buffer.sample_batches(
            steps * (members + 1), batch_size, self.rng
        )
        designs = designs.reshape(steps, members + 1, batch_size, -1)
        rewards = rewards.reshape(steps, members + 1, batch_size, 1)

        if self._helper is None and self._in_run and pipeline_available():
            self._start_helper()
        if self._helper is not None:
            try:
                critic_losses, actor_losses = self._pipelined_steps(designs, rewards)
            except BaseException:
                # An update cut short leaves the helper mid-update: end it,
                # so that a later update forks a fresh one.
                self._stop_helper()
                raise
        else:
            critic_losses, actor_losses = [], []
            for step_designs, step_rewards in zip(designs, rewards):
                critic_losses.append(
                    self.critic.train(step_designs[:members], step_rewards[:members])
                )
                actions = self.actor.forward_batch(step_designs[members])
                loss, grad_actions = self.critic.actor_loss_gradient(
                    actions, target=FEASIBLE_REWARD
                )
                self.actor.apply_gradient(grad_actions)
                actor_losses.append(loss)
        return AgentUpdateSummary(
            critic_loss=float(np.mean(critic_losses)),
            actor_loss=float(np.mean(actor_losses)),
            gradient_steps=steps,
        )

    def _pipelined_steps(
        self, designs: np.ndarray, rewards: np.ndarray
    ) -> Tuple[List[float], List[float]]:
        """The update's loop with the critic's steps run by the helper."""
        helper, members = self._helper, self.critic.ensemble_size
        helper.start(designs[:, :members], rewards[:, :members])
        actor_losses: List[float] = []
        for step, step_designs in enumerate(designs):
            actions = self.actor.forward_batch(step_designs[members])
            loss, grad_actions = helper.snapshot(step).actor_loss_gradient(
                actions, target=FEASIBLE_REWARD
            )
            helper.release(step)
            self.actor.apply_gradient(grad_actions)
            actor_losses.append(loss)
        return helper.losses(), actor_losses

    # ------------------------------------------------------------------
    def predicted_bound(self, design: np.ndarray) -> float:
        """Risk-sensitive reliability bound for a single design."""
        return float(self.critic.predict(design.reshape(1, -1))[0])

    def best_buffered_design(self) -> np.ndarray:
        """The design with the best stored worst-case reward."""
        return self.buffer.best().design
