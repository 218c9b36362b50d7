"""Tests for the risk-sensitive RL agent (Algorithm 1) and its learner paths."""

import glob
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.circuits import StrongArmLatch
from repro.core import agent as agent_module
from repro.core.actor_critic import EnsembleCritic
from repro.core.agent import RiskSensitiveAgent
from repro.core.config import GlovaConfig, VerificationMethod
from repro.core.optimizer import GlovaOptimizer
from repro.core.reward import FEASIBLE_REWARD
from repro.simulation.service import BatchedBackend

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def config():
    return GlovaConfig(seed=0, gradient_steps_per_iteration=10, hidden_size=32)


@pytest.fixture
def agent(config, rng):
    return RiskSensitiveAgent(design_dimension=5, config=config, rng=rng)


class TestAgentBasics:
    def test_update_requires_data(self, agent):
        with pytest.raises(RuntimeError):
            agent.update()

    def test_propose_stays_in_unit_box(self, agent, rng):
        design = rng.uniform(size=5)
        proposal = agent.propose(design)
        assert proposal.shape == (5,)
        assert np.all(proposal >= 0.0) and np.all(proposal <= 1.0)

    def test_exploration_noise_decays_to_floor(self, agent, rng):
        design = rng.uniform(size=5)
        for _ in range(3000):
            agent.propose(design)
        assert agent.exploration_noise == pytest.approx(agent.NOISE_FLOOR)

    def test_observe_fills_buffer(self, agent, rng):
        agent.observe(rng.uniform(size=5), 0.1)
        assert len(agent.buffer) == 1

    def test_ensemble_size_follows_config(self, rng):
        full = RiskSensitiveAgent(4, GlovaConfig(seed=0), rng)
        ablated = RiskSensitiveAgent(
            4, GlovaConfig(seed=0, use_ensemble_critic=False), rng
        )
        assert full.critic.ensemble_size == GlovaConfig().ensemble_size
        assert ablated.critic.ensemble_size == 1
        assert ablated.critic.beta1 == 0.0

    def test_best_buffered_design(self, agent, rng):
        good = rng.uniform(size=5)
        agent.observe(rng.uniform(size=5), -0.5)
        agent.observe(good, 0.2)
        assert np.allclose(agent.best_buffered_design(), good)


class TestAgentLearning:
    def test_update_returns_finite_losses(self, agent, rng):
        for _ in range(30):
            agent.observe(rng.uniform(size=5), rng.uniform(-1.0, 0.2))
        summary = agent.update()
        assert np.isfinite(summary.critic_loss)
        assert np.isfinite(summary.actor_loss)
        assert summary.gradient_steps == 10

    def test_critic_learns_reward_gradient(self, rng):
        """On a landscape where reward grows with x, the bound must too."""
        config = GlovaConfig(seed=1, gradient_steps_per_iteration=40, hidden_size=32)
        agent = RiskSensitiveAgent(3, config, np.random.default_rng(1))
        for _ in range(200):
            design = agent.rng.uniform(size=3)
            reward = min(FEASIBLE_REWARD, float(design.mean()) - 0.6)
            agent.observe(design, reward)
        for _ in range(10):
            agent.update()
        low = agent.predicted_bound(np.full(3, 0.1))
        high = agent.predicted_bound(np.full(3, 0.9))
        assert high > low

    def test_policy_moves_towards_feasible_region(self, rng):
        """After training, the actor should propose designs with a higher
        predicted bound than an arbitrary starting point."""
        config = GlovaConfig(
            seed=2, gradient_steps_per_iteration=40, hidden_size=32, exploration_noise=0.0
        )
        agent = RiskSensitiveAgent(3, config, np.random.default_rng(2))
        for _ in range(200):
            design = agent.rng.uniform(size=3)
            reward = min(FEASIBLE_REWARD, float(design.mean()) - 0.6)
            agent.observe(design, reward)
        start = np.full(3, 0.3)
        agent.actor.pretrain_towards(np.tile(start, (8, 1)), start, steps=200)
        for _ in range(15):
            agent.update()
        proposal = agent.actor.act(start)
        assert agent.predicted_bound(proposal) >= agent.predicted_bound(start) - 0.05


# ----------------------------------------------------------------------
# The critic helper of the pipelined learner path (repro.core.agent)
# ----------------------------------------------------------------------
#: A GLOVA run that fails after 20 iterations: 21 updates (25 actor steps
#: each), the first after 7 simulation jobs, 27 jobs in all.
RUN_CONFIG = dict(
    verification=VerificationMethod.CORNER_LOCAL_MC,
    seed=0,
    max_iterations=20,
    initial_samples=20,
    verification_samples=8,
)


def sizing_run(**overrides) -> GlovaOptimizer:
    return GlovaOptimizer(StrongArmLatch(), GlovaConfig(**{**RUN_CONFIG, **overrides}))


def live_children() -> set:
    """Pids of this process's children that are not yet reaped."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as handle:
            pids.update(int(pid) for pid in handle.read().split())
    return pids


def assert_reaped(pid: int) -> None:
    assert pid not in live_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def on_actor_step(monkeypatch, actions):
    """Run ``actions[n]()`` just before the ``n``-th actor step's critic
    read (counting from 1; the first update's steps are 1-25)."""
    original = EnsembleCritic.actor_loss_gradient
    calls = []

    def counting(critic, *args, **kwargs):
        calls.append(None)
        if len(calls) in actions:
            actions[len(calls)]()
        return original(critic, *args, **kwargs)

    monkeypatch.setattr(EnsembleCritic, "actor_loss_gradient", counting)


@pytest.fixture
def exit_codes(monkeypatch):
    """pid -> exit code (minus the signal, if killed) of every child
    ``os.waitpid`` reaps during the test."""
    codes = {}
    waitpid = os.waitpid

    def recording(pid, options):
        reaped, status = waitpid(pid, options)
        if reaped:
            codes[reaped] = os.waitstatus_to_exitcode(status)
        return reaped, status

    monkeypatch.setattr(os, "waitpid", recording)
    return codes


@pytest.fixture
def pipelined(monkeypatch):
    """The pipelined path on any host: the selection is patched."""
    monkeypatch.setattr(agent_module, "pipeline_available", lambda: True)


class FailingBackend(BatchedBackend):
    """The batched engine, raising on its ``fail_at``-th job."""

    def __init__(self, fail_at: int):
        self.fail_at, self.jobs = fail_at, 0

    def evaluate(self, circuit, job):
        self.jobs += 1
        if self.jobs == self.fail_at:
            raise RuntimeError(f"engine failed on job {self.jobs}")
        return super().evaluate(circuit, job)


class TestCriticHelperLifecycle:
    """A helper starts at a run's first update and ends with the run,
    however the run ends."""

    def test_no_helper_outlives_the_run(self, pipelined, forked, exit_codes):
        optimizer = sizing_run()
        optimizer.run()
        assert len(forked) == 1
        assert_reaped(forked[0])
        assert exit_codes[forked[0]] == 0  # through os._exit
        assert optimizer.agent._helper is None

    def test_no_helper_outlives_a_backend_failure(
        self, pipelined, forked, exit_codes
    ):
        with pytest.raises(RuntimeError, match="engine failed on job 12"):
            sizing_run(backend=FailingBackend(fail_at=12)).run()
        assert len(forked) == 1
        assert_reaped(forked[0])
        assert exit_codes[forked[0]] == 0

    def test_helper_ignores_sigint_and_the_interrupt_propagates(
        self, pipelined, forked, exit_codes, monkeypatch
    ):
        """A SIGINT to the helper alone changes nothing (the update after
        it completes); one to this process raises KeyboardInterrupt
        mid-update, and the helper is reaped on the way out."""
        on_actor_step(
            monkeypatch,
            {
                10: lambda: os.kill(forked[0], signal.SIGINT),
                60: lambda: (
                    os.kill(forked[0], signal.SIGINT),
                    os.kill(os.getpid(), signal.SIGINT),
                ),
            },
        )
        with pytest.raises(KeyboardInterrupt):
            sizing_run().run()
        assert len(forked) == 1
        assert_reaped(forked[0])
        assert exit_codes[forked[0]] == 0

    def test_bare_update_never_forks(self, pipelined, forked, agent, rng):
        for _ in range(12):
            agent.observe(rng.uniform(size=5), rng.uniform(-1.0, 0.2))
        agent.update()
        assert forked == []
        assert agent._helper is None

    def test_update_cut_short_ends_its_helper(
        self, pipelined, forked, monkeypatch, agent, rng
    ):
        """An exception out of a pipelined update ends the helper, which
        is mid-update; the next update forks a fresh one."""
        for _ in range(12):
            agent.observe(rng.uniform(size=5), rng.uniform(-1.0, 0.2))

        def cut_short():
            raise ArithmeticError("cut short")

        on_actor_step(monkeypatch, {15: cut_short})  # 10 steps per update
        with agent.pipelined():
            agent.update()
            with pytest.raises(ArithmeticError):
                agent.update()
            assert agent._helper is None
            assert_reaped(forked[0])
            agent.update()
            assert len(forked) == 2
        assert_reaped(forked[1])

    def test_helper_death_mid_update_raises(
        self, pipelined, forked, exit_codes, monkeypatch
    ):
        killed = []
        on_actor_step(
            monkeypatch,
            {
                30: lambda: (
                    os.kill(forked[0], signal.SIGKILL),
                    killed.append(time.monotonic()),
                )
            },
        )
        with pytest.raises(RuntimeError, match="critic helper .* exited mid-update"):
            sizing_run().run()
        assert time.monotonic() - killed[0] < 5.0
        assert_reaped(forked[0])
        assert exit_codes[forked[0]] == -signal.SIGKILL

    def test_helper_is_killed_when_another_process_holds_its_pipe(
        self, pipelined, forked, exit_codes, monkeypatch
    ):
        """A process forked mid-run inherits the command pipe, so closing
        it sends the helper no end of file: the grace period ends it."""
        monkeypatch.setattr(agent_module, "_EXIT_GRACE_S", 0.2)

        def fork_a_holder():
            if os.fork() == 0:
                time.sleep(60)
                os._exit(0)

        on_actor_step(monkeypatch, {30: fork_a_holder})
        try:
            sizing_run().run()
            helper, holder = forked
            assert_reaped(helper)
            assert exit_codes[helper] == -signal.SIGKILL
        finally:
            for pid in forked[1:]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def test_helper_exits_when_its_process_is_killed(self):
        """SIGKILL a sizing run's interpreter while the helper waits for
        the next update: the helper reads end of file and exits."""
        script = textwrap.dedent(
            """
            import time
            from repro.circuits import StrongArmLatch
            from repro.core import agent as agent_module
            from repro.core.config import GlovaConfig, VerificationMethod
            from repro.core.optimizer import GlovaOptimizer

            agent_module.pipeline_available = lambda: True
            update = agent_module.RiskSensitiveAgent.update

            def update_then_hang(agent):
                summary = update(agent)
                print(agent._helper.pid, flush=True)
                time.sleep(600)
                return summary

            agent_module.RiskSensitiveAgent.update = update_then_hang
            config = GlovaConfig(verification=VerificationMethod.CORNER, seed=0)
            GlovaOptimizer(StrongArmLatch(), config).run()
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        with subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        ) as child:
            try:
                helper = int(child.stdout.readline())
            finally:
                child.kill()
                child.wait()
        deadline = time.monotonic() + 5.0
        try:
            while self.running(helper) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not self.running(helper)
        finally:
            if self.running(helper):
                os.kill(helper, signal.SIGKILL)

    @staticmethod
    def running(pid: int) -> bool:
        """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        return state not in ("Z", "X")


class TestLearnerPathSelection:
    """The pipeline runs on Linux with ``os.fork``, two CPUs in the
    affinity mask and one live thread; anything less runs sequentially."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture
    def one_thread(self, monkeypatch):
        # Whatever threads earlier tests left in this process.
        monkeypatch.setattr(threading, "active_count", lambda: 1)

    def test_two_cpus_and_one_thread_pick_the_pipeline(
        self, two_cpus, one_thread, forked
    ):
        assert agent_module.pipeline_available()
        sizing_run().run()
        assert len(forked) == 1
        assert_reaped(forked[0])

    def test_one_cpu_runs_sequentially(self, one_thread, monkeypatch, forked):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not agent_module.pipeline_available()
        sizing_run().run()
        assert forked == []

    def test_a_second_live_thread_runs_sequentially(self, two_cpus, forked):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not agent_module.pipeline_available()
            sizing_run().run()
        finally:
            stop.set()
            thread.join()
        assert forked == []

    def test_no_fork_runs_sequentially(self, two_cpus, one_thread, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert not agent_module.pipeline_available()
        assert sizing_run().run().iterations == RUN_CONFIG["max_iterations"]
