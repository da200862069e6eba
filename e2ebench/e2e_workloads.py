"""The four workloads of the end-to-end benchmark.

Each workload drives one production entry point from outside and checks
its outputs.  A workload is built from the benchmark seed alone: every
demand, weight and fault seed it hands the program is drawn from
``numpy.random.default_rng(seed)``.  Sizes are constructor arguments so
that the benchmark's own tests can run each workload at a tiny scale;
the defaults are the benchmarked sizes.

The harness in ``run.py`` calls ``setup`` several times (timing each),
then ``op`` repeatedly.  Each operation adds ``attempts()`` to the run's
``attempted`` count.  ``op`` returns an :class:`OpOutcome`; an operation
with ``failed > 0``, or one that raises, is counted as failed and its
time is left out of every reported timing.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro.agents.pairuplight import PairUpLightConfig, PairUpLightSystem
from repro.agents.pairuplight.batched import BatchedPolicyGroup
from repro.env.tsc_env import TrafficSignalEnv
from repro.eval.batched import LockstepEnvGroup, train_lockstep
from repro.eval.batched_obs import BatchedStepExtractor
from repro.eval.harness import ExperimentScale, GridExperiment
from repro.eval.sharded import sharded_grid_workload
from repro.faults.config import FaultConfig
from repro.nn.optim import Adam
from repro.rl.ppo import PPOConfig
from repro.rl.runner import train
from repro.serve import ControlService, PolicyRuntime, ServeConfig
from repro.sim.engine import Simulation
from repro.sim.sharded import ShardedSimulation, ShardRuntime
from repro.sim.soa import SoAEngine

#: The 4x4 training scale of ``bench_train``/``bench_update`` (pattern 1,
#: 450-tick horizon = 90 decisions at delta_t = 5).  Copied, not
#: imported, so a change to the program's own benchmarks cannot change
#: this benchmark's inputs.
TRAIN_SCALE = dict(
    rows=4,
    cols=4,
    peak_rate=600.0,
    t_peak=150.0,
    light_duration=300.0,
    horizon_ticks=450,
    max_ticks=3600,
    train_episodes=1,
    eval_episodes=1,
)


@dataclass
class OpOutcome:
    """One operation as the user sees it."""

    #: Latency timed from outside around the entry point.
    seconds: float
    #: How many of the operation's ``attempts()`` went wrong.
    failed: int
    #: Work done: env-steps, intersection decisions or ticks.
    work: int


class Workload:
    """Interface the harness drives; see the module docstring."""

    #: Layer owning the root span's self time (see ``layer_metrics``).
    root_owner = "bench.loop"
    #: Timed set-ups; ``setup_s`` is their median.  Set-ups of tens of
    #: milliseconds need many for the median to hold still.
    setup_reps = 51
    #: Untimed operations run after set-up (outputs still checked).
    warmup_ops = 1
    #: Consecutive operations per traced/untraced block in a traced run.
    block = 1
    #: Operations measured per second of ``--seconds``, about the rate on
    #: a 2-vCPU VM.  The count is fixed, not the time: every run of every
    #: version measures the same operations, so the tail percentile and
    #: the working set reached do not depend on speed.
    ops_per_second = 1.25
    #: Collect garbage between operations, outside the timed region.
    gc_between_ops = False
    #: Clock every operation is timed with; the harness replaces it with
    #: one that leaves out its host-speed probes (``e2e_clock.py``).
    clock = staticmethod(time.perf_counter)

    def prepare(self) -> None:
        """One-off input generation before the timed set-ups."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` built."""

    def cleanup(self) -> None:
        """Remove what ``prepare`` wrote."""

    def op(self) -> OpOutcome:
        raise NotImplementedError

    def attempts(self) -> int:
        """Checked outputs of one operation: episodes, intersection
        decisions or ticks."""
        return 1

    def spans(self) -> list:
        return []

    def counters(self) -> list:
        return []

    def window_begin(self) -> dict:
        """Program-side counters at the start of the measured window."""
        return {}

    def window_extras(self, begin: dict, ops: int) -> dict[str, float]:
        """Per-layer values from the program's own summaries."""
        return {}

    def final_check(self) -> None:
        """End-of-run correctness check; raises if the outputs are wrong."""


def _seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(0, 2**30, size=count)]


def _good_episodes(history) -> int:
    """Episodes of one history whose wait, reward and update stats are
    all finite.  Aborted and rolled-back episodes leave no log, so they
    are missing from the count."""
    good = 0
    for log in history.episodes:
        stats = [v for v in log.update_stats.values() if isinstance(v, (int, float))]
        if (
            stats
            and math.isfinite(log.avg_wait)
            and math.isfinite(log.total_reward)
            and all(math.isfinite(v) for v in stats)
        ):
            good += 1
    return good


def _train_config() -> PairUpLightConfig:
    # target_kl=None pins every update to epochs x minibatches steps, so
    # a numerics change cannot change the amount of update work.
    return PairUpLightConfig(ppo=PPOConfig(target_kl=None))


class TrainSerial(Workload):
    """``rl.runner.train`` on one object-engine env (the paper's loop)."""

    root_owner = "rl.runner"
    gc_between_ops = True

    def __init__(self, seed: int, scale: dict | None = None) -> None:
        self.scale = ExperimentScale(**(scale or TRAIN_SCALE))
        self.env_seed, self.agent_seed, self.episode_seed = _seeds(seed, 3)

    def setup(self) -> None:
        experiment = GridExperiment(self.scale, seed=self.env_seed)
        self.env = experiment.train_env(1)
        self.agent = PairUpLightSystem(self.env, _train_config(), seed=self.agent_seed)
        self.steps = -(-self.scale.horizon_ticks // self.env.config.delta_t)
        self.iteration = 0

    def op(self) -> OpOutcome:
        seed = self.episode_seed + self.iteration
        self.iteration += 1
        started = self.clock()
        history = train(self.agent, self.env, 1, seed=seed)
        seconds = self.clock() - started
        return OpOutcome(seconds, 1 - _good_episodes(history), self.steps)

    def spans(self) -> list:
        return [
            (TrafficSignalEnv, "reset", "env.reset"),
            (PairUpLightSystem, "act", "agents.act"),
            (TrafficSignalEnv, "step", "env.step"),
            (Simulation, "step", "sim.step"),
            (PairUpLightSystem, "observe", "agents.observe"),
            (PairUpLightSystem, "end_episode", "rl.update"),
        ]

    def counters(self) -> list:
        return [(Adam, "step", "rl.minibatch")]


class TrainSharedB8(Workload):
    """``train_lockstep`` with one policy shared by B replicas on one
    SoA engine: the fastest training path."""

    root_owner = "eval.batched"
    setup_reps = 21
    gc_between_ops = True
    ops_per_second = 0.25

    def __init__(self, seed: int, scale: dict | None = None, batch: int = 8) -> None:
        self.scale = ExperimentScale(**(scale or TRAIN_SCALE))
        self.batch = batch
        seeds = _seeds(seed, 2 + batch)
        self.env_seed, self.agent_seed = seeds[:2]
        self.episode_seeds = seeds[2:]

    def setup(self) -> None:
        experiment = GridExperiment(self.scale, seed=self.env_seed)
        self.envs = [experiment.train_env(1) for _ in range(self.batch)]
        self.agents = [
            PairUpLightSystem(env, _train_config(), seed=self.agent_seed + b)
            for b, env in enumerate(self.envs)
        ]
        self.steps = self.batch * -(
            -self.scale.horizon_ticks // self.envs[0].config.delta_t
        )
        self.iteration = 0

    def op(self) -> OpOutcome:
        seeds = [s + self.iteration for s in self.episode_seeds]
        self.iteration += 1
        # Timed here, not from EpisodeLog: train_lockstep stops its clock
        # before the PPO update (see README.md).
        started = self.clock()
        histories = train_lockstep(
            self.agents,
            self.envs,
            1,
            seeds,
            batched_policy=True,
            shared_across_replicas=True,
        )
        seconds = self.clock() - started
        good = sum(_good_episodes(h) for h in histories)
        return OpOutcome(seconds, self.batch - good, self.steps)

    def attempts(self) -> int:
        return self.batch

    def spans(self) -> list:
        return [
            (LockstepEnvGroup, "reset_all", "eval.batched.reset_all"),
            (BatchedPolicyGroup, "act_all", "agents.act"),
            (LockstepEnvGroup, "step_all", "eval.batched.step_all"),
            (SoAEngine, "step", "sim.step"),
            (BatchedStepExtractor, "finish_all", "env.finish"),
            (BatchedPolicyGroup, "observe_all", "agents.observe"),
            (BatchedPolicyGroup, "end_episode_all", "rl.update"),
        ]

    def counters(self) -> list:
        return [(Adam, "step", "rl.minibatch")]


class Serve6x6(Workload):
    """``ControlService.decide`` on the paper's 6x6 grid under faults,
    closed loop with one caller; ``env.step`` runs outside the timing."""

    warmup_ops = 50
    block = 50
    # Above the rate (~150/s with the untimed engine step), so that p99
    # has 36 samples beyond it at 12 s.
    ops_per_second = 300.0

    #: ``bench_serve``'s fault schedule.
    FAULTS = FaultConfig(controller_failure=0.25, message_delay=0.25)

    def __init__(self, seed: int, scale: dict | None = None) -> None:
        self.scale = ExperimentScale(**(scale or dict(TRAIN_SCALE, rows=6, cols=6)))
        self.env_seed, self.agent_seed, self.episode_seed = _seeds(seed, 3)

    def _env(self) -> TrafficSignalEnv:
        experiment = GridExperiment(self.scale, seed=self.env_seed)
        return experiment.train_env(1, faults=self.FAULTS)

    def prepare(self) -> None:
        # Under the benchmark's own directory: it writes nowhere else.
        self.workdir = tempfile.TemporaryDirectory(
            prefix=".serve-", dir=os.path.dirname(os.path.abspath(__file__))
        )
        self.checkpoint = os.path.join(self.workdir.name, "policy.npz")
        PairUpLightSystem(self._env(), seed=self.agent_seed).save(self.checkpoint)

    def cleanup(self) -> None:
        self.workdir.cleanup()

    def setup(self) -> None:
        env = self.env = self._env()
        runtime = PolicyRuntime(
            lambda: PairUpLightSystem(env, seed=self.agent_seed),
            checkpoint=self.checkpoint,
        )
        self.service = ControlService(env, runtime, ServeConfig())
        self.observations = self.service.start_episode(seed=self.episode_seed)

    def op(self) -> OpOutcome:
        env = self.env
        started = self.clock()
        actions = self.service.decide(self.observations)
        seconds = self.clock() - started
        # An intersection is unserved unless it got a valid action;
        # deadline misses served by the fallback are not failures.
        failed = sum(
            1
            for node_id in env.agent_ids
            if not (
                node_id in actions
                and isinstance(actions[node_id], (int, np.integer))
                and env.action_spaces[node_id].contains(int(actions[node_id]))
            )
        )
        if failed == 0:
            result = env.step(actions)
            if result.done:
                self.service.health.episodes += 1
                self.observations = self.service.start_episode()
            else:
                self.observations = result.observations
        return OpOutcome(seconds, failed, len(env.agent_ids))

    def attempts(self) -> int:
        return len(self.env.agent_ids)

    def spans(self) -> list:
        return [
            (ControlService, "decide", "serve.decide"),
            (PolicyRuntime, "act", "agents.act"),
            (TrafficSignalEnv, "step", "env.step"),
            (TrafficSignalEnv, "reset", "env.reset"),
            (Simulation, "step", "sim.step"),
        ]

    def window_begin(self) -> dict:
        health = self.service.health
        return {
            "served": health.intersections_served,
            "fallback": health.fallback_ticks,
            "misses": health.deadline_misses,
        }

    def window_extras(self, begin: dict, ops: int) -> dict[str, float]:
        health = self.service.health
        served = health.intersections_served - begin["served"]
        fallback = health.fallback_ticks - begin["fallback"]
        return {
            "serve.fallback_share": fallback / served if served else 0.0,
            "serve.deadline_misses": float(health.deadline_misses - begin["misses"]),
        }


class CitySharded(Workload):
    """``ShardedSimulation.run`` on a 50x50 grid under fixed-time
    control, cut into 2 shards: the engine and the shard exchange are the
    whole cost.  The shards run in-process (see README.md for why not in
    forked workers)."""

    setup_reps = 3
    warmup_ops = 200
    block = 50
    ops_per_second = 50.0

    def __init__(self, seed: int, rows: int = 50, cols: int = 50, shards: int = 2) -> None:
        self.rows, self.cols, self.shards = rows, cols, shards
        (self.sim_seed,) = _seeds(seed, 1)
        self.sim: ShardedSimulation | None = None

    def setup(self) -> None:
        scenario, flows = sharded_grid_workload(self.rows, self.cols)
        self.sim = ShardedSimulation(
            scenario.network,
            scenario.phase_plans,
            flows,
            self.shards,
            seed=self.sim_seed,
        )

    def teardown(self) -> None:
        if self.sim is not None:
            self.sim.close()
            self.sim = None

    def op(self) -> OpOutcome:
        started = self.clock()
        self.sim.run(1)
        return OpOutcome(self.clock() - started, 0, 1)

    def spans(self) -> list:
        # In-process shards make the engine visible: a shard's tick is the
        # engine tick plus its handoff bookkeeping, and the coordinator's
        # self time is the exchange between shards.
        return [
            (ShardedSimulation, "run", "sim.sharded.tick"),
            (ShardRuntime, "tick", "sim.step"),
        ]

    def window_begin(self) -> dict:
        return {"handoffs": self.sim.handoffs_total}

    def window_extras(self, begin: dict, ops: int) -> dict[str, float]:
        summary = self.sim.summary()
        return {
            "sim.sharded.handoffs_per_tick": (summary["handoffs"] - begin["handoffs"])
            / max(ops, 1),
            "sim.sharded.edge_cut": float(summary["edge_cut"]),
            "sim.sharded.vehicles_in_network": float(summary["in_network"]),
        }

    def final_check(self) -> None:
        self.sim.check_conservation()


WORKLOADS = ("train_serial", "train_shared_b8", "serve_6x6", "city_sharded")


def make(name: str, seed: int) -> Workload:
    """The benchmarked workload ``name`` at its full size."""
    if name == "train_serial":
        return TrainSerial(seed)
    if name == "train_shared_b8":
        return TrainSharedB8(seed)
    if name == "serve_6x6":
        return Serve6x6(seed)
    if name == "city_sharded":
        return CitySharded(seed)
    raise ValueError(f"unknown workload {name!r}")
