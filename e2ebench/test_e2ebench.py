"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root with ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import e2e_clock  # noqa: E402
import e2e_trace  # noqa: E402
import e2e_workloads  # noqa: E402
import run  # noqa: E402
from repro.agents.pairuplight import PairUpLightSystem  # noqa: E402
from repro.serve import ControlService  # noqa: E402
from repro.sim.sharded import ShardedSimulation  # noqa: E402

#: 2x2 grid, 10 decisions per episode.
TINY = dict(
    rows=2,
    cols=2,
    peak_rate=300.0,
    t_peak=30.0,
    light_duration=60.0,
    horizon_ticks=50,
    max_ticks=600,
    train_episodes=1,
    eval_episodes=1,
)
SECONDS = 0.05


def tiny(name: str) -> e2e_workloads.Workload:
    if name == "train_serial":
        return e2e_workloads.TrainSerial(3, scale=TINY)
    if name == "train_shared_b8":
        return e2e_workloads.TrainSharedB8(3, scale=TINY, batch=4)
    if name == "serve_6x6":
        return e2e_workloads.Serve6x6(3, scale=TINY)
    return e2e_workloads.CitySharded(3, rows=3, cols=3, shards=1)


def declared(kind: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == e2e_trace.PER_LAYER
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(e2e_workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", e2e_workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = run.measure(tiny(name), SECONDS, trace)
    assert result["correct"], result["notes"]["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == [metric for metric, _ in expected]
    assert run.metric_units(trace) == expected
    assert all(math.isfinite(v) for v in result["metrics"].values())
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())
    # The serving checkpoint's temporary directory is gone.
    assert not list((ROOT / "e2ebench").glob(".serve-*"))


@pytest.mark.parametrize(
    "name, batch_agents",
    [("train_serial", 4), ("train_shared_b8", 16)],
)
def test_traced_layers_account_for_the_iteration(name, batch_agents):
    result = run.measure(tiny(name), SECONDS, True)
    metrics = result["metrics"]
    shares = sum(
        value
        for metric, value in metrics.items()
        if metric.endswith("share") and metric != "trace_overhead_share"
    )
    assert shares == pytest.approx(1.0, abs=1e-9)
    # 4 epochs x ceil(agents / 8) minibatches, with target_kl pinned off.
    assert metrics["rl.minibatch_steps"] == 4 * -(-batch_agents // 8)
    assert metrics["rl.update_calls_per_op"] == 1
    assert metrics["agents.act_calls_per_op"] == 10
    assert metrics["sim.step_calls_per_op"] == 10


def test_nan_update_counts_as_failed_and_is_not_timed(monkeypatch):
    original = PairUpLightSystem.end_episode
    calls = []

    def poisoned(self, env, training):
        stats = original(self, env, training)
        calls.append(None)
        if len(calls) == 3:  # a measured iteration, after the warm-up
            time.sleep(1.0)
            stats = dict(stats, policy_loss=float("nan"))
        return stats

    monkeypatch.setattr(PairUpLightSystem, "end_episode", poisoned)
    workload = tiny("train_serial")
    result = run.measure(workload, SECONDS, False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["notes"]["ops_measured"] == result["attempted"] - 2
    # The slow, poisoned iteration is not among the timed ones.
    assert result["metrics"]["op_tail_ms"] < 1000.0


def test_unserved_intersection_counts_as_failed(monkeypatch):
    original = ControlService.decide
    calls = []

    def dropping(self, observations):
        actions = original(self, observations)
        calls.append(None)
        if len(calls) == 53:  # just after the 50 warm-up decisions
            actions.pop(next(iter(actions)))
        return actions

    monkeypatch.setattr(ControlService, "decide", dropping)
    result = run.measure(tiny("serve_6x6"), SECONDS, False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] % 4 == 0


def test_raising_tick_counts_as_failed(monkeypatch):
    original = ShardedSimulation.run
    calls = []

    def failing(self, ticks):
        calls.append(None)
        if len(calls) == 202:  # just after the 200 warm-up ticks
            raise RuntimeError("injected shard failure")
        return original(self, ticks)

    monkeypatch.setattr(ShardedSimulation, "run", failing)
    result = run.measure(tiny("city_sharded"), SECONDS, False)
    assert not result["correct"]
    assert result["failed"] == 1
    # Every checked tick is attempted: 200 warm-up ticks, one measured
    # tick and the tick that raised.
    assert result["attempted"] == 202
    assert "injected shard failure" in result["notes"]["errors"][0]


def test_host_clock_leaves_out_its_probes():
    clock = e2e_clock.HostClock(interval=0.01)
    with clock:
        begun, started, spent = time.perf_counter(), clock.now(), clock.spent
        while time.perf_counter() < begun + 0.2:
            pass
        seconds = clock.now() - started
        wall, spent = time.perf_counter() - begun, clock.spent - spent
    assert len(clock.durations) >= 5
    assert spent > 0
    assert seconds == pytest.approx(wall - spent, abs=1e-4)


def test_host_clock_divides_by_the_trimmed_mean_slowdown():
    clock = e2e_clock.HostClock(window=0.0)
    clock.stamps = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    clock.durations = [
        e2e_clock.REFERENCE_S * x for x in (0.1, 2.0, 2.0, 9.0, 2.0, 2.0, 9.0, 0.1)
    ]
    # The fastest and the slowest quarter are left out.
    assert clock.slowdown(0.0, 7.0) == pytest.approx(2.0)
    assert clock.corrected(1.0, 0.0, 7.0) == pytest.approx(
        0.5**e2e_clock.SENSITIVITY
    )
    # No probe in the window: the ones on either side.
    assert clock.slowdown(1.5, 1.6) == pytest.approx(2.0)


def test_tail_is_p99_only_with_ten_samples_beyond_it():
    assert run.tail_ms([0.001] * 5 + [0.002]) == pytest.approx(2.0)
    samples = [i / 1000.0 for i in range(1, 1001)]
    assert run.tail_ms(samples) < 1000.0 * max(samples)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench")
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "train_serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
