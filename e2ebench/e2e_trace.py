"""Timing spans around the program's public calls, for the traced run.

The benchmark does not edit the program to trace it.  While a traced
operation runs, :class:`Tracer` replaces a few public methods on their
classes with wrappers that open and close a span per call, and puts the
originals back as soon as the operation returns, so untraced operations
run the unmodified code.

Spans nest through a stack: a span's *self time* is its duration minus
the time its child spans cover.  The harness opens one root span named
``op`` per traced operation, so the self times of all spans recorded in
one operation add up to that operation's wall time.  Counters are
wrappers that only count calls (``Adam.step`` counts PPO minibatch
steps), so they add no span of their own.
"""

from __future__ import annotations

import functools
import time

import numpy as np

#: Per-layer metrics of the traced run, in ``BENCHMARK.json`` order.
#: Every workload reports every one; a layer a workload never enters
#: reads 0.  ``*_ms``/``*_s`` are means per call unless named ``p99``;
#: ``*_share`` is self time over the traced operations' wall time, and
#: the ``*_share`` metrics of one workload sum to 1.
PER_LAYER = [
    ("rl.update_calls_per_op", "count"),
    ("rl.update_s", "s"),
    ("rl.update_share", "ratio"),
    ("rl.minibatch_steps", "count"),
    ("rl.update_ms_per_minibatch", "ms"),
    ("rl.runner.self_s", "s"),
    ("rl.runner.share", "ratio"),
    ("eval.batched.self_s", "s"),
    ("eval.batched.reset_all_ms", "ms"),
    ("eval.batched.step_all_self_ms", "ms"),
    ("eval.batched.share", "ratio"),
    ("agents.act_calls_per_op", "count"),
    ("agents.act_ms", "ms"),
    ("agents.act_p99_ms", "ms"),
    ("agents.observe_ms", "ms"),
    ("agents.share", "ratio"),
    ("env.step_calls_per_op", "count"),
    ("env.finish_ms", "ms"),
    ("env.reset_ms", "ms"),
    ("env.share", "ratio"),
    ("sim.step_calls_per_op", "count"),
    ("sim.step_ms", "ms"),
    ("sim.share", "ratio"),
    ("sim.sharded.tick_ms", "ms"),
    ("sim.sharded.share", "ratio"),
    ("sim.sharded.handoffs_per_tick", "count"),
    ("sim.sharded.edge_cut", "count"),
    ("sim.sharded.vehicles_in_network", "count"),
    ("serve.decide_self_ms", "ms"),
    ("serve.share", "ratio"),
    ("serve.fallback_share", "ratio"),
    ("serve.deadline_misses", "count"),
    ("bench.loop_share", "ratio"),
    ("trace_overhead_share", "ratio"),
]


class Tracer:
    """Installs span and counter wrappers and records what they see.

    ``spans`` and ``counters`` are ``(owner_class, method_name,
    span_name)`` triples.  Use :meth:`installed` around each traced
    operation; records accumulate across operations until
    :meth:`aggregate` reads them.
    """

    def __init__(self, spans, counters=()) -> None:
        self._wrappers = [
            (owner, attr, self._span_wrapper(name, getattr(owner, attr)))
            for owner, attr, name in spans
        ] + [
            (owner, attr, self._count_wrapper(name, getattr(owner, attr)))
            for owner, attr, name in counters
        ]
        self._stack: list[list] = []
        #: ``(name, duration_s, self_s)`` per closed span.
        self.records: list[tuple[str, float, float]] = []
        self.counts: dict[str, int] = {}

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.records.append((name, duration, duration - children))

    def install(self) -> None:
        # Each method must be defined on the class itself, so that
        # uninstalling can restore exactly what was there.
        self._saved = []
        for owner, attr, wrapper in self._wrappers:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def aggregate(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s``, ``self_s``, ``durations``."""
        out: dict[str, dict] = {}
        for name, duration, self_s in self.records:
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_s
            entry["durations"].append(duration)
        return out


def layer_metrics(
    agg: dict[str, dict],
    counts: dict[str, int],
    root_owner: str,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans.

    ``root_owner`` names the layer the ``op`` span's own self time
    belongs to: the serial trainer (``rl.runner``), the lockstep trainer
    (``eval.batched``), or the benchmark's own loop (``bench.loop``).
    ``extras`` carries the values that come from the program's own
    summaries rather than from spans, and ``trace_overhead_share``.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def span(name: str) -> dict:
        return agg.get(name, empty)

    ops = span("op")["calls"]
    wall = span("op")["total_s"]

    def mean_ms(name: str, key: str = "total_s") -> float:
        entry = span(name)
        return 1000.0 * entry[key] / entry["calls"] if entry["calls"] else 0.0

    def share(*names: str) -> float:
        return sum(span(n)["self_s"] for n in names) / wall if wall else 0.0

    def per_op(*names: str) -> float:
        return sum(span(n)["calls"] for n in names) / ops if ops else 0.0

    root_self_s = span("op")["self_s"] / ops if ops else 0.0
    update = span("rl.update")
    minibatches = counts.get("rl.minibatch", 0)
    act = span("agents.act")
    env_steps = span("env.step")["calls"] + span("env.finish")["calls"]
    env_finish_self = span("env.step")["self_s"] + span("env.finish")["self_s"]
    metrics = {
        "rl.update_calls_per_op": per_op("rl.update"),
        "rl.update_s": mean_ms("rl.update") / 1000.0,
        "rl.update_share": share("rl.update"),
        "rl.minibatch_steps": minibatches / update["calls"] if update["calls"] else 0.0,
        "rl.update_ms_per_minibatch": (
            1000.0 * update["total_s"] / minibatches if minibatches else 0.0
        ),
        "rl.runner.self_s": root_self_s if root_owner == "rl.runner" else 0.0,
        "rl.runner.share": share("op") if root_owner == "rl.runner" else 0.0,
        "eval.batched.self_s": root_self_s if root_owner == "eval.batched" else 0.0,
        "eval.batched.reset_all_ms": mean_ms("eval.batched.reset_all"),
        "eval.batched.step_all_self_ms": mean_ms("eval.batched.step_all", "self_s"),
        "eval.batched.share": share("eval.batched.reset_all", "eval.batched.step_all")
        + (share("op") if root_owner == "eval.batched" else 0.0),
        "agents.act_calls_per_op": per_op("agents.act"),
        "agents.act_ms": mean_ms("agents.act"),
        "agents.act_p99_ms": (
            1000.0 * float(np.percentile(act["durations"], 99.0))
            if act["calls"]
            else 0.0
        ),
        "agents.observe_ms": mean_ms("agents.observe"),
        "agents.share": share("agents.act", "agents.observe"),
        "env.step_calls_per_op": per_op("env.step", "env.finish"),
        "env.finish_ms": 1000.0 * env_finish_self / env_steps if env_steps else 0.0,
        "env.reset_ms": mean_ms("env.reset"),
        "env.share": share("env.step", "env.finish", "env.reset"),
        "sim.step_calls_per_op": per_op("sim.step"),
        "sim.step_ms": mean_ms("sim.step"),
        "sim.share": share("sim.step"),
        "sim.sharded.tick_ms": mean_ms("sim.sharded.tick"),
        "sim.sharded.share": share("sim.sharded.tick"),
        "sim.sharded.handoffs_per_tick": 0.0,
        "sim.sharded.edge_cut": 0.0,
        "sim.sharded.vehicles_in_network": 0.0,
        "serve.decide_self_ms": mean_ms("serve.decide", "self_s"),
        "serve.share": share("serve.decide"),
        "serve.fallback_share": 0.0,
        "serve.deadline_misses": 0.0,
        "bench.loop_share": share("op") if root_owner == "bench.loop" else 0.0,
        "trace_overhead_share": 0.0,
    }
    metrics.update(extras)
    return metrics
