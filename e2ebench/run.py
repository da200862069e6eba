"""End-to-end benchmark: training iterations, served decisions, city ticks.

Run from the repository root::

    python3 e2ebench/run.py --workload train_serial --seed 0 --seconds 12 --trace 0
    python3 e2ebench/run.py --seed 0 --seconds 12        # all four workloads

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics instead, from timing spans
installed around the program's public calls (see ``e2e_trace.py``).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Modules that import numpy are imported inside functions: numpy must
# load after ``THREAD_ENV`` is set in ``__main__``.

#: End-to-end metrics of the untraced run, in ``BENCHMARK.json`` order.
#: Every workload reports each one; "op" is the workload's unit
#: operation (a training iteration, a ``decide`` call, a tick).
END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

#: The same end-to-end values under the names the workload's users know
#: them by, as ``(metric, alias, scale, unit)``; printed, not in the JSON.
ALIASES = {
    "train_serial": [
        ("op_p50_ms", "iteration_s", 1e-3, "s"),
        ("throughput_per_s", "env_steps_per_s", 1.0, "1/s"),
    ],
    "train_shared_b8": [
        ("op_p50_ms", "iteration_s", 1e-3, "s"),
        ("throughput_per_s", "env_steps_per_s", 1.0, "1/s"),
    ],
    "serve_6x6": [
        ("op_p50_ms", "decide_p50_ms", 1.0, "ms"),
        ("op_tail_ms", "decide_p99_ms", 1.0, "ms"),
        ("throughput_per_s", "intersection_decisions_per_s", 1.0, "1/s"),
    ],
    "city_sharded": [
        ("op_p50_ms", "tick_p50_ms", 1.0, "ms"),
        ("op_tail_ms", "tick_p99_ms", 1.0, "ms"),
        ("throughput_per_s", "ticks_per_s", 1.0, "1/s"),
    ],
}

#: Threads each library may use.  One driving thread on one CPU per
#: workload keeps the load the benchmark puts on the host fixed.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fewest operations measured per run, whatever ``--seconds`` says.
MIN_OPS = 3


class BenchmarkError(Exception):
    """The run produced no trustworthy result."""


def tail_ms(seconds: list[float]) -> float:
    """The highest percentile, at most p99, with ten samples beyond it;
    below 20 samples none above the median has, so the slowest."""
    import numpy as np

    if len(seconds) < 20:
        return 1000.0 * max(seconds)
    q = min(99.0, 100.0 * (1.0 - 10.0 / len(seconds)))
    return 1000.0 * float(np.percentile(seconds, q))


def peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, warm up, measure and check one workload.

    Returns ``{"correct", "attempted", "failed", "metrics", "notes"}``.
    In an untraced run every time is corrected for the host's speed
    (``e2e_clock.py``); the uncorrected figures go to the notes.
    In a traced run, operations alternate between untraced and traced
    blocks of ``workload.block``; the per-layer numbers come from the
    traced ones and ``trace_overhead_share`` from comparing the two.
    """
    from e2e_clock import HostClock
    from e2e_trace import Tracer, layer_metrics

    attempted = failed = 0
    errors: list[str] = []
    # seconds (program time), wall start, wall end, traced, work
    samples: list[tuple[float, float, float, bool, int]] = []
    setups: list[tuple[float, float, float]] = []
    extras: dict[str, float] = {}
    tracer = Tracer(workload.spans(), workload.counters()) if trace else None
    # End-to-end times are corrected for the host's speed; the traced run
    # reports raw times, so its spans see no probes.
    clock = None if trace else HostClock()
    if clock is not None:
        workload.clock = clock.now
    try:
        with clock or contextlib.nullcontext():
            workload.prepare()
            for rep in range(workload.setup_reps):
                if rep:
                    workload.teardown()
                gc.collect()
                begun = time.perf_counter()
                started = workload.clock()
                workload.setup()
                setups.append((workload.clock() - started, begun, time.perf_counter()))

            def run_op(traced: bool):
                nonlocal attempted, failed
                if workload.gc_between_ops:
                    gc.collect()
                if traced:
                    tracer.install()
                    tracer.begin("op")
                # Warm-up operations are checked too, so they count here.
                attempted += workload.attempts()
                started = time.perf_counter()
                try:
                    outcome = workload.op()
                except Exception:
                    # An operation that raised served none of its attempts.
                    failed += workload.attempts()
                    raise
                finally:
                    ended = time.perf_counter()
                    if traced:
                        tracer.end()
                        tracer.uninstall()
                failed += outcome.failed
                return outcome, started, ended

            for _ in range(workload.warmup_ops):
                run_op(False)
            window = workload.window_begin()
            ops = max(
                MIN_OPS,
                2 * workload.block if trace else 0,
                round(workload.ops_per_second * seconds),
            )
            for done in range(ops):
                traced = trace and (done // workload.block) % 2 == 1
                outcome, started, ended = run_op(traced)
                # A wrong output is a failure, never a timing sample.
                if not outcome.failed:
                    samples.append((outcome.seconds, started, ended, traced, outcome.work))
            extras = workload.window_extras(window, len(samples))
            workload.final_check()
    except Exception:  # a crashed or wrong run still reports what it saw
        errors.append(traceback.format_exc())
        # A set-up or final check that raised fails the run as a whole.
        failed = max(failed, 1)
        attempted = max(attempted, failed)
    finally:
        workload.teardown()
        workload.cleanup()

    def corrected(seconds: float, started: float, ended: float) -> float:
        return seconds if clock is None else clock.corrected(seconds, started, ended)

    plain = [s for s in samples if not s[3]]
    if not plain or (trace and len(plain) == len(samples)):
        raise BenchmarkError(
            "no successful operation to time" + ("\n" + "".join(errors) if errors else "")
        )
    if trace:
        traced_walls = [s[2] - s[1] for s in samples if s[3]]
        plain_wall = statistics.median(s[2] - s[1] for s in plain)
        extras["trace_overhead_share"] = (
            statistics.median(traced_walls) - plain_wall
        ) / plain_wall
        metrics = layer_metrics(
            tracer.aggregate(), tracer.counts, workload.root_owner, extras
        )
    else:
        latencies = [corrected(*s[:3]) for s in plain]
        metrics = {
            "setup_s": statistics.median(corrected(*s) for s in setups),
            "op_p50_ms": 1000.0 * statistics.median(latencies),
            "op_tail_ms": tail_ms(latencies),
            "throughput_per_s": sum(s[4] for s in plain) / sum(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        raw = [s[0] for s in plain]
        uncorrected = {
            "raw_op_p50_ms": 1000.0 * statistics.median(raw),
            "raw_op_tail_ms": tail_ms(raw),
            "raw_setup_s": statistics.median(s[0] for s in setups),
            "host_slowdown": statistics.median(
                clock.slowdown(s[1], s[2]) for s in plain
            ),
        }
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": {
            "uncorrected": {} if trace else uncorrected,
            "setup_reps": len(setups),
            "ops_measured": len(plain),
            "ops_traced": len(samples) - len(plain),
            "errors": errors,
        },
    }


def blas_threads() -> int | str:
    """Threads the BLAS numpy loaded is running with (OpenBLAS only)."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_sha() -> str:
    """Commit of the checkout, or ``unknown`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    import e2e_workloads

    workload = e2e_workloads.make(name, seed)
    # One CPU: the program's threads (the serving watchdog starts one
    # per decision) then never wake across CPUs, whose cost on a shared
    # VM swings from run to run (README.md).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    result = measure(workload, seconds, trace)
    context = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(cpus),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
    }
    result["notes"]["context"] = context
    return result


def metric_units(trace: bool) -> list[tuple[str, str]]:
    from e2e_trace import PER_LAYER

    return PER_LAYER if trace else END_TO_END


def report(name: str, result: dict, trace: bool) -> None:
    """Human-readable lines: context, every metric with its unit."""
    notes = result["notes"]
    print(f"# {name}: context {json.dumps(notes['context'], sort_keys=True)}")
    for error in notes["errors"]:
        print(f"# {name}: error\n{error}", file=sys.stderr)
    print(
        f"# {name}: {notes['setup_reps']} set-ups, {notes['ops_measured']} "
        f"untraced and {notes['ops_traced']} traced operations measured"
    )
    units = dict(metric_units(trace))
    for metric, value in result["metrics"].items():
        print(f"{name}.{metric} = {value:.6g} {units[metric]}")
    for key, value in notes["uncorrected"].items():
        print(f"# {name}: {key} = {value:.6g}")
    if not trace:
        for metric, alias, scale, unit in ALIASES[name]:
            print(f"{name}.{alias} = {result['metrics'][metric] * scale:.6g} {unit}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(
        f"{name}.failed_share = {share:.6g} ratio "
        f"({result['failed']} of {result['attempted']} failed)"
    )


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after the other."""
    import e2e_workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in e2e_workloads.WORKLOADS:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            print(f"# {name}: exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    import e2e_workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=(*e2e_workloads.WORKLOADS, "all"), default="all"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed every input is drawn from"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=12.0,
        help="measurement length; sets the fixed number of operations measured",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="0: end-to-end metrics; 1: per-layer metrics from timing spans",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    report(args.workload, result, bool(args.trace))
    units = dict(metric_units(bool(args.trace)))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    for variable in THREAD_ENV:
        os.environ[variable] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
