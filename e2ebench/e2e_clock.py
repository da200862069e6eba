"""Host-speed correction for the end-to-end timings.

On a shared VM the same code runs at different speeds from one second to
the next: a neighbour's load can make every instruction up to ~40% slower
for seconds at a time, with no steal time to show for it (README.md,
"Host-speed correction").  Timings taken across such shifts spread far more
than any change to the program would move them.

:class:`HostClock` measures the host's speed while the workload runs.  A
``SIGALRM`` handler runs a fixed reference kernel every ``interval``
seconds of wall time, in the workload's own thread, and records how long
it took.  The kernel is the program's mix in miniature: small matrix
products, numpy calls on tiny arrays and object-heavy interpreted code.  Its time on the reference host is
:data:`REFERENCE_S`, so ``probe time / REFERENCE_S`` is the host's
slowdown at that moment.

:meth:`HostClock.now` is a clock that stops while the kernel runs, so a
workload timed with it never counts the kernel's time.
:meth:`HostClock.corrected` turns such a time into the time it would have
taken on the reference host: it divides by the slowdown the probes saw
around the timed interval (widened by ``window`` seconds on each side, so
a short operation still sees several probes), raised to
:data:`SENSITIVITY`.
"""

from __future__ import annotations

import bisect
import json
import signal
import time

import numpy as np

#: The kernel's time on the reference host; corrected times are in that
#: host's seconds.  On the 2-vCPU VM of README.md a run's median probe
#: time ranged from 0.8 to 1.6 ms.
REFERENCE_S = 0.001

#: How strongly the workloads' times follow the kernel's: a workload
#: slows by ``slowdown ** SENSITIVITY`` when the kernel slows by
#: ``slowdown``.  The kernel slows more on a busy host than the program
#: does; log-log fits of run medians against the kernel's slowdown gave
#: 0.58-0.90 across the workloads and host states (README.md).
SENSITIVITY = 0.75

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((48, 48)) / 48.0
_VECTORS = [_RNG.random(16) for _ in range(2)]
_DOCUMENT = {f"k{i}": {"v": [i, i * 0.5, f"s{i}"], "n": {"x": i}} for i in range(100)}


class _Vehicle:
    __slots__ = ("pos", "speed", "lane")

    def __init__(self, pos: float, speed: float, lane: int) -> None:
        self.pos, self.speed, self.lane = pos, speed, lane

    def step(self, dt: float) -> float:
        self.pos += self.speed * dt
        if self.pos > 100.0:
            self.pos -= 100.0
            self.lane = (self.lane + 1) % 3
        return self.pos


def reference_kernel() -> float:
    """Fixed work in the program's mix: matrix products, numpy calls on
    tiny arrays, object-heavy interpreted code and dict building."""
    x = _MATRIX
    for _ in range(12):
        x = np.tanh(x @ _MATRIX + 0.5)
    a, b = _VECTORS
    for _ in range(25):
        a = np.tanh(np.exp(-np.maximum(a * b + 0.1, 0.0)) + a).clip(0.0, 1.0)
        b = (a[::-1] + b) / 2.0
    lanes: dict[int, list[float]] = {}
    for i in range(200):
        vehicle = _Vehicle(float(i), 1.0 + i % 5, i % 3)
        lanes.setdefault(vehicle.lane, []).append(vehicle.step(0.5))
    decoded = json.loads(json.dumps(_DOCUMENT))
    return float(x[0, 0] + a.sum()) + sorted(lanes[0])[0] + len(decoded)


class HostClock:
    """Samples the host's speed from a timer signal; see the module
    docstring.  Use as a context manager around the measured run."""

    def __init__(self, interval: float = 0.05, window: float = 0.5) -> None:
        self.interval = interval
        self.window = window
        #: Wall-clock start of every probe and its duration.
        self.stamps: list[float] = []
        self.durations: list[float] = []
        #: Total time spent in probes so far.
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "HostClock":
        # A probe on entry and on exit: every interval in between has one
        # on each side, however short the run.
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._probe()

    def _probe(self, signum=None, frame=None) -> None:
        # The first run brings the kernel back into the caches the
        # workload evicted it from; only the second is timed, so the
        # probe sees the host's speed, not the workload's cache footprint.
        entered = time.perf_counter()
        reference_kernel()
        started = time.perf_counter()
        reference_kernel()
        ended = time.perf_counter()
        self.stamps.append(started)
        self.durations.append(ended - started)
        self.spent += ended - entered

    def now(self) -> float:
        """``perf_counter`` minus the time spent in probes."""
        while True:  # a probe between the two reads: read again
            spent = self.spent
            seconds = time.perf_counter()
            if spent == self.spent:
                return seconds - spent

    def slowdown(self, start: float, end: float) -> float:
        """Interquartile mean of the probe times in ``[start, end]``
        (wall clock), widened by ``window`` on each side, over
        ``REFERENCE_S``.  Leaving out the fastest and slowest quarter
        keeps one disturbed probe from moving a whole window."""
        lo = bisect.bisect_left(self.stamps, start - self.window)
        hi = bisect.bisect_right(self.stamps, end + self.window)
        if lo == hi:  # none in the window: the probes on either side
            lo, hi = max(lo - 1, 0), hi + 1
        seen = sorted(self.durations[lo:hi])
        quarter = len(seen) // 4
        seen = seen[quarter : len(seen) - quarter]
        return sum(seen) / len(seen) / REFERENCE_S

    def corrected(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` (timed with :meth:`now`) between wall-clock
        ``start`` and ``end``, at the reference host's speed."""
        return seconds / self.slowdown(start, end) ** SENSITIVITY
