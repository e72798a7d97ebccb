"""Durations rescaled to the host's full speed.

A shared host runs the same code at speeds that swing by up to ~1.8x within
seconds, as other tenants load the physical machine; the guest sees no
steal time, only a slower CPU. Over a 25 s run the share of slow time differs from run to
run, and with it every wall-clock median by 10-30%. `SpeedClock` measures
that speed as the run goes: a timer interrupts the run every INTERVAL_S and
times a fixed probe kernel in the main thread's CPU time. A duration is then
rescaled to the fastest probe of the run:

    scaled = (wall - probing inside it) * fastest_probe * mean(1 / probe)

with the mean over the probes that fell inside the interval and the CONTEXT
probes before it. A slow spell lasts seconds, so for a question of 1 ms those
few probes tell its speed; averaging them keeps one probe's own jitter out of
the question's latency.

The probe's CPU time leaves out time the thread waits for the GIL or for this
machine's other processes, so work the program moves to another thread or
process still counts in full. The probe does what the towers do, small
matmuls and elementwise ops driven from Python: a pure-Python probe tracks
the host's slow spells far worse. It is timed on its second run, after the
first has brought its code and data back into the caches, so that it
measures the host more than the workload's own use of the caches.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.01  # a probe takes ~0.2-0.4 ms: 2-4% of the run
CONTEXT = 4  # probes before an interval that also count for its speed

_X = np.random.default_rng(0).standard_normal((16, 32))
_W = np.random.default_rng(1).standard_normal((32, 32))


def probe_kernel() -> None:
    """~0.1 ms of the towers' kind of work: small matmuls and elementwise ops."""
    for _ in range(20):
        float(np.tanh(_X @ _W).sum())


class SpeedClock:
    """Probes the host's speed while active; rescales perf_counter intervals."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the end of each probe
        self.cpu: list[float] = []  # CPU seconds of each probe's timed run
        self.spent = [0.0]  # wall seconds spent probing, cumulative, before each probe
        self._previous = None

    def probe(self, signum=None, frame=None) -> None:
        began = time.perf_counter()
        probe_kernel()  # warm-up: code and data back in the caches
        cpu = time.thread_time()
        probe_kernel()
        cpu, end = time.thread_time() - cpu, time.perf_counter()
        self.at.append(end)
        self.cpu.append(max(cpu, 1e-9))  # CPU clocks tick coarsely on some hosts
        self.spent.append(self.spent[-1] + end - began)

    def __enter__(self) -> SpeedClock:
        self.probe()  # a reading before any interval starts
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """The perf_counter interval [start, end] at the run's fastest probe speed."""
        if end <= start:
            return 0.0
        # a probe runs between two bytecodes of the main thread, so it lies
        # wholly inside or wholly outside an interval timed there
        lo = bisect.bisect_right(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if lo == 0:
            raise ValueError("interval starts before the first probe")
        probes = self.cpu[max(lo - CONTEXT, 0):hi]
        speed = min(self.cpu) * float(np.mean(np.reciprocal(probes)))  # 1 at full speed
        return (end - start - (self.spent[hi] - self.spent[lo])) * speed

    def summary(self) -> dict:
        return {
            "probes": len(self.cpu),
            "fastest_probe_ms": 1e3 * min(self.cpu),
            "median_probe_ms": 1e3 * float(np.median(self.cpu)),
            "probing_s": self.spent[-1],
        }
