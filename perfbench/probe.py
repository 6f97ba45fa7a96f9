"""CPU-speed probe: times fixed kernels on the CPU the workload runs on.

The benchmark's host is a share of a busy machine: over seconds to minutes
the same code runs up to twice as slow, and single runs of one input spread
by 40%.  The probe measures that speed while a repetition runs.  It is a
separate process, pinned to the workload's CPU, that wakes every ``PERIOD_S``
seconds and times one of two kernels in turn, none of them banklaine's:
``arith`` (float, complex and ``math`` calls, a few hundred bytes of data)
and ``mixed`` (objects, sorting, sets, strings, small numpy arrays and a
1 MB table).  A time measured over an interval is scaled to the reference
speed, at which the kernels take ``REFERENCE_S``::

    reference_time = wall_time / slowness(interval)

where ``slowness`` is the geometric mean, over the two kernels, of the
trimmed mean kernel time sampled in the interval divided by its reference
time.  A slower host stretches both the wall time and the kernel times, so
the ratio stays; a slower program stretches the wall time only.  On the
2-vCPU host the benchmark was written on, scaling cut the spread of single
repetitions of one input from 15-20% to 3-4% (coefficient of variation); the
two kernels together tracked the host better than either alone.  The probe
takes about 2% of the CPU, which the wall times include.

Run as a script it samples until SIGTERM, then prints its samples as JSON:
``[[start, seconds, kernel], ...]`` with ``time.perf_counter`` starts, which
on Linux read the system-wide monotonic clock the repetitions stamp with.
"""
from __future__ import annotations

import cmath
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.02
# kernel times on an idle core of the 2-vCPU host, in its fast state
REFERENCE_S = (0.0003, 0.0006)
TRIM = 0.1        # share of samples dropped at each end: preempted kernels
MIN_SAMPLES = 5   # per kernel and interval


def arith(n: int = 600) -> float:
    acc = 0.0
    seen = {}
    z = complex(0.3, 0.7)
    for i in range(n):
        x = (i % 97) * 0.013 + 0.5
        w = cmath.exp(z * x) / (1.0 + x * x)
        acc += math.log1p(abs(w)) + math.atan2(w.imag, w.real)
        seen[i & 255] = acc
    return acc


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


_TABLE = [float(i) for i in range(32768)]


def mixed(rounds: int = 3) -> float:
    acc = 0.0
    for _ in range(rounds):
        pts = [_Point((i * 0.37) % 1.0, (i * 0.61) % 1.0) for i in range(80)]
        pts.sort(key=lambda p: p.x)
        seen = set()
        for p in pts:
            z = complex(p.x, p.y)
            acc += abs(cmath.sqrt(z * z + 1.0)) + p.norm() + _TABLE[int(p.y * 32767)]
            seen.add(round(p.x, 2))
        ys = np.array([p.y for p in pts])
        acc += float(np.cumsum(ys)[-1]) + float(np.max(ys)) + len(seen)
        acc += len(",".join(f"{p.x:.3f}" for p in pts[:20]).split(","))
        counts = {}
        for i in range(150):
            counts[(i * 31) % 1009] = counts.get((i * 17) % 1009, 0.0) + i
        acc += sum(_TABLE[(i * 7919) % 32768] for i in range(200))
    return acc


KERNELS = (arith, mixed)


def _trimmed_mean(times: list) -> float:
    times = sorted(times)
    k = int(TRIM * len(times))
    return statistics.fmean(times[k:len(times) - k])


def slowness(samples: list, start: float, end: float) -> float:
    """How many times slower than the reference the kernels ran over [start, end].

    For a kernel with fewer than MIN_SAMPLES samples in the interval, the
    MIN_SAMPLES of its samples that started nearest the middle are used.
    """
    mid = 0.5 * (start + end)
    logs = []
    for kernel, reference in enumerate(REFERENCE_S):
        mine = [(t, s) for t, s, k in samples if k == kernel]
        inside = [s for t, s in mine if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            inside = [s for _t, s in sorted(mine, key=lambda ts: abs(ts[0] - mid))[:MIN_SAMPLES]]
        if not inside:
            raise ValueError(f"the probe took no samples of {KERNELS[kernel].__name__}")
        logs.append(math.log(_trimmed_mean(inside) / reference))
    return math.exp(statistics.fmean(logs))


def at_reference_speed(seconds: float, samples: list, start: float, end: float) -> float:
    return seconds / slowness(samples, start, end)


class Probe:
    """The probe process, pinned to ``cpu``; ``stop`` returns its samples."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed probe did not start")

    def stop(self) -> list:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return []
        try:
            return json.loads(out) if out.strip() else []
        except json.JSONDecodeError:
            return []


def main(cpu: int) -> None:
    stopping = False

    def stop(*_):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, stop)
    os.sched_setaffinity(0, {cpu})
    clock = time.perf_counter
    samples = []
    print("ready", flush=True)
    parent = os.getppid()
    turn = 0
    while not stopping and os.getppid() == parent:  # ends with its harness
        t = clock()
        KERNELS[turn]()
        samples.append((t, clock() - t, turn))
        turn = (turn + 1) % len(KERNELS)
        time.sleep(PERIOD_S)
    json.dump(samples, sys.stdout)


if __name__ == "__main__":
    main(int(sys.argv[1]))
