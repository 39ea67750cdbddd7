"""Host-speed probe: times a fixed Python kernel on one CPU, 20 times a second.

    python3 probe.py --cpu N --out FILE

The benchmark runs on a few vCPUs of a shared machine.  Their speed
changes by up to 2x for tens of seconds at a time, while steal time
stays near zero: what moves is the speed of a CPU-second, not the share
of CPU the benchmark gets.  A wall time measured over a run is then
mostly a reading of the neighbours' load.

The probe measures that speed beside the program under test.  It runs
on the same CPU as the placing process, wakes every ``PERIOD_S``, runs
``kernel`` -- interpreter-bound work of the kind that dominates the
placer (float arithmetic, dict stores, a loop), independent of the
placer's code -- and writes one line per call: the system-wide monotonic
time and the kernel's CPU time (``time.thread_time``, so time the probe
waits for the CPU does not count).  ``speed_scale`` turns the lines that
fall inside a timed window into the factor that takes the window's wall
time to the reference speed ``KERNEL_NOMINAL_S``: the mean, over the
window's samples, of ``KERNEL_NOMINAL_S / kernel CPU time``.  On a
quiet host the factor is about 1; in a slow phase it is below 1.

The probe costs its CPU about 1% (``kernel`` takes 0.35-0.7 ms of every
``PERIOD_S``), the same on every commit.  It imports nothing but the
standard library, so it is up within a few milliseconds.
"""

from __future__ import annotations

import argparse
import bisect
import os
import sys
import time

#: seconds between the starts of two kernel calls
PERIOD_S = 0.05
#: CPU time of one ``kernel`` call in the fast phases of a 2-vCPU Xeon
#: host at 2.1 GHz (it reads up to 2x more in slow ones); the speed that
#: reported times are scaled to
KERNEL_NOMINAL_S = 0.00035


def kernel() -> float:
    s = 0.0
    table = {}
    for i in range(2500):
        s += (i * 0.5) % 7.0
        table[i & 15] = s
    return s


def read_samples(path: str) -> list[tuple[float, float]]:
    """``[(monotonic time, kernel CPU seconds)]`` in time order; a torn
    last line (the probe is still writing) is skipped."""
    samples = []
    if not os.path.exists(path):
        return samples
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 2 or not line.endswith("\n"):
                continue
            samples.append((float(parts[0]), float(parts[1])))
    return samples


def speed_scale(samples: list[tuple[float, float]], t0: float,
                t1: float) -> float:
    """Factor taking a wall time measured over ``[t0, t1]`` to the
    reference speed.  A window too short to hold a sample borrows the
    samples within one period on either side of it."""
    if not samples:
        raise ValueError("no host-speed samples")
    times = [t for t, _ in samples]
    for pad in (0.0, PERIOD_S, 4 * PERIOD_S):
        lo = bisect.bisect_left(times, t0 - pad)
        hi = bisect.bisect_right(times, t1 + pad)
        if hi > lo:
            window = samples[lo:hi]
            return sum(KERNEL_NOMINAL_S / k for _, k in window) / len(window)
    raise ValueError(f"no host-speed samples near [{t0:.3f}, {t1:.3f}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    with open(args.out, "w", buffering=1) as out:
        while True:
            started = time.monotonic()
            cpu0 = time.thread_time()
            kernel()
            out.write(f"{started:.6f} {time.thread_time() - cpu0:.9f}\n")
            time.sleep(max(PERIOD_S - (time.monotonic() - started), 0.0))


if __name__ == "__main__":
    sys.exit(main())
