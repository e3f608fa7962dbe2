"""Machine-speed probe that scales the benchmark's times to a reference speed.

On a shared machine the CPU's speed drifts by up to 1.7x, in phases of
seconds to minutes, because other tenants load the same cores.  The drift
moves CPU time as much as wall time, so neither is steady from one run to
the next.  ``SpeedProbe`` runs this module as a child process that, every
``PERIOD_S``, times a small fixed pure-Python loop in CPU time and appends
``<monotonic time> <CPU seconds>`` to a file.  The loop does not touch the
program, so it follows the machine and not the code under test.  A time t
measured from t0 to t1 is scaled to t * REFERENCE_LOOP_S / m, where m is the
loop's mean CPU time over [t0, t1].  The child takes about 5% of one CPU.

    python3 perfbench/speed.py FILE    # sample until killed or orphaned
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOOP_ITERATIONS = 50_000
# The loop's CPU time at the reference speed: its typical time beside the
# benchmark's jobs on a 2-vCPU VM with Python 3.11, where it ranged over
# 0.0036-0.011 s.
REFERENCE_LOOP_S = 0.004
PERIOD_S = 0.2
MIN_SAMPLES = 10  # an interval shorter than this many periods uses its nearest samples


def now() -> float:
    """A clock that the benchmark and the child process share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sample_until_orphaned(path: str) -> None:
    """Sample until the benchmark ends, even if it is killed."""
    parent = os.getppid()
    with open(path, "w", encoding="ascii") as out:
        while os.getppid() == parent:
            cpu = time.process_time()
            acc = 0
            for i in range(LOOP_ITERATIONS):
                acc += i * i % 7
            out.write(f"{now()} {time.process_time() - cpu}\n")
            out.flush()
            time.sleep(PERIOD_S)


class SpeedProbe:
    """The sampling child, from its first sample until the ``with`` block ends."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def __enter__(self) -> SpeedProbe:
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        deadline = now() + 30
        while not self.samples():
            if self.proc.poll() is not None or now() > deadline:
                self.__exit__()
                raise RuntimeError("the speed probe wrote no sample")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait()

    def samples(self) -> list[tuple[float, float]]:
        if not self.path.exists():
            return []
        lines = self.path.read_text(encoding="ascii").split("\n")[:-1]  # drop a partial last line
        return [(float(t), float(cpu)) for t, cpu in (line.split() for line in lines)]

    def scaled(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Each interval's length, scaled to the reference speed."""
        samples = self.samples()
        out = []
        for t0, t1 in intervals:
            inside = [cpu for t, cpu in samples if t0 <= t <= t1]
            if len(inside) < MIN_SAMPLES:
                mid = (t0 + t1) / 2
                inside = [cpu for t, cpu in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
            out.append((t1 - t0) * REFERENCE_LOOP_S / statistics.fmean(inside))
        return out


if __name__ == "__main__":
    sample_until_orphaned(sys.argv[1])
