"""Host-speed calibration of the timed intervals.

The benchmark runs on shared virtual machines whose speed swings by up to
a factor of two within seconds and drifts over minutes.  The slowdown
comes from other load on the same physical cores, so process time slows
as much as wall time and neither clock alone repeats.  So every timed
interval is paired with the time of a fixed pure-Python reference
computation run just before and just after it on the same CPU, and is
reported as

    interval * nominal time / (mean of the two reference times),

the time the interval would take on a host where the reference takes
its nominal time.  The reference uses the standard library only, so no
change to the program moves it, and a change that saves work lowers the
reported times in proportion.  Wall-clock figures are printed next to the
results.

Process start-up slows less than arithmetic when the host is busy, so an
operation that is a fresh process is calibrated by a fresh process too:
an interpreter that starts and runs the reference computation
``CHILD_ROUNDS`` times.  Run as a script, this file is that process.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

# the references' times on an unloaded 2-vCPU Xeon virtual machine, Python 3.11
NOMINAL_S = 1.4e-3
CHILD_NOMINAL_S = 0.09
CHILD_ROUNDS = 20


def pin() -> None:
    """Keep this process, and the processes it starts, on one CPU.

    The CPUs of a shared host slow down independently, so the reference
    and the operations it calibrates must run on the same one.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _reference() -> Fraction:
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, 7)
    return s


def reference_s(repeat: int = 2) -> float:
    """The best of ``repeat`` timings of the reference computation."""
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


def child_reference_s() -> float:
    """The wall time of a fresh interpreter that runs the reference."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
    return time.perf_counter() - t0


class Speed:
    """Scales each interval by the reference times on either side of it.

    With ``child`` set the reference is a fresh process, for intervals
    that are fresh processes themselves.
    """

    def __init__(self, child: bool = False):
        self.reference_s = child_reference_s if child else reference_s
        self.nominal_s = CHILD_NOMINAL_S if child else NOMINAL_S
        self.last = self.reference_s()

    def scale(self, interval: float) -> float:
        """``interval`` at nominal speed; call it right after the interval ends."""
        before, self.last = self.last, self.reference_s()
        return interval * self.nominal_s * 2 / (before + self.last)


if __name__ == "__main__":
    for _ in range(CHILD_ROUNDS):
        _reference()
