"""Host speed sampling, so that a shared host's load does not read as a
change in the program.

Kept apart from the workloads so that it can time the program's import.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_REF_S = 0.0015  # rescaled times are seconds on a host where one probe takes this long
_PROBE_FRACTIONS = [Fraction(i, 1 + i % 5) for i in range(150)]


def probe() -> float:
    """Seconds two fixed pure-Python loops take now: the host's current speed.

    The loops do integer, dict and Fraction work, like the program, and
    use none of it, so a change to the program does not move them.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
    total = 0
    for f in _PROBE_FRACTIONS:
        total = total + f * 3 - f
    return time.perf_counter() - start


class HostSpeed:
    """Samples host speed during a timed region and rescales times to it.

    Other tenants of a shared host slow a run by 10-40% for seconds at a
    time. Inside `with speed:` a SIGALRM timer runs `probe` every
    INTERVAL seconds; `clock` is a work clock that leaves the probes' own
    time out, and `scale` converts work-clock seconds of the region to
    seconds at the reference speed (PROBE_REF_S per probe). A faster
    program lowers the rescaled time; a busier host mostly does not.
    """

    INTERVAL = 0.025

    def __init__(self):
        self.samples: list = []
        self._probe_total = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._probe_total

    def _sample(self, *_):
        start = time.perf_counter()
        self.samples.append(probe())
        self._probe_total += time.perf_counter() - start

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def scale(self) -> float:
        return PROBE_REF_S * len(self.samples) / sum(self.samples)
