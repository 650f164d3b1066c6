"""Wall time normalised to how fast the host runs while the code runs.

The host this benchmark was tuned on (a 2-vCPU Intel Xeon VM on a shared
machine) runs the same code at speeds that differ by up to 2x, switching
within tens of milliseconds and staying in one state for anything up to
minutes. No run length averages that away, so the benchmark samples the
host's speed while it measures: a fixed pure-Python loop (the probe) runs
before and after the measured code, and from a timer signal every
PERIOD_S while it runs. The probes cut the code's run into segments; each
segment's wall time is scaled by PROBE_S over the mean duration of the two
probes around it, and the scaled segments add up to the normalised time:
the seconds the code would take on a host where the probe takes PROBE_S.
Probe time is left out of both the wall and the normalised time.

The probe never calls aggrex, so a change to the program moves the
measured segments and not the probes.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_LOOPS = 10_000
PROBE_S = 0.001  # about the probe's duration on the host the benchmark was tuned on
PERIOD_S = 0.04  # timer interval between probes while code runs


def probe() -> tuple[float, float]:
    """Start and end of one run of a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return t0, perf_counter()


class Meter:
    def __init__(self) -> None:
        self._probes: list[tuple[float, float]] | None = None

    def _on_timer(self, signum, frame) -> None:
        if self._probes is not None:
            self._probes.append(probe())

    def measure(self, fn) -> tuple[float, float]:
        """Calls fn(); returns its wall time and its normalised time, both without the probes."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        self._probes = [probe()]
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            probes, self._probes = self._probes, None
            signal.signal(signal.SIGALRM, previous)
        probes.append(probe())
        wall = norm = 0.0
        for (s0, e0), (s1, e1) in zip(probes, probes[1:]):
            gap = s1 - e0
            wall += gap
            norm += gap * PROBE_S / ((e0 - s0 + e1 - s1) / 2)
        return wall, norm
