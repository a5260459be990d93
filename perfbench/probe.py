"""How fast the host ran during a timed stretch of code, measured from inside it.

The benchmark's host is a share of a busy machine whose speed flips between
states some 50% apart, for seconds to minutes at a time: the same pipeline
run on the same input takes 2.1 s in one sample and 3.5 s in the next, and
that, not the program, sets the spread between runs.  An active Probe times
a fixed tiny piece of work every INTERVAL_S of wall time while the timed
code runs, in the same process and on the same core (a SIGALRM handler,
which Python runs between two bytecodes of the main thread), and scales the
stretch by REFERENCE_S over the mean probe time.  A slow state slows both,
so the scaled time keeps the program's cost and drops most of the host's.

The probe is a short Python integer loop, 0.5 ms at the reference speed; it
never calls the program and touches none of its state.  Its own time is
taken off the stretch.  It adds about 1% to the wall time and, with its
handler, about 1 MB to the peak RSS of the process it runs in.  Its speed
depends a little on the program around it (README.md, Metrics).
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# Probe time that defines the reference host speed: about the median on a
# 2-vCPU x86_64 VM in its faster state.  Only the unit of the scaled times
# depends on it.
REFERENCE_S = 0.0005


def _work() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s += i * i % 7
    return time.perf_counter() - t0


class Probe:
    """``with Probe() as p: <code>``, then p.own_s and p.scaled_s.

    An inactive probe only times the stretch (for traced runs, whose layer
    times should not hold probe time).
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.probes: list[float] = []

    def __enter__(self) -> Probe:
        if self.active:
            self._warm = [_work() for _ in range(5)]  # the speed of a stretch too short to probe
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame) -> None:
        self.probes.append(_work())

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._t0
        if self.active:
            signal.signal(signal.SIGALRM,
                          signal.SIG_DFL if self._previous is None else self._previous)

    @property
    def own_s(self) -> float:
        """Wall time of the stretch less the probes'."""
        return self.wall_s - sum(self.probes)

    @property
    def scaled_s(self) -> float:
        """own_s at the reference host speed."""
        probes = self.probes or self._warm
        return self.own_s * REFERENCE_S * len(probes) / sum(probes)
