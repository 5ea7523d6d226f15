"""A fixed reference loop that gauges how fast the host runs Python right now.

The measurement host is a shared VM whose speed drifts 1.3-2x, in CPU time
as much as in wall time, over seconds as well as minutes.  While a worker
times its operations, a ``Probe`` runs a short pass of the loop from a
SIGALRM handler every ``INTERVAL_S``, so the host's speed is sampled all
through the timed window, and the window's time is scaled by it.  The loop
uses none of qmult, so no change to the program moves it; it does the kinds
of work qmult's hot loops do (permutations with list indexing and inversion
counts, tuple-keyed dict lookups, small sets, list accumulation).

A probe is a pass over the 720 permutations of 6, a reference pass (run
once after set-up) one over the 5040 permutations of 7.  ``NOMINAL_S``
holds their times on the measurement host (a shared 2-vCPU Intel Xeon VM,
Python 3.11.7) in its fast phases.  Scaled times are seconds on a host that
runs the loop at that speed.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

PROBE_N, REF_N = 6, 7
NOMINAL_S = {PROBE_N: 0.0024, REF_N: 0.019}
INTERVAL_S = 0.1


def _loop(n: int) -> int:
    acc = [0] * 8
    seen: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        img = [0] * n
        for k in range(n):
            img[perm[k]] = k + perm[k]
        inv = 0
        for a in range(n):
            pa = perm[a]
            for b in range(a + 1, n):
                if pa > perm[b]:
                    inv += 1
        key = tuple(img[:4])
        seen[key] = seen.get(key, 0) + (-1 if inv & 1 else 1)
        chosen = {p for p in perm[:3] if p & 1}
        acc[inv & 7] += len(chosen)
    return sum(acc) + len(seen)


def _timed(n: int) -> tuple[float, float]:
    """(wall, cpu) seconds of one pass over the permutations of n."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    _loop(n)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def reference() -> tuple[float, float]:
    """(wall, cpu) seconds of one reference pass."""
    return _timed(REF_N)


class Probe:
    """Samples the host's speed from a timer signal while it is started."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _fire(self, signum, frame) -> None:
        self.samples.append(_timed(PROBE_N))

    def start(self) -> None:
        self.samples.clear()
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a window shorter than one interval
            self.samples.append(_timed(PROBE_N))

    def scale(self, raw: float, clock: int) -> float:
        """``raw`` seconds of clock 0 (wall) or 1 (CPU), less the probes' own
        time, at the nominal speed: each sample gives the speed at one moment,
        and the samples are spread evenly over the window's wall time."""
        net = raw - sum(s[clock] for s in self.samples)
        speed = statistics.fmean(NOMINAL_S[PROBE_N] / max(s[clock], 1e-6)
                                 for s in self.samples)
        return net * speed
