"""Machine speed, sampled from a timer signal while calls are timed.

On a shared host the same call runs up to 2.5 times slower while
neighbouring tenants are busy, and such a spell can last minutes, longer
than a run.  So wall times alone do not repeat from run to run.  While a run
is timed, a probe -- a fixed piece of the benchmark's own code doing the
kinds of work epoal does (small-array numpy steps, parsing numbers from
text) -- runs from a timer signal every INTERVAL_S seconds.  Each call's time
is then scaled to the speed at which the probe takes REFERENCE_PROBE_S:

    scaled = (wall time - probe time inside the call) * mean(REFERENCE_PROBE_S / probe)

where the mean runs over the probes taken during the call, or over the
MIN_PROBES probes nearest to it when the call is shorter than that.  If a
call slows as the probe does, it progresses at a rate proportional to
1 / probe time, and this is its wall time at the reference speed.  The probe
does not run epoal, so a change to epoal moves scaled times as it moves wall
times.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.005
MIN_PROBES = 20
# About the fastest of 30,000 probes on a 2-vCPU Intel Xeon KVM guest.  A
# constant, so that scaled times read as milliseconds at that speed.
REFERENCE_PROBE_S = 90e-6

_ANCHORS = np.random.default_rng(0).standard_normal((16, 50))
_W = np.zeros(50)
_TEXT = "\n".join(" ".join(map(repr, row)) for row in _ANCHORS[:4].tolist())


def probe() -> None:
    """Four distance-and-gradient steps on a (16, 50) problem, then parsing
    200 numbers from text, as a problem file is read."""
    w = _W
    for _ in range(4):
        diffs = w[None, :] - _ANCHORS
        sq = np.einsum("kd,kd->k", diffs, diffs)
        w = w - 1e-3 * (diffs.T @ sq)
    np.array([[float(t) for t in line.split()] for line in _TEXT.splitlines()])


class Speedometer:
    """Runs the probe every INTERVAL_S seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    def start(self):
        probe()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self, t0: float, elapsed: float) -> float:
        """Wall time ``elapsed`` of a call that started at ``t0``, at the reference speed."""
        if not self.starts:
            raise RuntimeError("no speed probe was taken")
        t1 = t0 + elapsed
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.seconds[lo:hi])
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            # Widen toward whichever neighbouring probe is nearer the call.
            if hi >= len(self.starts) or (lo > 0 and t0 - self.starts[lo - 1]
                                          <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        rates = [REFERENCE_PROBE_S / s for s in self.seconds[lo:hi]]
        return (elapsed - inside) * sum(rates) / len(rates)

    def summary(self) -> dict:
        s = sorted(self.seconds)
        return {"probes": len(s), "probe_min_us": 1e6 * s[0], "probe_p50_us": 1e6 * s[len(s) // 2],
                "reference_probe_us": 1e6 * REFERENCE_PROBE_S} if s else {"probes": 0}
