"""Host speed, measured alongside the program by a fixed reference computation.

On a shared host the same command can take 1.8 times longer from one
minute to the next, because other tenants load the same cores. Times
are therefore reported scaled to a nominal host: a latency measured
while the reference took `r` seconds is multiplied by REF_NOMINAL_S / r.
The reference shares no code with obsclone, so a change to the package
moves the scaled times and leaves the reference alone.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Reference seconds on the nominal host; scaled times are what that host would show.
REF_NOMINAL_S = 0.01
# Longest interval between two timings of the reference while commands run.
REF_EVERY_S = 0.2
_MATRIX = (np.arange(16.0).reshape(4, 4) + 1j) / 20.0


def reference() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python arithmetic."""
    t0 = time.perf_counter()
    m = np.eye(4, dtype=complex)
    acc = 0.0
    for k in range(150):
        m = _MATRIX @ m
        m = m / np.linalg.norm(m)
        acc += float(np.trace(np.kron(m[:2, :2], m[2:, 2:])).real)
        for j in range(40):
            acc += (j * k) % 3
    return time.perf_counter() - t0


class SpeedLog:
    """Reference timings taken through a run, to scale each latency by the host speed at its time."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        self.refs.append(reference())
        self.times.append(time.perf_counter())

    def sample_if_due(self) -> None:
        """Time the reference unless it was timed less than REF_EVERY_S ago."""
        if not self.times or time.perf_counter() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """REF_NOMINAL_S over the median of the three reference samples nearest to time t."""
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - 1, len(self.refs) - 3))
        return REF_NOMINAL_S / statistics.median(self.refs[lo : lo + 3])

