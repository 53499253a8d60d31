"""Host-speed probe: a fixed kernel that does not use meanreflect.

The benchmark runs on a few cores of a shared host whose speed drifts by
10-30% over seconds to minutes (other tenants, frequency changes), and code
that does not change at all slows down with it. The probe times a fixed
kernel between operations. An operation's wall time, divided by the probe's
level around it and multiplied by ``REFERENCE_S``, is the time it would take
on a host where the kernel takes ``REFERENCE_S``. The kernel mixes the three
kinds of work the workloads do: a 4-ary backward sweep over 4^10 leaves
(8 MiB, as a depth-10 lattice), explicit finite-difference steps on a
1201-point grid (as a PDE march) and plain Python arithmetic (as root
finding and config handling). It never touches the program, so a change to
the program moves the corrected time exactly as it moves the wall time.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# kernel time on the reference host, a 2-vCPU Intel Xeon VM (L2 2 MiB,
# L3 105 MiB), in a quiet phase; it only sets the scale of corrected times
REFERENCE_S = 0.030

# probe samples within this many seconds of an operation set its level
WINDOW_S = 2.5
MIN_SAMPLES = 4

_LEAVES = np.random.default_rng(0).standard_normal(4**10)
_GRID = np.linspace(-12.0, 12.0, 1201)
_EXPECTED = None


def kernel() -> float:
    v = _LEAVES
    while v.size > 1:
        g = v.reshape(-1, 4)
        v = g.max(axis=1)
    u = np.abs(_GRID)
    for _ in range(600):
        lap = u[:-2] - 2.0 * u[1:-1] + u[2:]
        u[1:-1] += 0.2 * np.maximum(lap, 0.25 * lap)
    s = 0.0
    for i in range(40000):
        s += (i % 7) * 0.5
    return float(v[0] + u.sum() + s)


class Probe:
    """Times the kernel on request and keeps every sample with its time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)

    def sample(self) -> None:
        global _EXPECTED
        t = perf_counter()
        value = kernel()
        end = perf_counter()
        if _EXPECTED is None:
            _EXPECTED = value
        elif value != _EXPECTED:
            raise RuntimeError("host-speed kernel gave a different result")
        self.samples.append(((t + end) / 2, end - t))

    def level(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Trimmed mean probe time (10% cut at each end) over the samples
        taken from ``start`` to ``end``, or over the ``MIN_SAMPLES`` nearest
        to that span if it holds fewer. Single samples scatter, because the
        host's speed flips within a fraction of a second; the mean over a
        few seconds follows the drift that moves an operation's time."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            def distance(sample):
                return max(start - sample[0], sample[0] - end, 0.0)
            inside = [s for _, s in sorted(self.samples, key=distance)[:MIN_SAMPLES]]
        ordered = sorted(inside)
        cut = len(ordered) // 10
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def correct(self, start: float, end: float) -> float:
        """The wall time from ``start`` to ``end``, scaled to the reference
        host by the probe's level within ``WINDOW_S`` of that span."""
        return (end - start) * REFERENCE_S / self.level(start - WINDOW_S, end + WINDOW_S)
