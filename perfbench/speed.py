"""Machine-speed reference for the end-to-end times.

On a shared host the speed of interpreter-bound code drifts in phases
lasting seconds to minutes. On a 2-vCPU Xeon VM with Python 3.11 it drifted
by up to 1.8x, and a fixed pure-Python loop slowed by almost the same factor
as a `sifb` replica did. Runs of a few tens of seconds cannot average that
drift out. So the benchmark times a fixed calibration slice between units
(for sweep-cli, in each worker before each replica, since the parent idles
while the sweep runs) and reports the end-to-end times of a workload at
reference speed:

    reported = measured wall time * REF_SLICE_S / mean slice time of the run

`REF_SLICE_S` is a constant, about the median slice time on that VM, so the
reported figures read as seconds there. The slice is benchmark code, not
`sifb` code, so a change to `sifb` moves the reported times by exactly the
factor it moves the wall time. The raw wall times are printed and saved
beside them.
"""

from __future__ import annotations

import time

import numpy as np

REF_SLICE_S = 0.85e-3
# At each unit boundary, time slices until they add up to this share of the
# unit just measured (one slice at least).
SHARE = 0.01

_A = np.linspace(-1.0, 1.0, 600).reshape(20, 30)
_B = np.linspace(0.0, 1.0, 20)


class _Pair:
    """Two numpy blocks with Python-level arithmetic, like `BlockVector`."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = blocks

    def __add__(self, other):
        return _Pair([x + y for x, y in zip(self.blocks, other.blocks)])

    def __rmul__(self, c):
        return _Pair([c * x for x in self.blocks])

    def norm(self):
        return float(np.sqrt(sum(float(x @ x) for x in self.blocks)))


def slice_s():
    """CPU time of one calibration slice.

    The slice mixes the three kinds of work that dominate the calibrated
    workloads: a pure-Python integer loop, arithmetic on small block
    objects, and a forward-backward lasso step on 20x30 numpy arrays. None
    of it calls `sifb` or multi-threaded BLAS. CPU time of the calling
    thread, so that time spent waiting for a core (sweep workers share two
    with the parent) is not counted.
    """
    t0 = time.thread_time()
    s = 0
    for i in range(3000):
        s += i * i % 7
    u, w = _Pair([np.ones(30), np.ones(20)]), _Pair([np.zeros(30), np.zeros(20)])
    for _ in range(30):
        w = 0.5 * (w + u)
        w.norm()
    x = np.zeros(30)
    for _ in range(20):
        z = x - 0.01 * (_A.T @ (_A @ x - _B))
        x = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
    return time.thread_time() - t0


class Speed:
    """Calibration slices taken between the units of one run."""

    def __init__(self):
        self.points = []  # mean slice time at each unit boundary

    def sample(self, unit_s=0.0):
        times = [slice_s()]
        while sum(times) < SHARE * unit_s:
            times.append(slice_s())
        self.points.append(sum(times) / len(times))

    def factor(self):
        """Multiply a measured time by this to get it at reference speed."""
        return REF_SLICE_S * len(self.points) / sum(self.points)
