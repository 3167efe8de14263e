"""A fixed reference computation that gauges the machine's current speed.

On a shared host the same call's CPU time drifts by up to 2x over
seconds to minutes as other tenants come and go, which swamps the
differences between two versions of the program. The benchmark times
this fixed mix of interpreter work, numpy array passes and compiled
spline evaluation, which resembles the program's own mix, right before
every CLI call, and reports each call's wall time scaled by
NOMINAL_S / (median of the latest probes): the time the call would have
taken at the speed at which the probe takes NOMINAL_S. The probe is the
benchmark's own code and never changes with the program.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.interpolate import RectBivariateSpline

NOMINAL_S = 0.004  # the probe's time on a quiet 2-core sandbox
WINDOW = 7  # probes in the running median

_ARRAY = np.random.default_rng(0).random(200_000)
_NODES = np.linspace(0.0, 1.0, 64)
_SPLINE = RectBivariateSpline(_NODES, _NODES, np.outer(np.sin(6 * _NODES), np.cos(5 * _NODES)))
_POINTS = np.random.default_rng(1).random((4096, 2))


def probe_seconds():
    """Wall time of one pass of the reference mix."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    table = {str(i): (i, total) for i in range(1000)}
    values = _ARRAY
    for _ in range(3):
        values = np.sqrt(values * values + 1.0)
    np.sort(_ARRAY[:20_000])
    _SPLINE.ev(_POINTS[:, 0], _POINTS[:, 1])
    del table
    return time.perf_counter() - start
