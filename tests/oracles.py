"""Reference implementations kept as test oracles.

Each function here is an earlier, slower version of a library routine.
Tests run both on the same inputs and require agreement, so a rewrite
of the library routine is checked against the code it replaced.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import RectBivariateSpline

from symplane.errors import InconsistencyError, ValidationError
from symplane.forms import Density, GridMap, _row_integral


def moser_interpolation_2d(f0: Density, f1: Density, steps: int = 64) -> GridMap:
    """Moser flow with the field read from 2-D tensor-product splines.

    The original `forms.moser_interpolation`: every RK4 stage evaluates
    three `RectBivariateSpline`s (the row integral A, f0 and f1) at all
    grid nodes.
    """
    if not f0.same_grid(f1):
        raise ValidationError("densities must share a grid")
    if int(steps) != steps or steps < 4:
        raise ValidationError("need at least 4 time steps")
    steps = int(steps)
    if f0.nx < 4 or f0.ny < 4:
        raise ValidationError("grid too coarse for spline field evaluation")

    xs = f0.xs
    ys = f0.ys
    diff = f0.values - f1.values
    # the difference vanishes outside both support boxes, so the anchored
    # integral picks up nothing beyond the grid
    G, G0 = _row_integral(diff, f0.hx, f0.x0, f0.x1, 0.0)
    A = G - G0[None, :]

    spline_a = RectBivariateSpline(xs, ys, A, kx=3, ky=3)
    spline_0 = RectBivariateSpline(xs, ys, f0.values, kx=3, ky=3)
    spline_1 = RectBivariateSpline(xs, ys, f1.values, kx=3, ky=3)

    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    x = gx.ravel().copy()
    y = gy.ravel()

    def velocity(px, t):
        cx = np.clip(px, f0.x0, f0.x1)
        ft = (1.0 - t) * spline_0.ev(cx, y) + t * spline_1.ev(cx, y)
        if np.any(ft <= 0):
            raise InconsistencyError("interpolated density hit zero during the flow")
        return spline_a.ev(cx, y) / ft

    dt = 1.0 / steps
    t = 0.0
    for _ in range(steps):
        k1 = velocity(x, t)
        k2 = velocity(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = velocity(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = velocity(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt

    disp_x = (x - gx.ravel()).reshape(f0.nx, f0.ny)
    return GridMap(f0.x0, f0.x1, f0.y0, f0.y1, disp_x, np.zeros_like(disp_x))
