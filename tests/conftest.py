"""Shared curve builders, density builders, and fixtures.

The analytic test curves live here so every module exercises the same
geometry: a circle, the Gerono figure-eight, a 3-fold trefoil-shaped
curve with three crossings, and seeded random trigonometric loops.
The conveyor density pair used by the flow convergence checks lives
here too, since both the module suite and the acceptance gate use it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from symplane.arrangement import build_arrangement
from symplane.curves import ClosedCurve, check_generic, resample
from symplane.forms import Density, Grid, make_density


def node_values(x0, x1, y0, y1, nx, ny, values):
    """Values at the nodes of a grid, without a Density's checks: the
    grid's fields and its node coordinates xs and ys as Grid makes them."""
    grid = Grid(x0, x1, y0, y1, nx, ny)
    return SimpleNamespace(x0=x0, x1=x1, y0=y0, y1=y1, nx=nx, ny=ny,
                           xs=grid.xs, ys=grid.ys, values=values)


def circle_curve(n=64, radius=1.0, center=(0.0, 0.0), phase=0.0, clockwise=False):
    t = phase + 2.0 * np.pi * np.arange(n) / n
    if clockwise:
        t = -t
    x = center[0] + radius * np.cos(t)
    y = center[1] + radius * np.sin(t)
    return ClosedCurve((np.column_stack([x, y]),))


def gerono_curve(n=256, scale=1.0, offset=0.0):
    """Figure-eight (sin 2t, sin t); one crossing at the origin.

    Samples sit at t = 2 pi (k + offset) / n.
    """
    t = 2.0 * np.pi * (np.arange(n) + offset) / n
    return ClosedCurve((scale * np.column_stack([np.sin(2 * t), np.sin(t)]),))


def trefoil_curve(n=512):
    """Three-fold curve (sin t + 2 sin 2t, cos t - 2 cos 2t), three crossings."""
    t = 2.0 * np.pi * np.arange(n) / n
    x = np.sin(t) + 2.0 * np.sin(2 * t)
    y = np.cos(t) - 2.0 * np.cos(2 * t)
    return ClosedCurve((np.column_stack([x, y]),))


def holed_curve():
    """A Gerono figure-eight inside a circle of radius 3: the annular face
    between them has the figure-eight's outer walk as a hole."""
    ring = circle_curve(n=512, radius=3.0).loops[0]
    eight = gerono_curve(n=256).loops[0]
    return ClosedCurve((ring, eight))


# Draw 11 of the lobed petal family from np.random.default_rng(0). Face 1
# (area 5.73) has its representative point 0.0207 from its boundary, so
# on a 256^2 grid (cell width 0.036) its bump reaches into face 2.
LEAKING_PETAL = (3, 2.165808138237552, 1.5040025672010786, 5.507112841004416,
                 -0.22071598259740283)


def petal_curve(params, n=256):
    """Lobed petal loop (sin t + a sin(kt + ph1) + b cos((k+1)t),
    cos t - a cos(kt + ph2) + b sin((k+1)t)), params = (k, a, ph1, ph2, b).

    Sampled at n equal parameter steps, then moved to equal arclength by
    six passes of linear interpolation along the polyline.
    """
    k, a, ph1, ph2, b = params
    t = 2.0 * np.pi * np.arange(n) / n
    x = np.sin(t) + a * np.sin(k * t + ph1) + b * np.cos((k + 1) * t)
    y = np.cos(t) - a * np.cos(k * t + ph2) + b * np.sin((k + 1) * t)
    cur = np.column_stack([x, y])
    for _ in range(6):
        ring = np.vstack([cur, cur[:1]])
        step = np.diff(ring, axis=0)
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(step[:, 0], step[:, 1]))])
        targets = np.arange(n) * (cum[-1] / n)
        cur = np.column_stack(
            [np.interp(targets, cum, ring[:, 0]), np.interp(targets, cum, ring[:, 1])]
        )
    return ClosedCurve((cur,))


def random_trig_loop(rng, n=256, order=3, amplitude=0.45):
    """A closed trigonometric loop: unit circle plus random low harmonics."""
    t = 2.0 * np.pi * np.arange(n) / n
    x = np.cos(t)
    y = np.sin(t)
    for k in range(2, order + 2):
        ax, bx, ay, by = amplitude * rng.uniform(-1.0, 1.0, size=4) / k
        x = x + ax * np.cos(k * t) + bx * np.sin(k * t)
        y = y + ay * np.cos(k * t) + by * np.sin(k * t)
    return ClosedCurve((np.column_stack([x, y]),))


def generic_trig_loops(seed, count, n=256, order=3):
    """First `count` random trig loops that pass check_generic, with reports."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        curve = resample(random_trig_loop(rng, n=n, order=order), n)
        report = check_generic(curve)
        if report.is_generic:
            out.append((curve, report))
    return out


def smootherstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (u * (6.0 * u - 15.0) + 10.0)


def conveyor_pair(eps, nx=2304, ny=8, speed=10.5):
    """Density pair whose flow rides a traveling wiggle field.

    f1 carries f0's wiggle pattern shifted by exactly the transit
    displacement `speed`, so the time-1 map is a rigid translation
    between the end ramps and the wiggles add no spatial floor to the
    pullback defect. The shift is a half-integer number of wavelengths:
    the interpolated wiggle amplitude sweeps through zero at t = 1/2,
    so the velocity field is genuinely time dependent and the RK4 time
    error stays visible instead of averaging out per period. Wide
    shallow end ramps supply the flux with negligible map curvature.
    Row integrals of f0 - f1 vanish identically: the ramp masses match
    by construction and the wiggle term is a pure translate.
    """
    width = 34.5
    xs = np.linspace(0.0, width, nx)

    def wig(x):
        env = smootherstep((x - 8.0) / 2.0) * smootherstep((16.0 - x) / 2.0)
        return env * np.sin(2.0 * np.pi * (x - 8.0))

    def ramp(c, rb=3.5):
        u = (xs - c) / rb
        prof = np.where(np.abs(u) < 1.0, (1.0 - np.minimum(u * u, 1.0)) ** 4, 0.0)
        return prof * (315.0 / 256.0) / rb

    v0 = 1.0 + eps * wig(xs) + speed * ramp(4.0)
    v1 = 1.0 + eps * wig(xs - speed) + speed * ramp(30.5)

    def dens(vals):
        grid = np.repeat(vals[:, None], ny, axis=1)
        return Density(0.0, width, 0.0, 1.0, nx, ny, grid)

    return dens(v0), dens(v1)


def dip_bump_pair(rng, n):
    """Unit densities with a bump and a dip swapped between f0 and f1.

    Both discs sit on one horizontal line of [-0.5, 3.7] x [-1.2, 1.2],
    a whole number of grid cells apart, with seeded amplitude, radius
    and height. Rows that miss both discs carry equal densities.
    """
    x0, x1, y0, y1 = -0.5, 3.7, -1.2, 1.2
    amp = rng.uniform(0.3, 0.5)
    radius = rng.uniform(0.55, 0.7)
    cy = rng.uniform(-0.3, 0.3)
    ca = rng.uniform(0.75, 0.85)
    h = (x1 - x0) / (n - 1)
    cb = ca + round(rng.uniform(1.55, 1.65) / h) * h
    X, Y = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n), indexing="ij")

    def disc(cx):
        r2 = ((X - cx) ** 2 + (Y - cy) ** 2) / radius**2
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return amp * out

    ma, mb = disc(ca), disc(cb)
    return (make_density(x0, x1, y0, y1, 1.0 + ma - mb),
            make_density(x0, x1, y0, y1, 1.0 - ma + mb))


def dipping_pair():
    """Valid positive 8x8 densities whose flow field interpolant dips to zero.

    f0 has a near-zero well flanked by tall walls, f1 a tall block in
    the well. The not-a-knot cubics through these rows ring below zero
    between the nodes, so the flow's interpolated density f_t does too.
    """
    v0 = np.ones((8, 8))
    v0[3:5, 3:5] = 1e-4
    v0[2, 3:5] = 50.0
    v0[5, 3:5] = 50.0
    v1 = np.ones((8, 8))
    v1[3:5, 3:5] = 30.0
    return make_density(0.0, 1.0, 0.0, 1.0, v0), make_density(0.0, 1.0, 0.0, 1.0, v1)


def eights_row(k, order=None, shifts=None, n=128):
    """k congruent disjoint Gerono figure-eights side by side, 3 apart.

    order[i] is the slot (x = 3 order[i]) of loop i, and loop i starts
    shifts[i] samples after its crossing.
    """
    order = range(k) if order is None else order
    shifts = [0] * k if shifts is None else shifts
    eight = gerono_curve(n=n).loops[0]
    return ClosedCurve(
        tuple(np.roll(eight, -s, axis=0) + (3.0 * slot, 0.0) for slot, s in zip(order, shifts))
    )


def circles_row(k, n=32):
    """k disjoint circles of radii 1 + 0.001 i, 3 apart: one diagram
    shape per loop, so every loop order is a symmetry and |G| = k!."""
    return ClosedCurve(tuple(
        circle_curve(n=n, radius=1.0 + 0.001 * i, center=(3.0 * i, 0.0)).loops[0]
        for i in range(k)
    ))


def flower_curve(k, n=128):
    """A unit circle of n samples crossed by k circles of radius 0.25 (64
    samples each) centred on it, the petals, each sampled as the first
    one turned by its angle: one component whose congruent petals tie
    until the centre is read, |G| = k. The curve is k-fold symmetric up
    to rounding when k divides n; otherwise the petals' faces differ in
    area in the sixth or seventh digit."""
    turns = 2 * np.pi * np.arange(k) / k
    return ClosedCurve((circle_curve(n=n).loops[0],) + tuple(
        circle_curve(n=64, radius=0.25, center=(np.cos(t), np.sin(t)), phase=t).loops[0]
        for t in turns
    ))


def necklace_curve(k):
    """k circles of radius 1.2 sin(pi / k) (64 samples each) centred on a
    unit ring, each sampled as the first one turned by its angle and
    crossing its two neighbours: one component, k-fold symmetric up to
    rounding, |G| = k."""
    radius = 1.2 * np.sin(np.pi / k)
    turns = 2 * np.pi * np.arange(k) / k
    return ClosedCurve(tuple(
        circle_curve(n=64, radius=radius, center=(np.cos(t), np.sin(t)), phase=t).loops[0]
        for t in turns
    ))


def inner_chain():
    """A unit circle crossed by a circle of radius 0.5 on it, which a small
    circle inside the first crosses: one component, and the small circle
    never touches its outer face."""
    return ClosedCurve((circle_curve(n=128).loops[0],
                        circle_curve(n=64, radius=0.5, center=(1.0, 0.0)).loops[0],
                        circle_curve(n=48, radius=0.15, center=(0.5, 0.0)).loops[0]))


def serpentine_curve(strands=128, n=16384, cut=0.25):
    """One loop of `strands` horizontal strands 1 apart, joined alternately
    at the right and left ends and closed by a vertical return at x = -1.

    Every corner of the polygon is cut at 45 degrees, `cut` along each
    side, so no sample turns by pi/2; the n samples sit at equal arclength
    along it, about 10 per unit of strand (width n / (10 strands)).
    """
    width = n / (10.0 * strands)
    corners = [(-1.0, 0.0)]
    for k in range(1, strands):
        x = width if k % 2 else 0.0
        corners += [(x, k - 1.0), (x, float(k))]
    corners.append((-1.0, strands - 1.0))
    c = np.array(corners)
    d_in = c - np.roll(c, 1, axis=0)
    d_out = np.roll(c, -1, axis=0) - c
    d_in /= np.hypot(d_in[:, 0], d_in[:, 1])[:, None]
    d_out /= np.hypot(d_out[:, 0], d_out[:, 1])[:, None]
    ring = np.stack([c - cut * d_in, c + cut * d_out], axis=1).reshape(-1, 2)
    ring = np.vstack([ring, ring[:1]])
    step = np.diff(ring, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(step[:, 0], step[:, 1]))])
    targets = np.arange(n) * (cum[-1] / n)
    return ClosedCurve(
        (np.column_stack([np.interp(targets, cum, ring[:, 0]), np.interp(targets, cum, ring[:, 1])]),)
    )


def thin_band_curve(w, n=400, cap=10, span=5.5):
    """A C-shaped band of width w: an outer arc of radius 1 over `span`
    radians, an inner arc of radius 1 - w back, n samples each, joined by
    semicircular caps of `cap` samples. Below w = 1e-4 its one face is
    narrower than the label search reaches; at 3e-6 it is a near-miss.
    """
    t = np.linspace(0.0, span, n)
    phi = np.pi * np.arange(1, cap + 1) / (cap + 1)

    def cap_at(theta, sign):
        u = np.array([np.cos(theta), np.sin(theta)])
        tau = np.array([-np.sin(theta), np.cos(theta)])
        return (1.0 - 0.5 * w) * u + 0.5 * w * sign * (np.cos(phi)[:, None] * u
                                                       + np.sin(phi)[:, None] * tau)

    outer = np.column_stack([np.cos(t), np.sin(t)])
    inner = (1.0 - w) * outer[::-1]
    return ClosedCurve((np.vstack([outer, cap_at(span, 1.0), inner, cap_at(0.0, -1.0)]),))


def tangent_circles_curve():
    """Internally tangent circles touching at (2, 0), both sampled there."""
    outer = circle_curve(n=128, radius=2.0)
    inner = circle_curve(n=128, radius=1.0, center=(1.0, 0.0))
    return ClosedCurve((outer.loops[0], inner.loops[0]))


def close_circles_curve():
    """Concentric circles of radii 1 and 1 + 1e-9: a near-miss everywhere."""
    a = circle_curve(n=64, radius=1.0)
    b = circle_curve(n=64, radius=1.0 + 1e-9)
    return ClosedCurve((a.loops[0], b.loops[0]))


def cusp_curve():
    """Eight samples with one turn sharper than pi/2 (at sample 4)."""
    pts = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [2.0, 0.0],
            [3.0, 0.0],
            [2.5, 1.0],  # turn here exceeds pi/2
            [1.8, 1.2],
            [1.0, 1.2],
            [0.2, 0.8],
        ]
    )
    return ClosedCurve((pts,))


def sharp_fold_curve():
    """Nine samples whose segments 0 and 2 cross, at t = 0.945 and t = 2.1.

    The turns at samples 1 and 2 exceed pi/2, and the crossing's two
    records lie within 1.5 samples of each other: one passage, not two.
    """
    pts = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.95, 0.1],
            [0.9, -0.9],
            [0.5, -1.5],
            [-0.5, -1.5],
            [-1.0, -0.5],
            [-0.8, -0.2],
            [-0.5, -0.05],
        ]
    )
    return ClosedCurve((pts,))


def trifolium_curve(n=48):
    """r = cos(3 theta): all three petals pass through the origin."""
    t = np.pi * np.arange(n) / n
    r = np.cos(3 * t)
    return ClosedCurve((np.column_stack([r * np.cos(t), r * np.sin(t)]),))


@pytest.fixture(scope="session")
def arrangements():
    """Named arrangements, then the 100-loop `generic_trig_loops(77)` family."""
    named = [build_arrangement(c) for c in (
        gerono_curve(n=256), trefoil_curve(n=512), circle_curve(n=128), holed_curve())]
    family = [build_arrangement(c, rep) for c, rep in generic_trig_loops(seed=77, count=100)]
    return named + family


@pytest.fixture(scope="session")
def circle512():
    return circle_curve(n=512)


@pytest.fixture(scope="session")
def gerono256():
    return gerono_curve(n=256)


@pytest.fixture(scope="session")
def trefoil512():
    return trefoil_curve(n=512)
