"""Reference implementations kept as test oracles.

Each function here is an earlier, slower version of a library routine.
Tests run both on the same inputs and require agreement, so a rewrite
of the library routine is checked against the code it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline, RectBivariateSpline

from symplane import arrangement, curves
from symplane.arrangement import Arrangement, Face, _extract_cycles, _row_norms
from symplane.curves import (
    DEFAULT_ANGLE_TOL,
    MAX_COORD,
    MAX_TURN,
    MIN_EXTENT,
    MIN_LOOP_SAMPLES,
    SEP_TOL_FACTOR,
    ClosedCurve,
    DoublePoint,
    GenericityReport,
    Violation,
)
from symplane.diagram import (
    FaceCorrespondence,
    GaussCode,
    MAX_GROUP_ORDER,
    SymmetryGroup,
    _correspondence,
    gauss_code,
    perm_cycles,
)
from symplane.errors import (
    FormatError,
    InconsistencyError,
    RealizationError,
    ValidationError,
    require_positive,
)
from symplane.forms import (
    DEFAULT_GRID,
    DEFAULT_STEPS,
    MAX_FLOW_NODE_STEPS,
    MIN_STEPS,
    Density,
    Grid,
    GridMap,
    _mollifier,
    _row_integral,
    density_for_curve,
    make_density,
)
from symplane.geometry import EPSILON, cross2
from symplane.moduli import Decision, Verdict, Witness, _area_vector, _check_bijection


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


def moser_interpolation_all_rows(f0: Density, f1: Density, steps: int = DEFAULT_STEPS) -> GridMap:
    """The per-row `forms.moser_interpolation` before still rows were skipped.

    Time-1 flow carrying data for f1 back to f0 along f_t = (1-t)f0 + t f1.

    The generating field is horizontal, X_t = (A / f_t, 0) with
    A(x, y) the row integral of f0 - f1 from 0 to x, so each grid row
    flows independently. Integration is classical RK4 with `steps`
    uniform time steps; the returned map satisfies
    pullback(map, f1) = f0 up to discretization error.

    A node never leaves its grid row, so the field is evaluated per row:
    A, f0 and f1 are interpolated along each row by 1-D not-a-knot
    cubic splines. On a knot row the 2-D tensor-product interpolating
    spline reduces to exactly this 1-D interpolant of the row, so the
    result is the flow of the 2-D interpolated field, at 1-D cost.
    """
    if not f0.same_grid(f1):
        raise ValidationError("densities must share a grid")
    if not (np.isfinite(steps) and int(steps) == steps and steps >= MIN_STEPS):
        raise ValidationError(f"need at least {MIN_STEPS} time steps")
    steps = int(steps)
    if f0.nx < 4 or f0.ny < 4:
        raise ValidationError("grid too coarse for spline field evaluation")
    if f0.nx * f0.ny * steps > MAX_FLOW_NODE_STEPS:
        raise ValidationError(
            f"{f0.nx}x{f0.ny} nodes at {steps} steps exceed the budget of "
            f"{MAX_FLOW_NODE_STEPS} node-steps"
        )

    xs = f0.xs
    diff = f0.values - f1.values
    # the difference vanishes outside both support boxes, so the anchored
    # integral picks up nothing beyond the grid
    G, G0 = _row_integral(diff, f0.hx, f0.x0, f0.x1, 0.0)
    A = G - G0[None, :]

    # imported here so that only the flow pays for loading scipy
    from scipy.interpolate import CubicSpline

    # per-row piecewise cubics of A, f0 and f1 (fields 0, 1, 2):
    # coef[3 * k + field, interval * ny + row] multiplies s**(3 - k),
    # with s the offset from the interval's left node
    spline = CubicSpline(xs, np.stack([A, f0.values, f1.values], axis=1), axis=0)
    coef = np.moveaxis(spline.c, 2, 1).reshape(12, -1)
    rows = np.arange(f0.ny)

    def velocity(px, t):
        cx = np.clip(px, f0.x0, f0.x1)
        i = np.clip(((cx - f0.x0) / f0.hx).astype(int), 0, f0.nx - 2)
        s = cx - xs[i]
        c = np.take(coef, i * f0.ny + rows, axis=1).reshape(4, 3, *px.shape)
        a, v0, v1 = ((c[0] * s + c[1]) * s + c[2]) * s + c[3]
        ft = (1.0 - t) * v0 + t * v1
        if np.any(ft <= 0):
            raise ValidationError(
                "interpolated density hit zero during the flow; refine the grid "
                "or smooth the densities"
            )
        return a / ft

    x = np.repeat(xs[:, None], f0.ny, axis=1)
    dt = 1.0 / steps
    t = 0.0
    for _ in range(steps):
        k1 = velocity(x, t)
        k2 = velocity(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = velocity(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = velocity(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt

    disp_x = x - xs[:, None]
    return GridMap(f0.x0, f0.x1, f0.y0, f0.y1, disp_x, np.zeros_like(disp_x))


def _row_primitive(d: Density):
    """F and f at points px[:, j] of each row j, F integrating f from x = 0.

    f is the row's 1-D not-a-knot spline, as the flow reads it, and F its
    spline antiderivative. The flow reads the field at the nearest grid
    end beyond the grid, so there f is that end's value and F is linear.
    """
    spline = CubicSpline(d.xs, d.values, axis=0)
    prim = spline.antiderivative()
    rows = np.arange(d.ny)

    def at(px):
        cx = np.clip(px, d.x0, d.x1)
        i = np.clip(np.searchsorted(d.xs, cx, side="right") - 1, 0, d.nx - 2)
        s = cx - d.xs[i]
        F, f = (sum(c[k, i, rows] * s ** (len(c) - 1 - k) for k in range(len(c)))
                for c in (prim.c, spline.c))
        return F + f * (px - cx), f

    F_zero = at(np.zeros((1, d.ny)))[0]

    def primitive(px):
        F, f = at(px)
        return F - F_zero, f

    return primitive


def infer_support_box(x0, x1, y0, y1, nx, ny, values):
    """The original `forms.infer_support_box`: tight box around the nodes
    where values differ from 1, one cell margin, of a throwaway Grid."""
    grid = Grid(x0, x1, y0, y1, nx, ny)
    xs, ys = grid.xs, grid.ys
    off = values != 1.0
    ix = np.flatnonzero(off.any(axis=1))  # the x indices of nodes off 1
    if not ix.size:
        cx = 0.5 * (x0 + x1)
        cy = 0.5 * (y0 + y1)
        return (cx, cx, cy, cy)
    iy = np.flatnonzero(off.any(axis=0))
    ix0, ix1, iy0, iy1 = ix[0], ix[-1], iy[0], iy[-1]
    return (
        float(xs[max(0, ix0 - 1)]),
        float(xs[min(nx - 1, ix1 + 1)]),
        float(ys[max(0, iy0 - 1)]),
        float(ys[min(ny - 1, iy1 + 1)]),
    )


def outside(grid, box):
    """The `forms.Grid.outside` mask of the nodes outside the box
    (bx0, bx1, by0, by1)."""
    bx0, bx1, by0, by1 = box
    x, y = grid.xs[:, None], grid.ys[None, :]
    return (x < bx0) | (x > bx1) | (y < by0) | (y > by1)


def support_defect(gm: GridMap, box) -> float:
    """The original `forms.support_defect`, over the full-grid mask of the
    nodes outside the box."""
    mask = outside(gm, box)
    if not np.any(mask):
        return 0.0
    return float(max(np.max(np.abs(gm.disp_x[mask])), np.max(np.abs(gm.disp_y[mask]))))


def moser_row_map(f0: Density, f1: Density) -> np.ndarray:
    """disp_x of the exact time-1 map of the Moser row flow.

    With F_t the row integral of f_t = (1-t) f0 + t f1 from x = 0, the
    field A / f_t keeps F_t constant along a path, as d/dt F_t = -A.
    So each row's time-1 map is F1^-1(F0(x)), the monotone rearrangement
    of 1-D optimal transport (Moser 1965; Villani 2003, ch. 2), when A
    is the exact integral of f0 - f1 and f0 = f1 at the grid's ends.
    F comes from spline antiderivatives (`_row_primitive`), and F1 is
    inverted by Newton's method kept inside a shrinking bisection bracket.
    """
    prim0, prim1 = _row_primitive(f0), _row_primitive(f1)
    xs = f0.xs
    target = prim0(np.repeat(xs[:, None], f0.ny, axis=1))[0]
    # F1 is linear beyond the grid, so these bracket every root
    span = f0.x1 - f0.x0
    F_lo, f_lo = prim1(np.full((1, f0.ny), f0.x0))
    F_hi, f_hi = prim1(np.full((1, f0.ny), f0.x1))
    lo = f0.x0 - span + np.minimum(0.0, (target - F_lo) / f_lo)
    hi = f0.x1 + span + np.maximum(0.0, (target - F_hi) / f_hi)
    y = np.repeat(xs[:, None], f0.ny, axis=1)
    for _ in range(100):
        F, f = prim1(y)
        lo = np.where(F < target, y, lo)
        hi = np.where(F > target, y, hi)
        step = y - (F - target) / f
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.max(np.abs(step - y)) <= 1e-14 * span
        y = step
        if done:
            break
    return y - xs[:, None]


def row_integral(values, hx, x0, x1, outside_slope):
    """Cumulative integral along rows from x0, with the value at x = 0.

    The original `forms._row_integral`, which took G from scipy's
    `cumulative_trapezoid`.
    """
    nx = values.shape[0]
    G = cumulative_trapezoid(values, dx=hx, axis=0, initial=0.0)
    if x0 <= 0.0 <= x1:
        f = (0.0 - x0) / hx
        i = min(int(f), nx - 2)
        t = f - i
        G0 = (1 - t) * G[i] + t * G[i + 1]
    elif x1 < 0.0:
        G0 = G[-1] + outside_slope * (0.0 - x1)
    else:
        G0 = np.full(values.shape[1], outside_slope * (0.0 - x0))
    return G, G0


def _significant_lines(text: str) -> list[tuple[int, str]]:
    """The original `curves._significant_lines`: one Python step per line.

    (1-based line number, stripped content) with comments and blanks removed.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_curve(text: str) -> ClosedCurve:
    """The original `curves.parse_curve`: each row split and converted on its own."""
    lines = _significant_lines(text)
    if not lines:
        raise FormatError("empty curve file")
    lineno, header = lines[0]
    if header.split() != ["curve", "v1"]:
        raise FormatError(f"line {lineno}: expected header 'curve v1', got {header!r}")
    loops = []
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        parts = line.split()
        if len(parts) != 2 or parts[0] != "loop":
            raise FormatError(f"line {lineno}: expected 'loop <count>', got {line!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad loop count {parts[1]!r}") from None
        if count <= 0:
            raise FormatError(f"line {lineno}: loop count must be positive")
        if i + count >= len(lines):
            raise FormatError(f"line {lineno}: loop promises {count} samples, file ends early")
        pts = np.empty((count, 2), dtype=float)
        for k in range(count):
            lno, row = lines[i + 1 + k]
            cols = row.split()
            if len(cols) != 2:
                raise FormatError(f"line {lno}: expected 'x y', got {row!r}")
            try:
                pts[k, 0] = float(cols[0])
                pts[k, 1] = float(cols[1])
            except ValueError:
                raise FormatError(f"line {lno}: bad coordinate in {row!r}") from None
        if not np.all(np.isfinite(pts)):
            raise FormatError(f"line {lineno}: non-finite coordinate in loop")
        loops.append(pts)
        i += 1 + count
    if not loops:
        raise FormatError("curve file has no loops")
    return ClosedCurve(tuple(loops))


def segment_intersection(p0, p1, q0, q1):
    """The original `geometry.segment_intersection`: one segment pair.

    Intersect segments [p0, p1] and [q0, q1] in closed form. Returns (t,
    u, point) with point == p0 + t*(p1 - p0) and both parameters in [0,
    1], or None when the segments are parallel or miss each other.
    Parameters within EPSILON outside [0, 1] are clamped in.
    """
    p0 = np.asarray(p0, dtype=float)
    r = np.asarray(p1, dtype=float) - p0
    q0 = np.asarray(q0, dtype=float)
    s = np.asarray(q1, dtype=float) - q0
    denom = cross2(r, s)
    scale = max(np.abs(r).max(), np.abs(s).max(), EPSILON)
    if abs(denom) <= EPSILON * scale * scale:
        return None
    d = q0 - p0
    t = cross2(d, s) / denom
    u = cross2(d, r) / denom
    if t < -EPSILON or t > 1.0 + EPSILON or u < -EPSILON or u > 1.0 + EPSILON:
        return None
    t = min(max(t, 0.0), 1.0)
    u = min(max(u, 0.0), 1.0)
    return t, u, p0 + t * r


def winding_numbers(points, loop) -> np.ndarray:
    """Winding numbers by the signed crossing rule, one edge at a time.

    The original `geometry.winding_numbers`: a Python loop over the
    polyline's edges, each tested against every query point.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(loop, dtype=float)
    wn = np.zeros(len(p), dtype=np.int64)
    px, py = p[:, 0], p[:, 1]
    for i in range(len(v)):
        ax, ay = v[i]
        bx, by = v[(i + 1) % len(v)]
        # is_left > 0: query point lies left of the directed edge a -> b
        is_left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        up = (ay <= py) & (by > py) & (is_left > 0)
        down = (ay > py) & (by <= py) & (is_left < 0)
        wn += up.astype(np.int64)
        wn -= down.astype(np.int64)
    return wn


def face_walks(face: Face) -> tuple[np.ndarray, ...]:
    """A face's boundary walks, each its points without the closing repeat.

    The edges of one walk chain bit for bit, and the walks of one face
    belong to distinct curve components, which genericity keeps apart:
    a walk ends after edge i exactly when ends[i] differs in bits from
    starts[i + 1].
    """
    starts, ends = face.edges
    breaks = np.any(ends[:-1].view(np.int64) != starts[1:].view(np.int64), axis=1)
    return tuple(np.split(starts, np.flatnonzero(breaks) + 1))


def face_contains(face: Face, points) -> np.ndarray:
    """The original `Arrangement.face_contains`: one edge-by-edge winding pass per walk."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    total = np.zeros(len(pts), dtype=np.int64)
    for poly in face_walks(face):
        total += winding_numbers(pts, poly)
    return total == 1 if not face.is_outer else total == 0


def point_segment_distance(points, a, b):
    """The original `geometry.point_segment_distance`: many points, one segment.

    Distance from each query point to the segment [a, b]; vectorized. Each
    point's dot product with the segment is a 1x2 @ 2x1 product, which has
    the bits of that point alone; one (m, 2) @ (2,) product over many
    points does not.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = float(d @ d)
    if dd < EPSILON * EPSILON:
        return np.linalg.norm(p - a, axis=-1)
    t = np.clip(((p - a)[:, None, :] @ d[:, None])[:, 0, 0] / dd, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.linalg.norm(p - proj, axis=-1)


def segment_pair_distance(p0, p1, q0, q1) -> float:
    """The original `geometry.segment_pair_distance`: four point-segment calls.

    Minimum distance between two segments known not to intersect.
    """
    return float(
        min(
            point_segment_distance(p0, q0, q1)[0],
            point_segment_distance(p1, q0, q1)[0],
            point_segment_distance(q0, p0, p1)[0],
            point_segment_distance(q1, p0, p1)[0],
        )
    )


def boundary_distance(face: Face, points) -> np.ndarray:
    """The original `Arrangement.boundary_distance`, for many points at
    once: one call per segment, each point keeping its least distance."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(p), np.inf)
    for poly in face_walks(face):
        for i in range(len(poly)):
            np.minimum(best, point_segment_distance(p, poly[i], poly[(i + 1) % len(poly)]), out=best)
    return best


def integrate_density_over_faces(arr: Arrangement, density) -> np.ndarray:
    """Face integrals by one bbox-filtered winding pass per bounded face.

    The original `arrangement.integrate_density_over_faces`.
    """
    x0, x1, y0, y1 = density.x0, density.x1, density.y0, density.y1
    cx0, cx1, cy0, cy1 = arr.curve.bbox()
    if not (x0 <= cx0 and x1 >= cx1 and y0 <= cy0 and y1 >= cy1):
        raise ValidationError("density grid does not cover the curve bounding box")
    xs = np.linspace(x0, x1, density.nx)
    ys = np.linspace(y0, y1, density.ny)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    centers_x = xs[:-1] + 0.5 * hx
    centers_y = ys[:-1] + 0.5 * hy
    vals = density.values  # shape (nx, ny), x first
    cell_vals = 0.25 * (vals[:-1, :-1] + vals[1:, :-1] + vals[:-1, 1:] + vals[1:, 1:])

    gx, gy = np.meshgrid(centers_x, centers_y, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    flat_vals = cell_vals.ravel()

    out = np.zeros(arr.r)
    for face in arr.bounded_faces:
        allp = face.edges[0]
        lo, hi = allp.min(axis=0), allp.max(axis=0)
        sel = (
            (pts[:, 0] >= lo[0] - hx)
            & (pts[:, 0] <= hi[0] + hx)
            & (pts[:, 1] >= lo[1] - hy)
            & (pts[:, 1] <= hi[1] + hy)
        )
        idx = np.flatnonzero(sel)
        if len(idx) == 0:
            continue
        inside = face_contains(face, pts[idx])
        out[face.label - 1] = float(np.sum(flat_vals[idx[inside]]) * hx * hy)
    return out


def _cell_means(vals):
    """Mean of the four corner nodes of each cell; vals has shape (nx, ny), x first."""
    return 0.25 * (vals[:-1, :-1] + vals[1:, :-1] + vals[:-1, 1:] + vals[1:, 1:])


def face_integrator(arr: Arrangement, grid):
    """The full-pass `arrangement.face_integrator`: one full-grid array of
    cell means per call, summed at each face's flat cell indices.

    Its `on_window` keeps a cell-shaped buffer of the cell means of the
    zero-padded window, and sums the other faces with a positive cell.
    """
    x0, x1, y0, y1 = grid.x0, grid.x1, grid.y0, grid.y1
    cx0, cx1, cy0, cy1 = arr.curve.bbox()
    if not (x0 <= cx0 and x1 >= cx1 and y0 <= cy0 and y1 >= cy1):
        raise ValidationError("density grid does not cover the curve bounding box")
    nx, ny = grid.nx, grid.ny
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    centers_x = xs[:-1] + 0.5 * hx
    centers_y = ys[:-1] + 0.5 * hy
    # the smallest type that holds 0..r, since on_window keeps it
    labels = arrangement._face_raster(arr, centers_x, centers_y).astype(np.min_scalar_type(arr.r))
    lab = labels.ravel()
    cells = [np.flatnonzero(lab == j) for j in range(1, arr.r + 1)]

    def face_sum(flat_vals, j):
        return float(np.sum(flat_vals[cells[j]]) * hx * hy)

    def integrate(vals) -> np.ndarray:
        flat_vals = _cell_means(vals).ravel()
        return np.array([face_sum(flat_vals, j) for j in range(arr.r)])

    flat_cells = np.zeros((nx - 1) * (ny - 1))  # +0.0 between on_window calls
    cell_vals = flat_cells.reshape(nx - 1, ny - 1)

    def on_window(vals, window, j):
        wx, wy = window
        # the cells with a corner node in the window; every other cell
        # averages four zero nodes, so it holds +0.0 as in the full pass,
        # and face j's sum gathers the same values in the same order
        cx = slice(max(wx.start - 1, 0), min(wx.stop, nx - 1))
        cy = slice(max(wy.start - 1, 0), min(wy.stop, ny - 1))
        margins = ((wx.start - cx.start, cx.stop + 1 - wx.stop),
                   (wy.start - cy.start, cy.stop + 1 - wy.stop))
        cell_vals[cx, cy] = _cell_means(np.pad(vals, margins))
        mass = face_sum(flat_cells, j)
        # cells are finite and >= 0, so a face's cell sum is > 0 iff one of
        # its cells is, and only window cells can be; the product with the
        # cell area may still underflow, so such a face is summed in full
        near = np.unique(labels[cx, cy][cell_vals[cx, cy] > 0])
        leaks = any(face_sum(flat_cells, k - 1) > 0 for k in near.tolist() if k not in (0, j + 1))
        cell_vals[cx, cy] = 0.0
        return mass, leaks

    integrate.on_window = on_window
    return integrate


def _face_profiles(arr: Arrangement, omega: Density):
    """Peak-1 bump per bounded face, supported in a disc interior to it."""
    gx, gy = np.meshgrid(omega.xs, omega.ys, indexing="ij")
    profiles = []
    for face in arr.bounded_faces:
        rx, ry = face.rep_point
        eps = 0.5 * boundary_distance(face, [rx, ry])[0]
        if eps <= 0:
            raise RealizationError(
                f"no interior disc for face {face.label}: representative point "
                "touches the boundary"
            )
        r2 = ((gx - rx) ** 2 + (gy - ry) ** 2) / (eps * eps)
        profiles.append(_mollifier(r2))
    return profiles


def realize_area_vector(
    arr: Arrangement,
    target,
    base: Density | None = None,
    base_scale: float = 1.0,
    grid_n: int = DEFAULT_GRID,
    rel_tol: float = 1e-6,
) -> Density:
    """Realization with one full-grid bump per face.

    The original `forms.realize_area_vector`: it wraps its arrays in
    pseudo-densities and integrates each through the library's
    `integrate_density_over_faces`, one face raster per call (r + 2 in
    all), and builds the default base before validating the target.
    """
    integrate_density_over_faces = arrangement.integrate_density_over_faces
    target = np.asarray(target, dtype=float)
    if base is None:
        base = density_for_curve(arr.curve, n=grid_n)
    if target.shape != (arr.r,):
        raise ValidationError(
            f"target has {target.shape} entries, arrangement has {arr.r} faces"
        )
    if np.any(target <= 0):
        raise ValidationError("target areas must be positive")
    if not 0 < base_scale <= 1:
        raise ValidationError("base_scale must lie in (0, 1]")

    profiles = _face_profiles(arr, base)
    values = np.array(base.values)
    if base_scale < 1.0:
        for prof in profiles:
            values = values * (1.0 - (1.0 - base_scale) * prof)
    carved = SimpleNamespace(
        x0=base.x0, x1=base.x1, y0=base.y0, y1=base.y1,
        nx=base.nx, ny=base.ny, xs=base.xs, ys=base.ys, values=values,
    )
    current = integrate_density_over_faces(arr, carved)

    scale = max(1.0, float(np.max(np.abs(target))))
    coeffs = target - current
    for j, c in enumerate(coeffs):
        if c < -rel_tol * scale:
            raise RealizationError(
                f"target for face {j + 1} is {current[j] - target[j]:.6g} below "
                "the base integral; the construction only adds mass "
                "(try base_scale < 1)"
            )

    out = np.array(values)
    leaking = []  # faces whose bump puts mass into another bounded face
    for j, (c, prof) in enumerate(zip(coeffs, profiles)):
        weighted = SimpleNamespace(
            x0=base.x0, x1=base.x1, y0=base.y0, y1=base.y1,
            nx=base.nx, ny=base.ny, xs=base.xs, ys=base.ys, values=prof * values,
        )
        masses = integrate_density_over_faces(arr, weighted)
        mass = masses[j]
        if mass <= 0:
            raise RealizationError(
                f"no interior disc resolved on the grid for face {j + 1}; "
                "refine the grid"
            )
        if np.any(np.delete(masses, j) > 0):
            leaking.append(j + 1)
        out = out + (c / mass) * prof * values

    if np.any(out <= 0):
        raise RealizationError("realized density lost positivity")
    result = make_density(base.x0, base.x1, base.y0, base.y1, out)
    achieved = integrate_density_over_faces(arr, result)
    if np.max(np.abs(achieved - target)) > 1e-9 * scale:
        if leaking:
            raise RealizationError(
                f"the bump for face {leaking[0]} puts mass into another face's "
                "grid cells; refine the grid"
            )
        raise InconsistencyError(
            "realized face integrals drifted from the target beyond roundoff"
        )
    return result


def bump_masses(integrate, values, bumps):
    """(mass of face j, whether another bounded face gets mass) of each bump j.

    The original full-grid loop of `forms.realize_area_vector`: it runs
    the whole-grid integrator once per bump on a node array that is zero
    off the bump's window.
    """
    result = []
    weighted = np.zeros_like(values)  # full grid, 0 off the bump window: sums keep flat order
    for j, (win, bump) in enumerate(bumps):
        weighted[win] = bump * values[win]
        masses = integrate(weighted)
        weighted[win] = 0.0
        result.append((masses[j], bool(np.any(np.delete(masses, j) > 0))))
    return result


def _serialize_grid(tag, g, rows) -> str:
    """The original `forms._serialize_grid`: repr on every node value."""
    lines = [
        f"{tag} v1",
        f"{float(g.x0)!r} {float(g.x1)!r} {float(g.y0)!r} {float(g.y1)!r} {g.nx} {g.ny}",
    ]
    lines.extend(" ".join(map(repr, row.tolist())) for row in rows)
    return "\n".join(lines) + "\n"


def _parse_grid(text, tag, per_node, noun):
    """The original `forms._parse_grid`: every line joined, split and converted.

    Domain (x0, x1, y0, y1) and node values, shape (per_node, nx, ny), of a grid file.

    File order is row by row in y, x varying fastest, per_node values
    per node.
    """
    lines = [line for _, line in _significant_lines(text)]
    if not lines or lines[0] != f"{tag} v1":
        raise FormatError(f"expected header '{tag} v1'")
    if len(lines) < 2:
        raise FormatError("missing domain line")
    parts = lines[1].split()
    if len(parts) != 6:
        raise FormatError("domain line must be 'x0 x1 y0 y1 nx ny'")
    try:
        domain = tuple(float(p) for p in parts[:4])
        nx, ny = (int(p) for p in parts[4:])
    except ValueError as exc:
        raise FormatError(f"bad domain line: {exc}") from None
    if nx < 0 or ny < 0:
        raise FormatError(f"bad domain line: negative grid count in {nx} {ny}")
    tokens = " ".join(lines[2:]).split()
    if len(tokens) != per_node * nx * ny:
        raise FormatError(f"expected {per_node * nx * ny} {noun} values, found {len(tokens)}")
    try:
        flat = np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise FormatError(f"bad {noun} value: {exc}") from None
    return domain, flat.reshape(ny, nx, per_node).T


def serialize_density(d: Density) -> str:
    """The original `forms.serialize_density`: one repr per numpy scalar."""
    lines = ["density v1"]
    lines.append(
        f"{float(d.x0)!r} {float(d.x1)!r} {float(d.y0)!r} {float(d.y1)!r} "
        f"{d.nx} {d.ny}"
    )
    for j in range(d.ny):
        lines.append(" ".join(repr(float(v)) for v in d.values[:, j]))
    return "\n".join(lines) + "\n"


def serialize_map(gm: GridMap) -> str:
    """The original `forms.serialize_map`: one formatted pair per node."""
    lines = ["dispmap v1"]
    lines.append(
        f"{float(gm.x0)!r} {float(gm.x1)!r} {float(gm.y0)!r} {float(gm.y1)!r} "
        f"{gm.nx} {gm.ny}"
    )
    for j in range(gm.ny):
        row = []
        for i in range(gm.nx):
            row.append(f"{float(gm.disp_x[i, j])!r} {float(gm.disp_y[i, j])!r}")
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def arc_points(curve, loop, t0, t1, p_start, p_end):
    """The per-arc `arrangement._arc_points`: one row-wise norm pass per arc.

    Directed polyline for the arc from parameter t0 to t1 (cyclic).
    """
    pts = curve.loops[loop]
    n = len(pts)
    span = (t1 - t0) % n
    if span == 0.0:
        span = n  # single passage: the arc is the whole loop
    first = int(np.floor(t0)) + 1
    count = int(np.ceil(t0 + span - 1e-9)) - first
    mids = pts[(first + np.arange(count)) % n]
    # drop interior samples that coincide with an endpoint (crossing at a sample)
    keep = (np.linalg.norm(mids - p_start, axis=1) > 1e-12) & (
        np.linalg.norm(mids - p_end, axis=1) > 1e-12
    )
    return np.vstack([p_start[None, :], mids[keep], p_end[None, :]])


def loop_arcs(pts, per, vertices):
    """The per-loop `arrangement._loop_arcs`: directed polylines of the arcs
    between consecutive passages of one loop, cut with one index pass."""
    n, k = len(pts), len(per)
    succ = np.arange(1, k + 1) % k
    t0 = np.array([t for t, _ in per])
    span = (t0[succ] - t0) % n
    span[span == 0.0] = n  # single passage: the arc is the whole loop
    first = np.floor(t0).astype(np.int64) + 1
    count = np.ceil(t0 + span - 1e-9).astype(np.int64) - first
    # the samples strictly inside each arc, arc after arc
    inside = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    mids = pts.take(inside % n, axis=0)
    ends = np.array([vertices[v].point for _, v in per])
    # drop interior samples that coincide with an endpoint (crossing at a sample)
    keep = (_row_norms(mids - np.repeat(ends, count, axis=0)) > 1e-12) & (
        _row_norms(mids - np.repeat(ends[succ], count, axis=0)) > 1e-12
    )
    arc = np.repeat(np.arange(k), count)[keep]
    size = np.bincount(arc, minlength=k) + 2
    stop = np.cumsum(size)
    rows = np.arange(stop[-1]) - 2 * np.repeat(np.arange(k), size) - 1
    rows[stop - size] = len(arc) + np.arange(k)
    rows[stop - 1] = len(arc) + k + np.arange(k)
    out = np.concatenate([np.compress(keep, mids, axis=0), ends, ends[succ]]).take(rows, axis=0)
    stop = stop.tolist()
    return [out[a:b] for a, b in zip([0] + stop[:-1], stop)]


def _arc_points(curve, loop, t0, t1, p_start, p_end):
    """The original `arrangement._arc_points`: two norms per interior sample."""
    pts = curve.loops[loop]
    n = len(pts)
    span = (t1 - t0) % n
    if span == 0.0:
        span = n  # single passage: the arc is the whole loop
    first = int(np.floor(t0)) + 1
    count = int(np.ceil(t0 + span - 1e-9)) - first
    mids = [pts[(first + k) % n] for k in range(count)]
    # drop interior samples that coincide with an endpoint (crossing at a sample)
    keep = []
    for q in mids:
        if np.linalg.norm(q - p_start) > 1e-12 and np.linalg.norm(q - p_end) > 1e-12:
            keep.append(q)
    return np.vstack([p_start[None, :], *[q[None, :] for q in keep], p_end[None, :]])


def _chunk(gc: GaussCode, loop, rot, vert_label, first_strand, face_label) -> str:
    """Read one loop from basepoint `rot` on, extending the label maps.

    The original `diagram._chunk`, which kept each crossing's first
    strand in the reading in its own map. Vertices and faces are
    numbered in order of first encounter; the maps are updated in place
    and the loop's chunk of the serial is returned.
    """
    occ = gc.occ[loop]
    arcs = gc.arcs[loop]
    m = len(occ)
    toks = []
    for k in range(max(m, len(arcs))):
        if m:
            v, strand = occ[(k + rot) % m]
            if v not in vert_label:
                vert_label[v] = len(vert_label)
                first_strand[v] = strand
                slot = "a"
            else:
                slot = "b"
            sign = gc.base_sign[v] if first_strand[v] == 0 else -gc.base_sign[v]
            tok = f"{vert_label[v]}{slot}{'+' if sign > 0 else '-'}"
        else:
            tok = "."
        lf, rf = arcs[(k + rot) % len(arcs)]
        for f in (lf, rf):
            if f not in face_label:
                face_label[f] = len(face_label)
        toks.append(f"{tok}:{face_label[lf]}.{face_label[rf]}")
    return ",".join(toks)


def _candidates(gc: GaussCode):
    loops = range(len(gc.occ))
    sizes = [len(gc.occ[k]) for k in loops]
    arcsizes = [len(gc.arcs[k]) for k in loops]
    # position p takes a loop of the p-th least shape
    slots = sorted(zip(sizes, arcsizes))
    for order in permutations(loops):
        if [(sizes[k], arcsizes[k]) for k in order] != slots:
            continue
        ranges = [range(max(1, sizes[k])) for k in order]
        for rots in product(*ranges):
            yield order, rots


def _read(gc: GaussCode, order, rots):
    """Read the code along a candidate traversal.

    Returns (serial string, face renumbering, vertex renumbering), the
    renumberings keyed by arrangement indices and assigned in order of
    first encounter.
    """
    vert_label: dict[int, int] = {}
    first_strand: dict[int, int] = {}
    face_label: dict[int, int] = {}
    chunks = []
    for pos, loop in enumerate(order):
        occ = gc.occ[loop]
        arcs = gc.arcs[loop]
        m = len(occ)
        rot = rots[pos]
        toks = []
        for k in range(max(m, len(arcs))):
            if m:
                v, strand = occ[(k + rot) % m]
                if v not in vert_label:
                    vert_label[v] = len(vert_label)
                    first_strand[v] = strand
                    slot = "a"
                else:
                    slot = "b"
                sign = gc.base_sign[v] if first_strand[v] == 0 else -gc.base_sign[v]
                tok = f"{vert_label[v]}{slot}{'+' if sign > 0 else '-'}"
            else:
                tok = "."
            lf, rf = arcs[(k + rot) % len(arcs)]
            for f in (lf, rf):
                if f not in face_label:
                    face_label[f] = len(face_label)
            toks.append(f"{tok}:{face_label[lf]}.{face_label[rf]}")
        chunks.append(",".join(toks))
    outer = face_label[gc.outer_face]
    serial = f"n{len(vert_label)}f{gc.num_faces}o{outer}|" + "|".join(chunks)
    return serial, face_label, vert_label


def _minimal_readings(gc: GaussCode):
    """The original `diagram._minimal_readings`: every candidate reading in
    full, the minimal serial and the (faces, verts) readings that reach it
    in enumeration order."""
    best = None
    readings = []
    for order, rots in _candidates(gc):
        serial, faces, verts = _read(gc, order, rots)
        if best is None or serial < best:
            best = serial
            readings = [(faces, verts)]
        elif serial == best:
            readings.append((faces, verts))
    return best, readings


class Readings(NamedTuple):
    """What `pruned_readings` finds."""

    serial: str
    first: tuple[dict, dict]  # (faces, verts) of the first minimal reading
    automorphisms: tuple  # (reference, leaf): (key, faces, verts) readings with equal serials
    order: int  # |G|


def pruned_readings(gc: GaussCode) -> Readings:
    """The automorphism-pruned `diagram._minimal_readings` that searched all
    loops of a diagram at once, before components were read one by one:
    the minimal serial, the first reading that reaches it in (loop order,
    rotations) order, and diagram automorphisms that generate G.

    The serial of a reading is the header n{V}f{F}o{outer}| followed by
    the loop chunks joined by |. The search goes depth first over loop
    positions: position p takes each unused loop of the p-th least shape
    (occurrences, arcs) at each basepoint rotation, so the order in which
    the loops are given does not matter. All children of a node are read
    before any is entered, and a child is dropped when its serial prefix
    (with a trailing | as chunks follow) is above a sibling's prefix or
    above the best serial cut to the same length; ties go on. Sibling
    prefixes end in | and chunks hold none, so neither is a proper prefix
    of the other and the lower one beats every completion of the higher.
    The header is only known once the outer face has a label; until then
    nothing is dropped.

    Ties are pruned by the automorphisms they reveal (McKay 1981): the
    reference is the first leaf that reaches the best serial, and a later
    leaf with the same serial is its image under an automorphism, which
    maps (loop, basepoint) pairs as the two readings do. The search then
    jumps back to the node where the two readings part, since everything
    below that node on the new side is the image of what was searched on
    the reference side. A tied child is skipped when it lies in the orbit
    of an entered sibling under the automorphisms found so far that fix
    every pair of the node's prefix; its subtree is an image of the
    sibling's. Along the reference path each level's found orbit is the
    whole orbit of its stabilizer, so the automorphisms found there form
    a strong generating set: |G| is the product of those orbit lengths,
    and the first minimal reading in (loop order, rotations) order, which
    pruning may have skipped, is the least image of the reference, found
    level by level through their transversals. A row of k congruent loops
    costs about k^3/3 chunk reads and k - 1 automorphisms.
    """
    k = len(gc.occ)
    shape = [(len(gc.occ[i]), len(gc.arcs[i])) for i in range(k)]
    mods = [max(1, m) for m, _ in shape]
    fits = [[i for i in range(k) if shape[i] == s] for s in sorted(shape)]
    head = f"n{len({v for occ in gc.occ for v, _ in occ})}f{gc.num_faces}o"
    outer = gc.outer_face
    best = ref = None  # ref: (key, faces, verts) of the first leaf at the best serial
    autos = []  # (reference, leaf) with equal serials
    maps = []  # pair maps of autos, made when orbits are first needed

    def pair_maps():
        maps.extend(_pair_map(a[0][0], a[1][0], mods) for a in autos[len(maps):])
        return maps

    def visit(order, rots, verts, strands, faces, body):
        """Search below one node; return the depth to jump back to, if any."""
        nonlocal best, ref
        depth = len(order)
        last = depth == k - 1
        kids = []
        for loop in fits[depth]:
            if loop in order:
                continue
            for rot in range(mods[loop]):
                v, s, f = dict(verts), dict(strands), dict(faces)
                text = body + _chunk(gc, loop, rot, v, s, f)
                key = (order + (loop,), rots + (rot,))
                if last:
                    serial = f"{head}{f[outer]}|{text}"
                    if best is None or serial < best:
                        best, ref = serial, (key, f, v)
                    elif serial == best:
                        autos.append((ref, (key, f, v)))
                        (ref_order, ref_rots), _, _ = ref
                        if (ref_order[:depth], ref_rots[:depth]) != (order, rots):
                            # jump back to the node where the two readings part
                            return next(j for j in range(depth)
                                        if (ref_order[j], ref_rots[j]) != (order[j], rots[j]))
                    continue
                text += "|"
                prefix = f"{head}{f[outer]}|{text}" if outer in f else None
                kids.append((prefix, key, v, s, f, text))
        low = min((kid[0] for kid in kids if kid[0] is not None), default=None)
        entered, covered, seen = [], set(), None
        for prefix, key, v, s, f, text in kids:
            if prefix is not None and (
                prefix > low or (best is not None and prefix > best[: len(prefix)])
            ):
                continue
            pair = (key[0][-1], key[1][-1])
            if autos:
                if seen != (len(autos), len(entered)):
                    seen = (len(autos), len(entered))
                    gens = [g for g in pair_maps() if _fixes(g, order, rots)]
                    covered = _orbit(entered, gens, mods)
                if pair in covered:
                    continue
            entered.append(pair)
            split = visit(*key, v, s, f, text)
            if split is not None and split < depth:
                return split
        return None

    visit((), (), {}, {}, {}, "")
    (ref_order, ref_rots), faces, verts = ref
    # one loop: every leaf is read in key order, so the reference is the
    # first minimal reading and each later minimal leaf one automorphism
    order = 1 + len(autos)
    if autos and k > 1:
        order = 1
        base = tuple(zip(ref_order, ref_rots))
        least = {(): (tuple(range(k)), (0,) * k)}  # least image prefixes, each with one g
        for d, point in enumerate(base):
            gens = [g for g in pair_maps() if _fixes(g, ref_order[:d], ref_rots[:d])]
            transversal = _orbit([point], gens, mods)
            order *= len(transversal)
            images = [(img + (_apply(h, y, mods),), _compose(h, u, mods))
                      for img, h in least.items() for y, u in transversal.items()]
            low = min(img[-1][0] for img, _ in images)
            least = {img: g for img, g in images if img[-1][0] == low}
        first = min(least, key=lambda img: [rot for _, rot in img])
        if first != base:
            faces, verts, strands = {}, {}, {}
            text = "|".join(_chunk(gc, loop, rot, verts, strands, faces) for loop, rot in first)
            if f"{head}{faces[outer]}|{text}" != best:
                raise InconsistencyError("least image of the reference reading is not minimal")
    return Readings(best, (faces, verts), tuple(autos), order)


def _pair_map(ref_key, key, mods):
    """The map of (loop, basepoint) pairs that carries reading ref_key to key:
    loop order_ref[j] -> order[j], rotation r -> r + rots[j] - rots_ref[j]."""
    perm, shift = [0] * len(mods), [0] * len(mods)
    for loop_a, rot_a, loop_b, rot_b in zip(*ref_key, *key):
        perm[loop_a] = loop_b
        shift[loop_a] = (rot_b - rot_a) % mods[loop_a]
    return tuple(perm), tuple(shift)


def _apply(g, pair, mods):
    loop, rot = pair
    return g[0][loop], (rot + g[1][loop]) % mods[loop]


def _compose(g, h, mods):
    """g after h, on (loop, basepoint) pairs."""
    perm, shift = h
    return (tuple(g[0][p] for p in perm),
            tuple((s + g[1][p]) % mods[p] for p, s in zip(perm, shift)))


def _fixes(g, order, rots):
    """Whether pair map g fixes every (loop, rotation) pair of a prefix."""
    perm, shift = g
    return all(perm[loop] == loop and shift[loop] == 0 for loop in order)


def _orbit(points, gens, mods):
    """The pairs reachable from points under gens, each with a map of the
    group they generate that carries the first point of its orbit to it."""
    ident = (tuple(range(len(mods))), (0,) * len(mods))
    reached = {}
    for point in points:
        if point in reached:
            continue
        reached[point] = ident
        frontier = [point]
        while frontier and gens:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = _apply(g, x, mods)
                    if y not in reached:
                        reached[y] = _compose(g, reached[x], mods)
                        nxt.append(y)
            frontier = nxt
    return reached


def tie_listing_readings(gc: GaussCode):
    """The pruned `diagram._minimal_readings` that listed every tie: the
    minimal serial and every (faces, verts) reading that reaches it, in
    (loop order, rotations) order.

    The serial of a reading is the header n{V}f{F}o{outer}| followed by
    the loop chunks joined by |. The search goes depth first over loop
    positions: position p takes each unused loop of the p-th least shape
    (occurrences, arcs) at each basepoint rotation. All children of a node are read
    before any is entered, and a child is dropped when its serial prefix
    (with a trailing | as chunks follow) is above a sibling's prefix or
    above the best serial cut to the same length; ties go on. Sibling
    prefixes end in | and chunks hold none, so neither is a proper prefix
    of the other and the lower one beats every completion of the higher.
    The header is only known once the outer face has a label; until then
    nothing is dropped.
    """
    k = len(gc.occ)
    shape = [(len(gc.occ[i]), len(gc.arcs[i])) for i in range(k)]
    fits = [[i for i in range(k) if shape[i] == s] for s in sorted(shape)]
    head = f"n{len({v for occ in gc.occ for v, _ in occ})}f{gc.num_faces}o"
    outer = gc.outer_face
    best = None
    leaves = []

    def visit(order, rots, verts, strands, faces, body):
        nonlocal best, leaves
        last = len(order) == k - 1
        kids = []
        for loop in fits[len(order)]:
            if loop in order:
                continue
            for rot in range(max(1, shape[loop][0])):
                v, s, f = dict(verts), dict(strands), dict(faces)
                text = body + _chunk(gc, loop, rot, v, s, f)
                key = (order + (loop,), rots + (rot,))
                if last:
                    serial = f"{head}{f[outer]}|{text}"
                    if best is None or serial < best:
                        best, leaves = serial, []
                    if serial == best:
                        leaves.append((key, f, v))
                    continue
                text += "|"
                prefix = f"{head}{f[outer]}|{text}" if outer in f else None
                kids.append((prefix, key, v, s, f, text))
        low = min((kid[0] for kid in kids if kid[0] is not None), default=None)
        for prefix, key, v, s, f, text in kids:
            if prefix is not None and (
                prefix > low or (best is not None and prefix > best[: len(prefix)])
            ):
                continue
            visit(*key, v, s, f, text)

    visit((), (), {}, {}, {}, "")
    leaves.sort(key=lambda leaf: leaf[0])
    return best, [(faces, verts) for _, faces, verts in leaves]


def target_readings(gc: GaussCode, target: str):
    """Every (faces, verts) reading of gc whose serial is `target`, in
    (loop order, rotations) order. Every position may take any loop left,
    whatever its shape, since a reading combined over the nesting forest
    need not list the loops by shape; a node is dropped once its chunks
    are not a prefix of the target's, and each leaf left is read again in
    full by `_read`."""
    k = len(gc.occ)
    body = target.partition("|")[2]
    leaves = []

    def visit(order, rots, verts, strands, faces, text):
        for loop in range(k):
            if loop in order:
                continue
            for rot in range(max(1, len(gc.occ[loop]))):
                v, s, f = dict(verts), dict(strands), dict(faces)
                read = text + _chunk(gc, loop, rot, v, s, f)
                key = (order + (loop,), rots + (rot,))
                if len(order) == k - 1:
                    serial, f, v = _read(gc, *key)
                    if serial == target:
                        leaves.append((key, f, v))
                elif body.startswith(read + "|"):
                    visit(*key, v, s, f, read + "|")

    visit((), (), {}, {}, {}, "")
    leaves.sort(key=lambda leaf: leaf[0])
    return [(faces, verts) for _, faces, verts in leaves]


def crossing_order_readings(gc: GaussCode):
    """Every reading of a diagram of one component that takes first a loop
    on the outer face and then, each time, a loop that crosses one already
    read, at every basepoint, each read in full by `_read`: the least
    serial and the (faces, verts) readings that reach it, in (loop order,
    rotations) order."""
    passers = {}
    for loop, occ in enumerate(gc.occ):
        for v, _ in occ:
            passers.setdefault(v, set()).add(loop)
    best, readings = None, []
    for order in permutations(range(len(gc.occ))):
        if not any(gc.outer_face in arc for arc in gc.arcs[order[0]]):
            continue
        if not all(any(passers[v] & set(order[:i]) for v, _ in gc.occ[loop])
                   for i, loop in enumerate(order) if i):
            continue
        for rots in product(*(range(max(1, len(gc.occ[loop]))) for loop in order)):
            serial, faces, verts = _read(gc, order, rots)
            if best is None or serial < best:
                best, readings = serial, []
            if serial == best:
                readings.append((faces, verts))
    return best, readings


def compose_perms(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """The original `diagram.compose_perms`: g after h, the image of i is g[h[i]]."""
    return tuple(map(g.__getitem__, h))


def _group(arr: Arrangement, found) -> SymmetryGroup:
    """The `diagram._group` that listed G as the tuple closure of the
    automorphisms found for arr, then found its generators in a second
    closure pass that checked the group axioms (`_checked_generators`).
    Each automorphism, a pair map, is turned into face and crossing
    permutations by reading the diagram from every loop's first arc and
    from the pair map's image of each."""
    if found.order > MAX_GROUP_ORDER:
        raise ValidationError(
            f"symmetry group of {found.order} elements exceeds the budget of "
            f"{MAX_GROUP_ORDER} elements"
        )
    ident = (tuple(range(arr.r)), tuple(range(len(arr.vertices))))
    elements, used = {ident}, []
    gc = gauss_code(arr)
    loops = tuple(range(len(gc.occ)))
    mods = [max(1, len(occ)) for occ in gc.occ]
    _, *reading = _read(gc, loops, (0,) * len(loops))
    for g in found.automorphisms:
        # the pair map carries the identity reading to its image reading
        perm, shift = zip(*(g.get(loop, (loop, 0)) for loop in loops))
        _, *image = _read(gc, perm, tuple(s % m for s, m in zip(shift, mods)))
        corr = _correspondence(arr, arr, *reading, *image)
        h = (tuple(f - 1 for f in corr.faces), corr.vertices)
        if h in elements:
            continue
        used.append(h)
        frontier = list(elements)
        while frontier:
            nxt = []
            for g in frontier:
                for u in used:
                    prod = (compose_perms(g[0], u[0]), compose_perms(g[1], u[1]))
                    if prod not in elements:
                        elements.add(prod)
                        nxt.append(prod)
            frontier = nxt
    if len(elements) != found.order:
        raise InconsistencyError(
            f"automorphisms close to {len(elements)} elements, orbits give {found.order}"
        )
    elements = sorted(elements)
    generators = _checked_generators(elements)
    return _packaged(elements, generators)


def automorphism_rows(arr: Arrangement, maps):
    """The `diagram._automorphism_rows` that turned pair maps into element
    rows of `diagram._group` by walking the arrangement's half-edges:
    under pair map g, arc j of loop l goes to arc j + s of loop l' for
    g.get(l, (l, 0)) = (l', s), taking the faces on its two sides and the
    crossing it starts at along. A map that sends a face or a crossing to
    two places, a bounded face to the outer one, or a passage to one whose
    crossing turns the other way is no diagram automorphism and raises
    InconsistencyError."""
    r = arr.r
    # per loop and passage: the sign of its crossing seen from its strand
    turns = [[_turn(arr.vertices[v], loop, t) for t, v in per]
             for loop, per in enumerate(arr.passages)]
    rows = []
    for g in maps:
        perm, shift = zip(*(g.get(loop, (loop, 0)) for loop in range(len(arr.loop_arcs))))
        row = [-1] * (r + len(arr.vertices))
        for loop, arcs in enumerate(arr.loop_arcs):
            image, passages = arr.loop_arcs[perm[loop]], arr.passages[perm[loop]]
            for j, he in enumerate(arcs):
                k = (j + shift[loop]) % len(image)
                for x, y in ((he, image[k]),
                             (arr.half_edges[he].twin, arr.half_edges[image[k]].twin)):
                    fa, fb = arr.faces[arr.half_edges[x].face], arr.faces[arr.half_edges[y].face]
                    if fa.is_outer != fb.is_outer or (
                            not fa.is_outer and row[fa.label - 1] not in (-1, fb.label - 1)):
                        raise InconsistencyError("pair map is not a diagram automorphism")
                    if not fa.is_outer:
                        row[fa.label - 1] = fb.label - 1
                if passages:
                    v, w = r + arr.passages[loop][j][1], r + passages[k][1]
                    if row[v] not in (-1, w) or turns[loop][j] != turns[perm[loop]][k]:
                        raise InconsistencyError("pair map is not a diagram automorphism")
                    row[v] = w
        rows.append(row)
    return rows


def _turn(vertex, loop, t):
    """The sign of a crossing seen from the strand of loop `loop` at t."""
    return vertex.sign if vertex.first == (loop, t) else -vertex.sign


def _packaged(elements, generators) -> SymmetryGroup:
    """The sorted (face, vertex) tuple pairs as `SymmetryGroup`'s int arrays."""
    return SymmetryGroup(
        np.array([e[0] for e in elements], dtype=np.intp),
        np.array([e[1] for e in elements], dtype=np.intp),
        generators,
    )


def _checked_generators(elements):
    """Greedy generators of the sorted element list, checking the group axioms.

    Each element not yet generated becomes a generator, and the generated
    set is closed under right multiplication by the generators. Every
    product must be an element and the identity must be one. Then every
    element is generated and the set is closed under products with the
    generators, so it equals the group the generators span; a finite set
    of permutations closed under products also holds every inverse.
    """
    present = set(elements)
    n_f, n_v = (len(elements[0][0]), len(elements[0][1])) if elements else (0, 0)
    ident = (tuple(range(n_f)), tuple(range(n_v)))
    if ident not in present:
        raise InconsistencyError("automorphism set lacks the identity")
    generated = {ident}
    gens: list[int] = []
    for k, el in enumerate(elements):
        if el in generated:
            continue
        gens.append(k)
        frontier = list(generated)
        while frontier:
            nxt = []
            for g in frontier:
                for h_idx in gens:
                    h = elements[h_idx]
                    prod = (compose_perms(g[0], h[0]), compose_perms(g[1], h[1]))
                    if prod not in generated:
                        if prod not in present:
                            raise InconsistencyError(
                                "automorphism set not closed under composition"
                            )
                        generated.add(prod)
                        nxt.append(prod)
            frontier = nxt
    return tuple(gens)


def tie_listing_group(arr: Arrangement, readings) -> SymmetryGroup:
    """The `diagram._group` that built G from every minimal reading of arr:
    the correspondences from the first of them to each of them."""
    elements = set()
    for faces, verts in readings:
        corr = _correspondence(arr, arr, *readings[0], faces, verts)
        elements.add((tuple(v - 1 for v in corr.faces), corr.vertices))
    elements = sorted(elements)
    generators = _checked_generators(elements)
    return _packaged(elements, generators)


def orbit_decision(a, b, corr, perms, tol, areas_a, areas_b) -> Decision:
    """The original `moduli._orbit_decision`, one loop over perms: EQUIVALENT
    at the first face permutation g in perms whose composite with corr
    aligns the area vectors; otherwise INEQUIVALENT, with the
    closest composite as witness."""
    _check_bijection(corr, a.r, b.r)
    va = _area_vector(a, areas_a)
    vb = _area_vector(b, areas_b)
    scale = max(va.max(), vb.max())
    best = None  # (discrepancy, g, composite): the first aligning, else the first closest
    verdict = Verdict.INEQUIVALENT
    for g in perms:
        composite = tuple(corr.faces[g[j]] for j in range(a.r))
        disc = max(abs(va[j] - vb[composite[j] - 1]) for j in range(a.r))
        if disc <= tol * scale:
            best, verdict = (disc, g, composite), Verdict.EQUIVALENT
            break
        if best is None or disc < best[0]:
            best = (disc, g, composite)
    disc, g, composite = best
    return Decision(verdict, tol, Witness(composite, perm_cycles(g), float(disc)))


def canonical_code(gc: GaussCode) -> str:
    """The original `diagram.canonical_code`: its own loop over the candidates."""
    best = None
    for order, rots in _candidates(gc):
        serial, _, _ = _read(gc, order, rots)
        if best is None or serial < best:
            best = serial
    return best


def _minimal_reading(gc: GaussCode):
    """The original `diagram._minimal_reading`: the first strictly minimal reading."""
    best = None
    for order, rots in _candidates(gc):
        serial, faces, verts = _read(gc, order, rots)
        if best is None or serial < best[0]:
            best = (serial, faces, verts)
    return best


def isotopy_match(a: Arrangement, b: Arrangement) -> FaceCorrespondence | None:
    """The original `diagram.isotopy_match`, on `_minimal_reading`."""
    gca = gauss_code(a)
    gcb = gauss_code(b)
    sa, face_a, vert_a = _minimal_reading(gca)
    sb, face_b, vert_b = _minimal_reading(gcb)
    if sa != sb:
        return None
    return _correspondence(a, b, face_a, vert_a, face_b, vert_b)


def symmetry_group(arr: Arrangement) -> SymmetryGroup:
    """The original `diagram.symmetry_group`: readings equal to the identity
    reading, then an O(|G|^2) axiom check and a separate generator search."""
    gc = gauss_code(arr)
    base_serial, base_faces, base_verts = _read(gc, *next(_candidates(gc)))

    elements = []
    seen = set()
    for order, rots in _candidates(gc):
        serial, faces, verts = _read(gc, order, rots)
        if serial != base_serial:
            continue
        corr = _correspondence(arr, arr, base_faces, base_verts, faces, verts)
        fperm = tuple(v - 1 for v in corr.faces)
        vperm = corr.vertices
        if (fperm, vperm) not in seen:
            seen.add((fperm, vperm))
            elements.append((fperm, vperm))
    elements.sort()
    _verify_group(elements)
    generators = _find_generators(elements)
    return _packaged(elements, generators)


def invert_perm(g: tuple[int, ...]) -> tuple[int, ...]:
    """The original `diagram.invert_perm`: the permutation undoing g."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[gi] = i
    return tuple(out)


def _verify_group(elements):
    index = {e: k for k, e in enumerate(elements)}
    n_faces = len(elements[0][0]) if elements else 0
    ident = (tuple(range(n_faces)), tuple(range(len(elements[0][1]))) if elements else ())
    if ident not in index:
        raise InconsistencyError("automorphism set lacks the identity")
    for f1, v1 in elements:
        inv = (invert_perm(f1), invert_perm(v1))
        if inv not in index:
            raise InconsistencyError("automorphism set not closed under inverse")
        for f2, v2 in elements:
            prod = (compose_perms(f1, f2), compose_perms(v1, v2))
            if prod not in index:
                raise InconsistencyError("automorphism set not closed under composition")


def _find_generators(elements):
    if not elements:
        return ()
    n_f = len(elements[0][0])
    n_v = len(elements[0][1])
    ident = (tuple(range(n_f)), tuple(range(n_v)))
    generated = {ident}
    gens: list[int] = []
    for k, el in enumerate(elements):
        if el in generated:
            continue
        gens.append(k)
        frontier = list(generated)
        while frontier:
            nxt = []
            for g in frontier:
                for h_idx in gens:
                    h = elements[h_idx]
                    prod = (compose_perms(g[0], h[0]), compose_perms(g[1], h[1]))
                    if prod not in generated:
                        generated.add(prod)
                        nxt.append(prod)
            frontier = nxt
    return tuple(gens)


def point_at(curve: ClosedCurve, loop: int, t: float) -> np.ndarray:
    """The original `ClosedCurve.point_at`: the point at cyclic parameter t on a loop."""
    pts = curve.loops[loop]
    n = len(pts)
    t = t % n
    i = int(t)
    frac = t - i
    return (1.0 - frac) * pts[i] + frac * pts[(i + 1) % n]


def tangent_at(curve: ClosedCurve, loop: int, t: float) -> np.ndarray:
    """The original `ClosedCurve.tangent_at`: unit tangent at parameter t;
    averaged across a sample point."""
    pts = curve.loops[loop]
    n = len(pts)
    t = t % n
    i = int(t)
    frac = t - i
    if 1e-9 < frac < 1.0 - 1e-9:
        d = pts[(i + 1) % n] - pts[i]
    else:
        j = i if frac <= 1e-9 else (i + 1) % n
        a = pts[j] - pts[(j - 1) % n]
        b = pts[(j + 1) % n] - pts[j]
        d = a / np.linalg.norm(a) + b / np.linalg.norm(b)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValidationError(f"loop {loop}: degenerate tangent at t={t}")
    return d / norm


def check_generic(curve, angle_tol=DEFAULT_ANGLE_TOL, sep_tol=None):
    """The original `curves.check_generic`: the dense `_segment_hits` and
    the all-pairs `_cluster_hits` below, then per cluster a mean point, a
    germ merge, and two `tangent_at` calls. A cluster whose germs merge
    into one passage is skipped, as the program skips it; the original
    raised ValueError there."""
    require_positive("angle_tol", angle_tol)
    if sep_tol is None:
        sep_tol = SEP_TOL_FACTOR * curve.bbox_diagonal()
    require_positive("sep_tol", sep_tol)

    violations: list[Violation] = []
    hits = _segment_hits(curve, sep_tol, violations)
    clusters = _cluster_hits(hits, sep_tol)

    double_points: list[DoublePoint] = []
    for cluster in clusters:
        point = np.mean([h[0] for h in cluster], axis=0)
        germs = curves._merge_germs([g for h in cluster for g in h[1]], curve)
        if len(germs) > 2:
            violations.append(
                Violation("triple-point", point, tuple(germs), f"{len(germs)} strands meet")
            )
            continue
        if len(germs) < 2:
            continue
        (la, ta), (lb, tb) = germs
        u = tangent_at(curve, la, ta)
        v = tangent_at(curve, lb, tb)
        cross = float(cross2(u, v))
        angle = float(np.arcsin(min(1.0, abs(cross))))
        if angle < angle_tol:
            violations.append(
                Violation(
                    "tangency", point, tuple(germs), f"crossing angle {angle:.3g} < {angle_tol:.3g}"
                )
            )
        else:
            # angle >= angle_tol > 0, so cross is nonzero
            sign = 1 if cross > 0 else -1
            double_points.append(DoublePoint(point, (la, ta), (lb, tb), angle, sign))

    curves._check_cusps(curve, violations)

    double_points.sort(key=lambda dp: dp.first)
    violations.sort(key=lambda v: (v.kind, v.branches))
    return GenericityReport(
        double_points=tuple(double_points),
        violations=tuple(violations),
        angle_tol=angle_tol,
        sep_tol=sep_tol,
    )


def _segment_hits(curve, sep_tol, violations):
    """The original `curves._segment_hits`: dense n x n candidate arrays.

    All polyline self-intersections, plus near-miss violations.

    Returns a list of (point, ((loop, t), (loop, t))) records. Candidate
    segment pairs come from a bounding-box overlap prefilter inflated by
    sep_tol; adjacent segments of the same loop are excluded, and the
    near-miss test additionally skips parameter-close pairs, whose
    closeness is curvature, not a second strand. A near-miss beside a
    crossing pair is dropped too: a crossing within sep_tol of a sample
    point brings the neighbouring segments within sep_tol of each other.
    """
    loops = curve.loops
    for la in range(len(loops)):
        for lb in range(la, len(loops)):
            a, b = loops[la], loops[lb]
            na, nb = len(a), len(b)
            a1 = np.roll(a, -1, axis=0)
            b1 = np.roll(b, -1, axis=0)
            alo = np.minimum(a, a1) - sep_tol
            ahi = np.maximum(a, a1) + sep_tol
            blo, bhi = np.minimum(b, b1), np.maximum(b, b1)
            overlap = (
                (alo[:, None, 0] <= bhi[None, :, 0])
                & (ahi[:, None, 0] >= blo[None, :, 0])
                & (alo[:, None, 1] <= bhi[None, :, 1])
                & (ahi[:, None, 1] >= blo[None, :, 1])
            )
            if la == lb:
                i, j = np.meshgrid(np.arange(na), np.arange(nb), indexing="ij")
                gap = np.minimum((i - j) % na, (j - i) % na)
                overlap &= gap > 1
                overlap &= i < j
                near_window = max(2, na // 100)
            else:
                near_window = 0
            crossed = set()
            near = []
            for i, j in np.argwhere(overlap):
                res = segment_intersection(a[i], a1[i], b[j], b1[j])
                if res is not None:
                    t, u, point = res
                    crossed.add((int(i), int(j)))
                    yield point, ((la, (i + t) % na), (lb, (j + u) % nb))
                    continue
                if la == lb and min((i - j) % na, (j - i) % na) <= near_window:
                    continue
                dist = segment_pair_distance(a[i], a1[i], b[j], b1[j])
                if dist < sep_tol:
                    near.append((i, j, dist))
            for i, j, dist in near:
                if _beside_crossing(i, j, na, nb, crossed, la == lb):
                    continue
                mid = 0.25 * (a[i] + a1[i] + b[j] + b1[j])
                violations.append(
                    Violation(
                        "near-miss",
                        mid,
                        ((la, float(i)), (lb, float(j))),
                        f"strands {dist:.3g} apart without crossing (tol {sep_tol:.3g})",
                    )
                )


def _beside_crossing(i, j, na, nb, crossed, same_loop):
    """Whether segment pair (i, j) or a neighbour (i +- 1, j +- 1) crosses.

    Pairs of one loop are stored as (i, j) with i < j, so both
    orientations are looked up there.
    """
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            pair = ((i + di) % na, (j + dj) % nb)
            if pair in crossed or (same_loop and pair[::-1] in crossed):
                return True
    return False


def _cluster_hits(hits, sep_tol):
    """The original `curves._cluster_hits`: every pair of records measured."""
    hits = list(hits)
    parent = list(range(len(hits)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            if np.linalg.norm(hits[i][0] - hits[j][0]) <= sep_tol:
                parent[find(i)] = find(j)
    groups: dict[int, list] = {}
    for i, h in enumerate(hits):
        groups.setdefault(find(i), []).append(h)
    return [groups[k] for k in sorted(groups)]


# --- arrangement wiring from tangents ---------------------------------------


@dataclass
class HalfEdge:
    """The original `arrangement.HalfEdge`, with parameter ends and vertex ends."""

    index: int
    loop: int
    t0: float
    t1: float  # t1 > t0 means forward in parameter; reversed for twins
    origin: int | None  # vertex index; None anchors a crossing-free loop
    target: int | None
    twin: int
    next: int
    face: int
    points: np.ndarray  # directed polyline including both endpoints


def _build_half_edges(curve, vertices, passages):
    half_edges: list[HalfEdge] = []
    loop_arcs: list[tuple[int, ...]] = []
    vpoints = [v.point for v in vertices]
    for loop, per in enumerate(passages):
        n = len(curve.loops[loop])
        arcs = []
        if not per:
            pts = curve.loops[loop]
            ring = np.vstack([pts, pts[:1]])
            fwd = HalfEdge(len(half_edges), loop, 0.0, float(n), None, None, -1, -1, -1, ring)
            bwd = HalfEdge(
                len(half_edges) + 1, loop, float(n), 0.0, None, None, -1, -1, -1, ring[::-1].copy()
            )
            fwd.twin, bwd.twin = bwd.index, fwd.index
            half_edges.extend([fwd, bwd])
            arcs.append(fwd.index)
        else:
            for k, (t0, v0) in enumerate(per):
                t1, v1 = per[(k + 1) % len(per)]
                poly = _arc_points(curve, loop, t0, t1, vpoints[v0], vpoints[v1])
                fwd = HalfEdge(len(half_edges), loop, t0, t0 + ((t1 - t0) % n or n), v0, v1, -1, -1, -1, poly)
                bwd = HalfEdge(
                    len(half_edges) + 1,
                    loop,
                    fwd.t1,
                    t0,
                    v1,
                    v0,
                    -1,
                    -1,
                    -1,
                    poly[::-1].copy(),
                )
                fwd.twin, bwd.twin = bwd.index, fwd.index
                half_edges.extend([fwd, bwd])
                arcs.append(fwd.index)
        loop_arcs.append(tuple(arcs))
    return half_edges, loop_arcs


def _link_next(curve, vertices, half_edges, passages):
    """The original `arrangement._link_next`: outgoing tangents sorted by angle."""
    outgoing: dict[int, list[tuple[float, int]]] = {v.index: [] for v in vertices}
    for he in half_edges:
        if he.origin is None:
            he.next = he.index  # crossing-free loop: the walk is the loop itself
            continue
        if he.t1 > he.t0:
            d = tangent_at(curve, he.loop, he.t0 % len(curve.loops[he.loop]))
        else:
            d = -tangent_at(curve, he.loop, he.t0 % len(curve.loops[he.loop]))
        outgoing[he.origin].append((float(np.arctan2(d[1], d[0])), he.index))
    order_at = {}
    for vid, items in outgoing.items():
        items.sort()
        order_at[vid] = [idx for _, idx in items]
    for he in half_edges:
        if he.target is None:
            continue
        order = order_at[he.target]
        k = order.index(he.twin)
        # the face walk turns as sharply left as possible: the outgoing
        # edge one step clockwise from the reversed incoming direction
        he.next = order[(k - 1) % len(order)]


def _loop_components(num_loops, passages):
    parent = list(range(num_loops))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vert_loop: dict[int, int] = {}
    for loop, per in enumerate(passages):
        for _, vid in per:
            if vid in vert_loop:
                parent[find(vert_loop[vid])] = find(loop)
            else:
                vert_loop[vid] = loop
    roots = {}
    comp = []
    for loop in range(num_loops):
        root = find(loop)
        if root not in roots:
            roots[root] = len(roots)
        comp.append(roots[root])
    return tuple(comp)


def _cycle_polygon(half_edges, cycle):
    """The original `arrangement._cycle_polygon`: one walk's closed
    polyline, whose last point is its first, bit for bit."""
    return np.vstack([half_edges[cycle[0]].points] + [half_edges[i].points[1:] for i in cycle[1:]])


def polygon_moments(starts, ends):
    """The per-walk `geometry.polygon_moments`: shoelace (signed area,
    area centroid) of one closed polygon's edges."""
    x, y = starts[:, 0], starts[:, 1]
    xn, yn = ends[:, 0], ends[:, 1]
    w = x * yn - xn * y
    area = 0.5 * float(np.sum(w))
    if area == 0:
        return area, starts.mean(axis=0)
    return area, np.array([np.sum((x + xn) * w), np.sum((y + yn) * w)]) / (6.0 * area)


def validate_loops(loops):
    """The original per-loop checks of `ClosedCurve`: each loop's checks in
    turn, loop after loop; raises the first failure's ValidationError."""
    for k, pts in enumerate(loops):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"loop {k}: expected shape (n, 2), got {pts.shape}")
        if len(pts) < MIN_LOOP_SAMPLES:
            raise ValidationError(
                f"loop {k}: {len(pts)} samples, need at least {MIN_LOOP_SAMPLES}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValidationError(f"loop {k}: non-finite coordinate")
        if np.any(np.abs(pts) > MAX_COORD):
            raise ValidationError(
                f"loop {k}: coordinate magnitude above {MAX_COORD:g}, "
                "where face moments can overflow"
            )
        extent = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
        if extent < MIN_EXTENT:
            raise ValidationError(
                f"loop {k}: extent {extent:.3g} below {MIN_EXTENT:g}, "
                "where fixed tolerances lose crossings"
            )
        step = np.roll(pts, -1, axis=0) - pts
        if np.any(np.hypot(step[:, 0], step[:, 1]) == 0.0):
            raise ValidationError(f"loop {k}: repeated consecutive sample")


def check_cusps(curve, violations):
    """The original `curves._check_cusps`: one turning-angle pass per loop."""
    for k, pts in enumerate(curve.loops):
        step = np.roll(pts, -1, axis=0) - pts
        prev = np.roll(step, 1, axis=0)
        turn = np.abs(np.arctan2(cross2(prev, step), np.einsum("ij,ij->i", prev, step)))
        for i in np.flatnonzero(turn >= MAX_TURN):
            violations.append(
                Violation(
                    "cusp-proxy",
                    pts[i],
                    ((k, float(i)),),
                    f"turning angle {turn[i]:.3g} >= {MAX_TURN:.3g} at sample {i}",
                )
            )


def signed_area(points) -> float:
    """The original `geometry.signed_area`."""
    p = np.asarray(points, dtype=float)
    if len(p) < 3:
        return 0.0
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _polygon_centroid_raw(poly):
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    w = x * yn - xn * y
    a = 0.5 * np.sum(w)
    if a == 0:
        return poly.mean(axis=0)
    return np.array([np.sum((x + xn) * w), np.sum((y + yn) * w)]) / (6.0 * a)


def representative_point(arr: Arrangement, face: Face) -> tuple[np.ndarray, float]:
    """The original `arrangement._representative_point`, and the point's
    distance to the face's boundary: the centroid from one shoelace pass
    per walk for the area and another for the moments, else the first
    inward offset of an edge midpoint, edge by edge, that lies in the face
    more than 0.4 offsets from its boundary. Each offset fraction's
    candidates go through the per-edge winding and per-segment distance
    oracles together."""
    weighted = np.zeros(2)
    for poly in face_walks(face):
        a = signed_area(poly)
        weighted += a * _polygon_centroid_raw(poly)
    centroid = weighted / face.area
    scale = float(np.sqrt(face.area))
    if face_contains(face, centroid)[0]:
        gap = boundary_distance(face, centroid)[0]
        if gap > 1e-6 * scale:
            return centroid, float(gap)
    for frac in (0.2, 0.08, 0.02, 0.005):
        delta = frac * scale
        candidates = []
        for poly in face_walks(face):
            for i in range(len(poly)):
                a, b = poly[i], poly[(i + 1) % len(poly)]
                d = b - a
                norm = np.linalg.norm(d)
                if norm == 0:
                    continue
                # face lies left of the directed boundary
                inward = np.array([-d[1], d[0]]) / norm
                candidates.append(0.5 * (a + b) + delta * inward)
        inside = np.array(candidates)[face_contains(face, candidates)]
        gaps = boundary_distance(face, inside)
        for p, gap in zip(inside, gaps):
            if gap > 0.4 * delta:
                return p, float(gap)
    raise InconsistencyError(f"no interior representative point found for face {face.index}")


def assemble_faces(arr: Arrangement) -> list[Face]:
    """The faces of `arr` by the original hole rule of `arrangement._assemble_faces`.

    A negative walk's component probe (the first sample of the
    component's first loop) is tested against every positive walk of
    another component, one edge-by-edge winding call per pair, and the
    walk becomes a hole of the first smallest positive walk around it.
    Faces come in the library's order, one per positive walk and then
    the outer face, with edges rolled from their polygons. Returns the
    faces, face by face their walks, and each component's host face.
    """
    half_edges = arr.half_edges
    cycles = _extract_cycles(half_edges)
    polys = [_cycle_polygon(half_edges, c)[:-1] for c in cycles]
    areas = [signed_area(p) for p in polys]
    cycle_comp = [arr.components[half_edges[c[0]].loop] for c in cycles]
    positive = [i for i, a in enumerate(areas) if a > 0]
    negative = [i for i, a in enumerate(areas) if a <= 0]
    comp_probe = {}
    for loop, comp in enumerate(arr.components):
        comp_probe.setdefault(comp, arr.curve.loops[loop][0])

    holes: dict[int, list[int]] = {i: [] for i in positive}
    outer_cycles = []
    hosts = {}  # component -> index of the face around it
    for i in negative:
        probe = comp_probe[cycle_comp[i]]
        best = None
        for j in positive:
            if cycle_comp[j] == cycle_comp[i]:
                continue
            if winding_numbers(probe[None, :], polys[j])[0] != 0:
                if best is None or abs(areas[j]) < abs(areas[best]):
                    best = j
        if best is None:
            outer_cycles.append(i)
            hosts[cycle_comp[i]] = len(positive)
        else:
            holes[best].append(i)
            hosts[cycle_comp[i]] = positive.index(best)

    def face(members, is_outer):
        walks = tuple(polys[m] for m in members)
        area = float(sum(areas[m] for m in members))
        weighted = np.zeros(2)
        for m in members:
            weighted += areas[m] * _polygon_centroid_raw(polys[m])
        rolled = np.vstack([np.roll(w, -1, axis=0) for w in walks])
        walks_of.append(walks)
        return Face(index=len(faces), edges=(np.vstack(walks), rolled), area=area,
                    is_outer=is_outer, centroid=None if is_outer else weighted / area)

    faces: list[Face] = []
    walks_of: list[tuple[np.ndarray, ...]] = []
    for j in positive:
        faces.append(face([j] + sorted(holes[j]), False))
    faces.append(face(sorted(outer_cycles), True))
    return faces, walks_of, tuple(hosts[c] for c in sorted(hosts))


def gauss_signs(arr: Arrangement) -> tuple[int, ...]:
    """The tangent-sign block of the original `diagram.gauss_code`."""
    signs = []
    for v in arr.vertices:
        u = tangent_at(arr.curve, *v.first)
        w = tangent_at(arr.curve, *v.second)
        s = cross2(u, w)
        if s == 0:
            raise InconsistencyError("parallel strand tangents at a crossing")
        signs.append(1 if s > 0 else -1)
    return tuple(signs)


@dataclass(frozen=True)
class Vertex:
    """The original `arrangement.Vertex`: a double point with its index."""

    index: int
    point: np.ndarray
    branches: tuple[tuple[int, float], tuple[int, float]]  # (loop, parameter) per strand
    sign: int  # +1 or -1: orientation of the strand tangents, as in DoublePoint


def wiring(curve, report):
    """The original half-edge wiring of `arrangement.build_arrangement`:
    vertices, passages, half-edges linked by sorted tangents, face walks,
    their polygons, shoelace areas and centroids, and loop components."""
    vertices = tuple(
        Vertex(i, dp.point, (dp.first, dp.second), dp.sign)
        for i, dp in enumerate(report.double_points)
    )
    passages: list[tuple[tuple[float, int], ...]] = []
    for loop in range(len(curve.loops)):
        per = []
        for v in vertices:
            for germ_loop, t in v.branches:
                if germ_loop == loop:
                    per.append((t, v.index))
        per.sort()
        passages.append(tuple(per))
    half_edges, loop_arcs = _build_half_edges(curve, vertices, passages)
    _link_next(curve, vertices, half_edges, passages)
    cycles = _extract_cycles(half_edges)
    polygons = [_cycle_polygon(half_edges, c)[:-1] for c in cycles]
    return SimpleNamespace(
        passages=tuple(passages),
        half_edges=half_edges,
        loop_arcs=loop_arcs,
        cycles=cycles,
        polygons=polygons,
        areas=[signed_area(p) for p in polygons],
        centroids=[_polygon_centroid_raw(p) for p in polygons],
        components=_loop_components(len(curve.loops), passages),
    )
