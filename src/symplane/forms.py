"""Area-form engine on sampled grids.

A Density is a Grid of node values of the coefficient f of an area form
f dx dy, equal to 1 outside a support box derived from those values. A
GridMap is a plane map given by its displacement on a grid, with
Jacobians by central differences; every map here is one. On top of
these sit the pullback, the explicit primitive map
(x, y) -> (integral of f along the row, y), bump-function realization
of prescribed face areas, and Moser interpolation between densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .arrangement import Arrangement, face_integrator
from .arrangement import integrate_density_over_faces  # noqa: F401  (the benchmark's tracer wraps it here)
from .curves import _read_text, _significant_lines
from .errors import (
    FormatError,
    InconsistencyError,
    RealizationError,
    ValidationError,
    require_positive,
)
from .geometry import PAIR_CHUNK

DEFAULT_GRID = 256
DEFAULT_STEPS = 64
MIN_STEPS = 4
DEFAULT_INFLATE = 0.25
UNIT_SNAP = 1e-12
# relative shortfall of a target below its base face integral that
# realize_area_vector still accepts as roundoff
FEASIBILITY_TOL = 1e-6
# largest node count of any grid, checked before a node array exists:
# realize_area_vector peaks near 29 bytes a node under tracemalloc (a
# trefoil at 1024^2: base, output and node buffer at 8 each, face
# labels and corner indices), so 4096^2 nodes need about 0.5 GB; the
# CLI's density file text comes on top
MAX_GRID_NODES = 4096 * 4096
# largest nodes x steps of one Moser flow, checked before the flow starts:
# 1024^2 nodes at 256 steps, about 70 s at the 0.26 us a node-step that
# 64 steps on a 512^2 two-Gaussian pair take (4.3-4.5 s, 2-core x86-64)
MAX_FLOW_NODE_STEPS = 1024 * 1024 * 256


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid of nx by ny nodes over [x0, x1] x [y0, y1].

    A node array has shape (nx, ny): entry [i, j] is at (xs[i], ys[j]).
    xs and ys are made once per grid and are read-only.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        bounds = (self.x0, self.x1, self.y0, self.y1)
        if not (np.all(np.isfinite(bounds)) and self.x1 > self.x0 and self.y1 > self.y0):
            raise ValidationError(f"grid domain {bounds} needs finite x0 < x1 and y0 < y1")
        widths = [float(self.x1) - float(self.x0), float(self.y1) - float(self.y0)]
        if not np.all(np.isfinite(widths)):
            raise ValidationError(f"grid domain {bounds} is too wide: x1 - x0 or y1 - y0 overflows")
        if self.nx < 2 or self.ny < 2:
            raise ValidationError("grid needs at least 2 nodes per axis")
        if int(self.nx) * int(self.ny) > MAX_GRID_NODES:
            raise ValidationError(
                f"grid of {self.nx}x{self.ny} nodes exceeds the budget of "
                f"{MAX_GRID_NODES} nodes"
            )

    @cached_property
    def xs(self):
        return _read_only(np.linspace(self.x0, self.x1, self.nx))

    @cached_property
    def ys(self):
        return _read_only(np.linspace(self.y0, self.y1, self.ny))

    @property
    def hx(self):
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self):
        return (self.y1 - self.y0) / (self.ny - 1)

    def same_grid(self, other):
        return (
            (self.x0, self.x1, self.y0, self.y1, self.nx, self.ny)
            == (other.x0, other.x1, other.y0, other.y1, other.nx, other.ny)
        )

    def outside_slabs(self, box):
        """Four index pairs of node blocks whose union is the set of nodes
        outside the box (bx0, bx1, by0, by1).

        They are the nodes left of, right of, below and above the box, in
        that order; blocks may overlap at the corners. The node
        coordinates are sorted, so searchsorted finds each block's edge.
        A nan bound compares false with every coordinate, so its block is
        empty; searchsorted places nan after every number, which gives
        that on the upper bounds and needs a guard on the lower ones.
        """
        bx0, bx1, by0, by1 = box
        xs, ys = self.xs, self.ys
        every = slice(None)
        return (
            (slice(0, 0 if np.isnan(bx0) else np.searchsorted(xs, bx0, "left")), every),
            (slice(np.searchsorted(xs, bx1, "right"), None), every),
            (every, slice(0, 0 if np.isnan(by0) else np.searchsorted(ys, by0, "left"))),
            (every, slice(np.searchsorted(ys, by1, "right"), None)),
        )


def _read_only(a):
    a.setflags(write=False)
    return a


def _bilinear(grid, values, x, y):
    """Bilinear interpolation of node values at (x, y), clamped to the grid."""
    nx, ny = grid.nx, grid.ny
    fx = np.clip((x - grid.x0) / grid.hx, 0.0, nx - 1.0)
    fy = np.clip((y - grid.y0) / grid.hy, 0.0, ny - 1.0)
    ix = np.minimum(fx.astype(int), nx - 2)
    iy = np.minimum(fy.astype(int), ny - 2)
    tx = fx - ix
    ty = fy - iy
    v00 = values[ix, iy]
    v10 = values[ix + 1, iy]
    v01 = values[ix, iy + 1]
    v11 = values[ix + 1, iy + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


class _Owned:
    """Node values made here for one Density and used by nothing else:
    the Density keeps them without a copy."""

    def __init__(self, values):
        self.values = values


@dataclass(frozen=True, eq=False)
class Density(Grid):
    """Positive grid density, exactly 1 outside its support box.

    The support box is derived from the values, not given. Values passed
    in are copied, so no caller can change a Density.
    """

    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        vals = self.values
        vals = vals.values if isinstance(vals, _Owned) else np.array(vals, dtype=float)
        if vals.shape != (self.nx, self.ny):
            raise ValidationError(
                f"values shape {vals.shape} does not match grid "
                f"({self.nx}, {self.ny})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("density values must be finite")
        if np.any(vals <= 0):
            raise ValidationError("density values must be positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @cached_property
    def support_box(self):
        """Tight box (x0, x1, y0, y1) around the nodes whose values differ
        from 1, widened by one node each side within the grid; the domain's
        centre point when every value is 1."""
        off = self.values != 1.0
        ix = np.flatnonzero(off.any(axis=1))  # the x indices of nodes off 1
        if not ix.size:
            cx = 0.5 * (self.x0 + self.x1)
            cy = 0.5 * (self.y0 + self.y1)
            return (cx, cx, cy, cy)
        iy = np.flatnonzero(off.any(axis=0))
        xs, ys = self.xs, self.ys
        return (
            float(xs[max(0, ix[0] - 1)]),
            float(xs[min(self.nx - 1, ix[-1] + 1)]),
            float(ys[max(0, iy[0] - 1)]),
            float(ys[min(self.ny - 1, iy[-1] + 1)]),
        )

    def value_at(self, points):
        """Bilinear value at each point, exactly 1 outside the grid."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x = pts[:, 0]
        y = pts[:, 1]
        out = np.ones(len(pts))
        inside = (x >= self.x0) & (x <= self.x1) & (y >= self.y0) & (y <= self.y1)
        if np.any(inside):
            out[inside] = _bilinear(self, self.values, x[inside], y[inside])
        return out


def make_density(x0, x1, y0, y1, values):
    """Density over [x0,x1] x [y0,y1] with the grid counts of the values."""
    values = np.asarray(values, dtype=float)
    nx, ny = values.shape
    return Density(x0, x1, y0, y1, nx, ny, values)


def unit_density(x0, x1, y0, y1, nx=DEFAULT_GRID, ny=None):
    """The constant density 1 on the given domain."""
    if ny is None:
        ny = nx
    Grid(x0, x1, y0, y1, nx, ny)  # the domain check, before any node array
    values = np.ones((nx, ny))
    # the counts of values.shape are Python ints, whatever type nx and ny are
    return Density(x0, x1, y0, y1, *values.shape, _Owned(values))


def density_for_curve(curve, n=DEFAULT_GRID):
    """Unit density on the curve's bounding box inflated on every side."""
    cx0, cx1, cy0, cy1 = curve.bbox()
    pad = DEFAULT_INFLATE * max(cx1 - cx0, cy1 - cy0, 1e-9)
    return unit_density(cx0 - pad, cx1 + pad, cy0 - pad, cy1 + pad, n, n)


@lru_cache(maxsize=16)
def _row_weights(k, width):
    """Fixed pseudo-random int64 weights of grid k in _distinct_rows's digest."""
    w = np.random.default_rng([k, width]).integers(np.iinfo(np.int64).max, size=width)
    w.setflags(write=False)
    return w


def _distinct_rows(*grids):
    """Group the rows of equal-height 2-D float arrays by their bits.

    Row r's key is row r of every grid, compared bit for bit, so -0.0 and
    0.0 differ and a nan equals its own bits. Returns (reps, group): reps
    holds the first row of each group in order, and group[r] is the index
    in reps of row r's group. A row joins the first row with the same
    digest, a weighted sum of its bits, only if it equals that row bit for
    bit; one that does not stands alone, which loses sharing, not bits.
    Both passes read blocks of whole columns, so no second copy of the
    grids is held.
    """
    bits = [g.view(np.int64) for g in grids]
    n = len(bits[0])
    step = max(1, PAIR_CHUNK // n)
    digest = np.zeros(n, np.int64)
    for k, b in enumerate(bits):
        # integer sums wrap around, so the digest is the sum mod 2**64
        w = _row_weights(k, b.shape[1])
        for lo in range(0, b.shape[1], step):
            digest += b[:, lo:lo + step] @ w[lo:lo + step]
    first = {}
    rep = np.array([first.setdefault(h, r) for r, h in enumerate(digest.tolist())])
    if len(first) < n:
        differ = np.zeros(n, bool)
        for b in bits:
            for lo in range(0, b.shape[1], step):
                differ |= np.any(b[:, lo:lo + step] != b[rep, lo:lo + step], axis=1)
        rep[differ] = np.flatnonzero(differ)
    reps = np.flatnonzero(rep == np.arange(n))
    return reps, np.searchsorted(reps, rep)


def _serialize_grid(tag, g, rows, background) -> str:
    """Grid file text: header, domain line, then one line of node values per y row.

    Each distinct row is formatted once. Only values whose bits differ
    from the background's go through repr, so -0.0 is still written -0.0
    when the background is 0.0.
    """
    word = repr(float(background))
    blank = np.float64(background).view(np.int64)
    reps, group = _distinct_rows(rows)
    texts = []
    for row in (rows[r] for r in reps):
        where = np.flatnonzero(row.view(np.int64) != blank)
        words = [word] * len(row)
        for i, value in zip(where.tolist(), row[where].tolist()):
            words[i] = repr(value)
        texts.append(" ".join(words))
    lines = [
        f"{tag} v1",
        f"{float(g.x0)!r} {float(g.x1)!r} {float(g.y0)!r} {float(g.y1)!r} {g.nx} {g.ny}",
    ]
    lines.extend(texts[k] for k in group.tolist())
    lines.append("")  # the final newline, so the text is joined once
    return "\n".join(lines)


def _parse_grid(text, tag, per_node, noun):
    """Domain (x0, x1, y0, y1) and node values, shape (per_node, nx, ny), of a grid file.

    File order is row by row in y, x varying fastest, per_node values
    per node; lines may split the values anywhere. Each distinct line is
    split and converted once, by Python's float, in order of first
    appearance, so the first bad value in file order is the one reported.
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
    data = lines[2:]
    tokens = {line: line.split() for line in dict.fromkeys(data)}
    count = sum(len(tokens[line]) for line in data)
    if count != per_node * nx * ny:
        raise FormatError(f"expected {per_node * nx * ny} {noun} values, found {count}")
    try:
        values = {line: np.fromiter(map(float, t), float, len(t)) for line, t in tokens.items()}
    except ValueError as exc:
        raise FormatError(f"bad {noun} value: {exc}") from None
    flat = np.concatenate([values[line] for line in data]) if data else np.empty(0)
    return domain, flat.reshape(ny, nx, per_node).T


def serialize_density(d: Density) -> str:
    return _serialize_grid("density", d, d.values.T, 1.0)


def save_density(d: Density, path):
    Path(path).write_text(serialize_density(d), encoding="utf-8")


def parse_density(text: str) -> Density:
    domain, (values,) = _parse_grid(text, "density", 1, "density")
    return make_density(*domain, values)


def load_density(path) -> Density:
    return parse_density(_read_text(path))


def _as_points(points):
    return np.atleast_2d(np.asarray(points, dtype=float))


class GridMap(Grid):
    """Displacement field sampled on a uniform grid.

    Evaluation adds the bilinearly interpolated displacement, with the
    displacement held constant beyond the grid edges (coordinates are
    clamped). The Jacobian uses central differences with the grid
    spacing as step, so it is second order in the spacing.
    """

    def __init__(self, x0, x1, y0, y1, disp_x, disp_y):
        disp_x = np.asarray(disp_x, dtype=float)
        disp_y = np.asarray(disp_y, dtype=float)
        if disp_x.shape != disp_y.shape or disp_x.ndim != 2:
            raise ValidationError("displacement grids must share a 2d shape")
        super().__init__(float(x0), float(x1), float(y0), float(y1), *disp_x.shape)
        if not (np.all(np.isfinite(disp_x)) and np.all(np.isfinite(disp_y))):
            raise ValidationError("displacement values must be finite")
        self.disp_x = disp_x
        self.disp_y = disp_y

    def evaluate(self, points):
        """Map an (m, 2) array of points to an (m, 2) array."""
        pts = _as_points(points)
        x = pts[:, 0]
        y = pts[:, 1]
        dx = _bilinear(self, self.disp_x, x, y)
        dy = _bilinear(self, self.disp_y, x, y)
        return np.column_stack([x + dx, y + dy])

    def jacobian(self, points):
        """(m, 2, 2) Jacobian matrices at the given points."""
        pts = _as_points(points)
        ex = np.array([self.hx, 0.0])
        ey = np.array([0.0, self.hy])
        col_x = (self.evaluate(pts + ex) - self.evaluate(pts - ex)) / (2 * self.hx)
        col_y = (self.evaluate(pts + ey) - self.evaluate(pts - ey)) / (2 * self.hy)
        return np.stack([col_x, col_y], axis=2)


def serialize_map(gm: GridMap) -> str:
    # row j interleaves disp_x[i, j] and disp_y[i, j] node by node
    pairs = np.stack([gm.disp_x.T, gm.disp_y.T], axis=-1).reshape(gm.ny, 2 * gm.nx)
    return _serialize_grid("dispmap", gm, pairs, 0.0)


def save_map(gm: GridMap, path):
    Path(path).write_text(serialize_map(gm), encoding="utf-8")


def parse_map(text: str) -> GridMap:
    domain, (disp_x, disp_y) = _parse_grid(text, "dispmap", 2, "displacement")
    return GridMap(*domain, disp_x, disp_y)


def load_map(path) -> GridMap:
    return parse_map(_read_text(path))


def pullback(m: GridMap, omega: Density) -> Density:
    """Density p -> f(m(p)) det J_m(p) on omega's grid.

    m is evaluated at omega's nodes and J_m is its central difference,
    which sees m's displacement held constant beyond m's own grid.
    Values within UNIT_SNAP of 1 are snapped to exactly 1 so the support
    box of the result stays tight.
    """
    gx, gy = np.meshgrid(omega.xs, omega.ys, indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    mapped = m.evaluate(nodes)
    jac = m.jacobian(nodes)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    if np.any(det <= 0):
        worst = nodes[int(np.argmin(det))]
        raise ValidationError(
            f"nonpositive Jacobian determinant near ({worst[0]:.6g}, {worst[1]:.6g})"
        )
    vals = omega.value_at(mapped) * det
    vals[np.abs(vals - 1.0) < UNIT_SNAP] = 1.0
    if np.any(vals <= 0):
        raise ValidationError("pullback produced a nonpositive density value")
    return make_density(
        omega.x0, omega.x1, omega.y0, omega.y1, vals.reshape(omega.nx, omega.ny)
    )


def _row_integral(values, hx, x0, x1, outside_slope):
    """Cumulative integral along rows from x0, with the value at x = 0.

    Returns (G, G0) where G[i, j] integrates values[:, j] from x0 to
    xs[i] by the trapezoid rule and G0[j] is the integral from x0 to 0,
    extending with `outside_slope` per unit length beyond the grid.
    """
    nx = values.shape[0]
    # the arithmetic of scipy's cumulative_trapezoid(values, dx=hx, axis=0,
    # initial=0.0), operation for operation, so G is bit-equal to it
    G = np.zeros_like(values, dtype=float)
    np.cumsum(hx * (values[1:] + values[:-1]) / 2.0, axis=0, out=G[1:])
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


def primitive_diffeo(omega: Density) -> GridMap:
    """The map (x, y) -> (integral of f(s, y) for s from 0 to x, y).

    The integral uses the cumulative trapezoid rule along grid rows,
    anchored at x = 0 and extended by f = 1 outside the grid. Since
    f > 0 the map is strictly increasing in x on every row.
    """
    G, G0 = _row_integral(omega.values, omega.hx, omega.x0, omega.x1, 1.0)
    T = G - G0[None, :]
    disp_x = T - omega.xs[:, None]
    return GridMap(
        omega.x0, omega.x1, omega.y0, omega.y1, disp_x, np.zeros_like(disp_x)
    )


def _mollifier(r2):
    """Standard bump profile in the squared radius, normalized to peak 1."""
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def _node_window(nodes, c, eps):
    """Nodes within eps of c, widened by one node each side, clipped to the grid."""
    lo = np.searchsorted(nodes, c - eps, side="left")
    hi = np.searchsorted(nodes, c + eps, side="right")
    return slice(max(lo - 1, 0), min(hi + 1, len(nodes)))


def _face_bumps(arr: Arrangement, omega: Density):
    """Peak-1 bump per bounded face on a disc interior to it, as (node window, values)."""
    xs, ys = omega.xs, omega.ys
    bumps = []
    for face in arr.bounded_faces:
        rx, ry = face.rep_point
        # > 0: _assign_labels keeps only points strictly off the boundary
        eps = 0.5 * face.clearance
        wx, wy = _node_window(xs, rx, eps), _node_window(ys, ry, eps)
        r2 = ((xs[wx, None] - rx) ** 2 + (ys[None, wy] - ry) ** 2) / (eps * eps)
        bumps.append(((wx, wy), _mollifier(r2)))
    return bumps


def realize_area_vector(
    arr: Arrangement,
    target,
    base: Density | None = None,
    base_scale: float = 1.0,
    grid_n: int = DEFAULT_GRID,
) -> tuple[Density, np.ndarray]:
    """Density whose integral over face j equals target[j], built from base.

    Adds c_j times a normalized bump supported in a disc interior to
    face j, with c_j = target[j] - (current integral). The construction
    only adds mass, so every target must sit at or above the base face
    integral; pass base_scale < 1 to first carve mass out of each face
    and make room for smaller targets.

    Returns the density and its integrals over the faces by label
    order: the vector checked against the targets, bit for bit what
    integrate_density_over_faces gives for the density.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (arr.r,):
        raise ValidationError(
            f"target has {target.shape} entries, arrangement has {arr.r} faces"
        )
    require_positive("target areas", target)
    if not 0 < base_scale <= 1:
        raise ValidationError("base_scale must lie in (0, 1]")
    if base is None:
        base = density_for_curve(arr.curve, n=grid_n)

    bumps = _face_bumps(arr, base)
    integrate = face_integrator(arr, base)
    values = base.values  # read-only; copied below before any write
    if base_scale < 1.0:
        values = np.array(values)
        for win, bump in bumps:
            values[win] = values[win] * (1.0 - (1.0 - base_scale) * bump)
    current = integrate(values)

    scale = max(1.0, float(np.max(np.abs(target))))
    coeffs = target - current
    for j, c in enumerate(coeffs):
        if c < -FEASIBILITY_TOL * scale:
            raise RealizationError(
                f"target for face {j + 1} is {current[j] - target[j]:.6g} below "
                "the base integral; the construction only adds mass "
                "(try base_scale < 1)"
            )

    out = np.array(values)
    leaking = []  # faces whose bump puts mass into another bounded face
    for j, (c, (win, bump)) in enumerate(zip(coeffs, bumps)):
        # finite and >= 0, as on_window needs: the bump is >= 0, density
        # values are > 0 and the carve factor is >= base_scale > 0
        mass, leaks = integrate.on_window(bump * values[win], win, j)
        if mass <= 0:
            raise RealizationError(
                f"no interior disc resolved on the grid for face {j + 1}; "
                "refine the grid"
            )
        if leaks:
            leaking.append(j + 1)
        out[win] += (c / mass) * bump * values[win]

    if np.any(out <= 0):
        raise RealizationError("realized density lost positivity")
    result = Density(base.x0, base.x1, base.y0, base.y1, *out.shape, _Owned(out))
    achieved = integrate(result.values)
    if np.max(np.abs(achieved - target)) > 1e-9 * scale:
        if leaking:
            raise RealizationError(
                f"the bump for face {leaking[0]} puts mass into another face's "
                "grid cells; refine the grid"
            )
        raise InconsistencyError(
            "realized face integrals drifted from the target beyond roundoff"
        )
    return result, achieved


def moser_interpolation(f0: Density, f1: Density, steps: int = DEFAULT_STEPS) -> GridMap:
    """Time-1 flow carrying data for f1 back to f0 along f_t = (1-t)f0 + t f1.

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

    The flow runs on the distinct rows and, on them, on the active
    nodes only. Rows whose f0 and f1 are bit-equal share the map, so the
    row integral, the spline, the still test and the flow each run once
    per distinct row. A node where A = 0 and f0 and f1 read one finite
    value of at least 4 * tiny stays in place, with no zero density on
    the way, so it gets a +0 map without being integrated; a row of such
    nodes only is a row where f0 = f1. Each stage writes into buffers
    made once per flow, and a node's 12 coefficients are gathered again
    only when it enters another interval. The stage loop calls ufuncs
    and array methods, not numpy's Python-level wrappers (np.clip,
    np.take, ndarray.any, np.flatnonzero), on constants and views bound
    once per flow and in the operation order of the all-rows flow: on a
    few hundred nodes the wrappers cost more than the arithmetic. All of
    this is exact: each stage is elementwise arithmetic on a node's own
    position and coefficients, which depend only on its row and interval
    (the spline solve treats each row on its own), so every node gets
    the bits, the zero check and the overflow traps of the flow of all
    rows. For ny' distinct rows, the spline build and the still test
    take O(nx * ny') time and the spline coefficients 12 * (nx - 1) * ny'
    floats; the flow then takes O(m * steps) time and buffers of 24
    floats and 6 integers per active node, for m active nodes (the
    not-still nodes of the distinct rows).

    Densities whose values overflow the flow's floating-point arithmetic
    raise ValidationError.
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
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            disp_x = _flow_rows(f0, f1, steps)
    except FloatingPointError:
        raise ValidationError(
            "density values overflow the flow's arithmetic; rescale the densities"
        ) from None
    return GridMap(f0.x0, f0.x1, f0.y0, f0.y1, disp_x, np.zeros_like(disp_x))


def _flow_rows(f0: Density, f1: Density, steps: int) -> np.ndarray:
    """The x displacement of each node under moser_interpolation's flow."""
    xs = f0.xs
    # Every stage is arithmetic on a row's own f0 and f1 columns, so rows
    # whose (f0, f1) columns are bit-equal get the same bits throughout,
    # the zero check and the overflow traps included: each stage runs on
    # the distinct rows only, and the map is scattered back to all rows.
    reps, group = _distinct_rows(f0.values.T, f1.values.T)
    ny = len(reps)
    cols = reps if ny < f0.ny else slice(None)  # a view when all rows are distinct
    vals0, vals1 = f0.values[:, cols], f1.values[:, cols]
    # the difference vanishes outside both support boxes, so the anchored
    # integral picks up nothing beyond the grid
    G, G0 = _row_integral(vals0 - vals1, f0.hx, f0.x0, f0.x1, 0.0)
    A = G - G0[None, :]

    # imported here so that only the flow pays for loading scipy
    from scipy.interpolate import CubicSpline

    # per-row piecewise cubics of A, f0 and f1 (fields 0, 1, 2):
    # planes[3 * k + field, interval * ny + row] multiplies s**(3 - k),
    # with s the offset from the interval's left node. The spline solve
    # treats each row on its own, so these are the all-rows spline's bits.
    planes = np.moveaxis(
        CubicSpline(xs, np.stack([A, vals0, vals1], axis=1), axis=0).c, 2, 1
    ).reshape(12, -1)

    # The stage loop calls ufuncs and array methods only (and the thin
    # np.count_nonzero): numpy's Python-level wrappers (np.clip, np.take,
    # ndarray.any, np.flatnonzero, np.copyto's dispatch) and the
    # conversion of a Python number operand cost more than the arithmetic
    # on a few hundred nodes. Its constants are 0-d arrays made once per
    # flow, with the bits the Python numbers had.
    x0, x1, hx = (np.array(v, dtype=float) for v in (f0.x0, f0.x1, f0.hx))
    last, width = np.array(f0.nx - 2), np.array(ny)

    def fields(rows):
        # An evaluator of A, f0 and f1 at positions px of the nodes on
        # distinct rows `rows`, and the buffer it writes them to, made
        # once: rows a, v0 and v1, bound once by the caller. A node's 12
        # coefficients depend only on its row and interval, so they are
        # gathered again only for nodes whose interval changed since the
        # last call; when more than a fifth did, one full gather is the
        # cheaper one.
        m = rows.size
        c, held = np.empty((4, 3, m)), np.full(m, -1)
        flat, (c0, c1, c2, c3) = c.reshape(12, m), c
        cx, s, i, col = np.empty(m), np.empty(m), np.empty(m, int), np.empty(m, int)
        val, changed = np.empty((3, m)), np.empty(m, bool)

        def evaluate(px):
            # clip's bits: maximum and minimum differ from it only in the
            # sign of a zero equal to a bound, which reaches the cubic only
            # as s = +-0 on a node whose A is +0.0 and density positive
            np.minimum(np.maximum(px, x0, out=cx), x1, out=cx)
            np.divide(np.subtract(cx, x0, out=s), hx, out=s)
            i[...] = s  # truncates, as astype(int)
            np.minimum(i, last, out=i)  # i >= 0 as cx >= x0
            np.subtract(cx, xs.take(i, out=s, mode="clip"), out=s)
            n = np.count_nonzero(np.not_equal(i, held, out=changed))
            if n:
                np.add(np.multiply(i, width, out=col), rows, out=col)
                if 5 * n > m:
                    planes.take(col, axis=1, out=flat, mode="clip")
                    held[...] = i
                else:
                    new = changed.nonzero()[0]
                    flat[:, new] = planes.take(col[new], axis=1)
                    held[new] = i[new]
            np.multiply(c0, s, out=val)
            np.multiply(np.add(val, c1, out=val), s, out=val)
            np.multiply(np.add(val, c2, out=val), s, out=val)
            np.add(val, c3, out=val)

        return evaluate, val

    # A node whose field is zero never leaves its place, so its map is +0.
    # If f0 and f1 also read one finite v >= 4 * tiny there,
    # (1 - t) v + t v > 0 at every stage time (t ends a few ulps from 1),
    # so the zero check cannot fire on it either. Such nodes skip the flow;
    # rows of them only are the rows where f0 = f1.
    evaluate, (a, v0, v1) = fields(np.tile(np.arange(ny), f0.nx))
    evaluate(np.repeat(xs, ny))
    tiny = np.finfo(float).tiny
    still = ((a == 0) & (v0 == v1) & (v0 >= 4 * tiny) & np.isfinite(v0)).reshape(f0.nx, ny)
    # The flow runs on flat arrays of the active nodes: the nodes of the
    # distinct rows that are not still.
    knot, row = np.nonzero(~still)
    if not knot.size:
        return np.zeros((f0.nx, f0.ny))
    evaluate, (a, v0, v1) = fields(row)
    m = knot.size
    ft, low, zero = np.empty(m), np.empty(m, bool), np.array(0.0)

    def velocity(px, t, out):
        evaluate(px)
        np.add(np.multiply(v0, 1.0 - t, out=ft), np.multiply(v1, t, out=v1), out=ft)
        if np.logical_or.reduce(np.less_equal(ft, zero, out=low)):
            raise ValidationError(
                "interpolated density hit zero during the flow; refine the grid "
                "or smooth the densities"
            )
        return np.divide(a, ft, out=out)

    # classical RK4, the operations of the all-rows flow in their order
    x = xs[knot]
    k1, k2, k3, k4, xt = (np.empty(m) for _ in range(5))
    dt = 1.0 / steps
    half, full, sixth, two = (np.array(v) for v in (0.5 * dt, dt, dt / 6.0, 2.0))
    t = 0.0
    for _ in range(steps):
        velocity(x, t, k1)
        velocity(np.add(x, np.multiply(k1, half, out=xt), out=xt), t + 0.5 * dt, k2)
        velocity(np.add(x, np.multiply(k2, half, out=xt), out=xt), t + 0.5 * dt, k3)
        velocity(np.add(x, np.multiply(k3, full, out=xt), out=xt), t + dt, k4)
        k1 += np.multiply(k2, two, out=k2)
        k1 += np.multiply(k3, two, out=k3)
        k1 += k4
        x += np.multiply(k1, sixth, out=k1)
        t += dt

    disp = np.zeros((f0.nx, ny))
    disp[knot, row] = x - xs[knot]
    return disp[:, group] if ny < f0.ny else disp


def union_box(a, b):
    """Smallest box containing both boxes (x0, x1, y0, y1)."""
    return (
        min(a[0], b[0]),
        max(a[1], b[1]),
        min(a[2], b[2]),
        max(a[3], b[3]),
    )


def support_defect(gm: GridMap, box) -> float:
    """Largest displacement at grid nodes outside the given box.

    The horizontal Moser gauge need not vanish outside the supports
    unless every row integral of f0 - f1 is zero; this measures the
    leak. The maximum is taken block by block over `Grid.outside_slabs`,
    0 where no node lies outside.
    """
    return float(np.max([np.max(np.abs(disp[slab]), initial=0.0)
                         for slab in gm.outside_slabs(box) for disp in (gm.disp_x, gm.disp_y)]))
