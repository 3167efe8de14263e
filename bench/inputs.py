"""Seeded input families for the benchmark, written as symplane files.

The curve and density families are reproduced here rather than imported
from the test suite, so later test edits cannot change what the
benchmark measures. Everything is a pure function of a numpy Generator;
the program under test only ever sees the files written by
``write_curve`` and ``write_density``.

The geometric helpers (crossing finder, turning angle, face raster)
are also the benchmark's independent reference: the output checks in
``checks.py`` compare the program's reports against them.
"""

from __future__ import annotations

import numpy as np

# A petal is kept only if its crossings are comfortably transverse and
# its polygon turns gently, so that every accepted input is certified
# generic by the program with a wide margin (the program's own guards are
# 0.1 rad for crossings and pi/2 for turning). The turning bound and the
# 512-sample affine images follow the recipe of acceptance criterion 3:
# shears of strength below 0.5 cannot push such a loop past either guard.
PETAL_MIN_ANGLE = 0.25
PETAL_MAX_TURN = 0.35
PETAL_MIN_GAP = 1e-2  # distance between distinct crossings, relative to bbox diagonal
# Every loop written keeps its crossings at least this fraction of a
# segment away from the samples: the program reports a transverse
# crossing that passes within its separation tolerance of a sample as a
# near-miss (see CHANGES.md), which would make the call fail for some
# seeds only.
CROSSING_MARGIN = 0.02
PETAL_CATALOG_SEED = 2007


# --- geometry shared with the checks -------------------------------------


def resample(pts, n, passes=6):
    """n points at (nearly) equal arclength along a closed polyline."""
    cur = np.asarray(pts, dtype=float)
    for _ in range(passes):
        ring = np.vstack([cur, cur[:1]])
        step = np.diff(ring, axis=0)
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(step[:, 0], step[:, 1]))])
        targets = np.arange(n) * (cum[-1] / n)
        cur = np.column_stack(
            [np.interp(targets, cum, ring[:, 0]), np.interp(targets, cum, ring[:, 1])]
        )
    return cur


def max_turning(pts):
    """Largest turning angle between consecutive segments of a closed polyline."""
    step = np.roll(pts, -1, axis=0) - pts
    prev = np.roll(step, 1, axis=0)
    cross = prev[:, 0] * step[:, 1] - prev[:, 1] * step[:, 0]
    dot = np.einsum("ij,ij->i", prev, step)
    return float(np.max(np.abs(np.arctan2(cross, dot))))


def crossings(pts):
    """Proper self-crossings of a closed polyline, found by an x-interval sweep.

    Returns an (m, 4) array of (x, y, angle, margin) rows: angle is the
    angle between the two crossing segments in (0, pi/2], margin the
    distance of the crossing from the nearer end of either segment, as
    a fraction of that segment. Adjacent segments are skipped; a
    crossing exactly through a sample point is not expected for the
    generated families and raises.
    """
    a = np.asarray(pts, dtype=float)
    b = np.roll(a, -1, axis=0)
    n = len(a)
    lo = np.minimum(a[:, 0], b[:, 0])
    hi = np.maximum(a[:, 0], b[:, 0])
    order = np.argsort(lo, kind="stable")
    lo_sorted = lo[order]
    # sorted position p may overlap positions p+1 .. end[p]-1 in x
    end = np.searchsorted(lo_sorted, hi[order], side="right")
    counts = np.maximum(end - np.arange(n) - 1, 0)
    first = np.repeat(np.arange(n), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    i = order[first]
    j = order[first + 1 + offset]
    gap = np.abs(i - j)
    keep = (gap != 1) & (gap != n - 1)
    i, j = i[keep], j[keep]
    ylo_i = np.minimum(a[i, 1], b[i, 1])
    yhi_i = np.maximum(a[i, 1], b[i, 1])
    ylo_j = np.minimum(a[j, 1], b[j, 1])
    yhi_j = np.maximum(a[j, 1], b[j, 1])
    keep = (ylo_i <= yhi_j) & (ylo_j <= yhi_i)
    i, j = i[keep], j[keep]

    def orient(p, q, r):
        return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (
            r[:, 0] - p[:, 0]
        )

    d1 = orient(a[i], b[i], a[j])
    d2 = orient(a[i], b[i], b[j])
    d3 = orient(a[j], b[j], a[i])
    d4 = orient(a[j], b[j], b[i])
    if np.any(((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)) & (d1 * d2 <= 0) & (d3 * d4 <= 0)):
        raise ValueError("degenerate crossing through a sample point")
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    i, j = i[hit], j[hit]
    u = b[i] - a[i]
    v = b[j] - a[j]
    denom = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    w = a[j] - a[i]
    t = (w[:, 0] * v[:, 1] - w[:, 1] * v[:, 0]) / denom
    s = (w[:, 0] * u[:, 1] - w[:, 1] * u[:, 0]) / denom
    point = a[i] + t[:, None] * u
    sin = np.abs(denom) / (np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1]))
    angle = np.arcsin(np.minimum(sin, 1.0))
    margin = np.minimum.reduce([t, 1.0 - t, s, 1.0 - s])
    return np.column_stack([point, angle, margin])


def clear_crossings(pts):
    """Crossings of a loop, or None if one lies within CROSSING_MARGIN of a sample."""
    found = crossings(pts)
    if len(found) and np.min(found[:, 3]) < CROSSING_MARGIN:
        return None
    return found


def face_area_bounds(loops, x0, x1, y0, y1, nx, ny):
    """Lower and upper bound of the total bounded-face area of a curve.

    Rasters the (nx-1, ny-1) cells of a node grid that must contain the
    curve with a margin. Cells the curve passes through (each segment
    sampled at a quarter cell) are `touched`; the other cells split into
    4-connected components, and those cut off from the grid's border lie
    in bounded faces, whatever their winding number. The union of the
    bounded faces covers these `inside` cells and lies within inside
    plus touched cells. A segment that only clips a cell corner, for
    less than a quarter cell, leaves the cell unmarked and may count a
    sliver of at most 1/32 cell as inside; the lower bound gives up one
    eighth of a cell per touched cell for that.
    """
    from scipy.ndimage import label

    hx = (x1 - x0) / (nx - 1)
    hy = (y1 - y0) / (ny - 1)
    a = np.vstack(loops)
    d = np.vstack([np.roll(p, -1, axis=0) for p in loops]) - a
    steps = np.ceil(np.maximum(np.abs(d[:, 0]) / hx, np.abs(d[:, 1]) / hy) * 4).astype(int) + 1
    seg = np.repeat(np.arange(len(a)), steps)
    frac = (np.arange(steps.sum()) - np.repeat(np.cumsum(steps) - steps, steps)) / steps[seg]
    pts = a[seg] + frac[:, None] * d[seg]
    ix = np.clip(((pts[:, 0] - x0) / hx).astype(int), 0, nx - 2)
    iy = np.clip(((pts[:, 1] - y0) / hy).astype(int), 0, ny - 2)
    touched = np.zeros((nx - 1, ny - 1), dtype=bool)
    touched[ix, iy] = True
    parts, _ = label(~touched)
    rim = np.unique(np.concatenate([parts[0], parts[-1], parts[:, 0], parts[:, -1]]))
    inside = int(np.count_nonzero((parts > 0) & ~np.isin(parts, rim)))
    edge = int(np.count_nonzero(touched))
    return (inside - edge / 8) * hx * hy, (inside + edge) * hx * hy


# --- curve families ------------------------------------------------------


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def petal_params(rng):
    """One draw of the lobed petal family's parameters."""
    k = int(rng.integers(2, 4))
    a = rng.uniform(1.3, 2.4)
    ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    b = rng.uniform(-0.25, 0.25)
    return k, a, ph1, ph2, b


def petal_points(params, n):
    """Petal loop with large low-frequency lobes, n samples at equal arclength."""
    k, a, ph1, ph2, b = params
    t = 2.0 * np.pi * np.arange(n) / n
    x = np.sin(t) + a * np.sin(k * t + ph1) + b * np.cos((k + 1) * t)
    y = np.cos(t) - a * np.cos(k * t + ph2) + b * np.sin((k + 1) * t)
    return resample(np.column_stack([x, y]), n)


def petal_crossings_ok(pts):
    """Crossing rows of a petal with a safe margin, or None to reject it."""
    if max_turning(pts) > PETAL_MAX_TURN:
        return None
    found = clear_crossings(pts)
    if found is None or len(found) == 0 or np.min(found[:, 2]) < PETAL_MIN_ANGLE:
        return None
    diag = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    if len(found) > 1:
        d = np.hypot(*(found[:, None, :2] - found[None, :, :2]).transpose(2, 0, 1))
        d[np.diag_indices(len(found))] = np.inf
        if d.min() < PETAL_MIN_GAP * diag:
            return None
    return found


def petal_catalog(wanted):
    """Fixed petal shapes, one per entry of `wanted` (a list of crossing counts).

    The shapes come from one fixed draw of the family, so every seed
    sees the same shapes and the cost mix of a round (labelling work
    grows with the crossings and with crescent-shaped faces) does not
    depend on the seed.
    """
    rng = np.random.default_rng(PETAL_CATALOG_SEED)
    need = {m: wanted.count(m) for m in wanted}
    found = {m: [] for m in need}
    while any(len(found[m]) < need[m] for m in need):
        params = petal_params(rng)
        hits = petal_crossings_ok(petal_points(params, 256))
        m = 0 if hits is None else len(hits)
        if m in need and len(found[m]) < need[m]:
            found[m].append(params)
    return [found[m].pop(0) for m in wanted]


def petals(rng, wanted, n=256):
    """Seeded instances of the catalog petals: jittered, screened, at n samples."""
    out = []
    for k, a, ph1, ph2, b in petal_catalog(wanted):
        m = len(petal_crossings_ok(petal_points((k, a, ph1, ph2, b), 256)))
        for _ in range(1000):
            params = (k, a * rng.uniform(0.98, 1.02), ph1 + rng.uniform(-0.05, 0.05),
                      ph2 + rng.uniform(-0.05, 0.05), b + rng.uniform(-0.01, 0.01))
            hits = petal_crossings_ok(petal_points(params, 256))
            pts = petal_points(params, n)
            big = clear_crossings(pts)
            if hits is not None and big is not None and len(hits) == len(big) == m:
                out.append(pts)
                break
        else:
            raise RuntimeError("no screened instance of a catalog petal")
    return out


def trefoil_points(n, stretch=1.0):
    """(sin t + 2 sin 2t, cos t - 2 cos 2t), x stretched; three crossings."""
    t = 2.0 * np.pi * np.arange(n) / n
    x = np.sin(t) + 2.0 * np.sin(2 * t)
    y = np.cos(t) - 2.0 * np.cos(2 * t)
    return np.column_stack([stretch * x, y])


def gerono_points(n, scale=1.0):
    """Figure-eight (sin 2t, sin t); one crossing, midway between two samples."""
    t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return scale * np.column_stack([np.sin(2 * t), np.sin(t)])


def unit_jacobian(rng):
    """A random area-preserving affine map (matrix, shift) of rotations and shears."""
    rot = rotation(rng.uniform(0.0, 2.0 * np.pi))
    shx = np.array([[1.0, rng.uniform(-0.5, 0.5)], [0.0, 1.0]])
    shy = np.array([[1.0, 0.0], [rng.uniform(-0.5, 0.5), 1.0]])
    mat = (rot, shx, shy, rot @ shx @ shy)[int(rng.integers(0, 4))]
    return mat, rng.uniform(-1.0, 1.0, size=2)


def figure_eight_row(rng, k, n=128):
    """k congruent disjoint figure-eights in a row, plus two variants.

    The row is scaled and moved by the seed but not turned, which would
    change the work of the genericity check and the face labelling.

    Returns (row, reordered, rescaled): the reordered copy lists the
    same loops in a seeded order with seeded basepoints; the rescaled
    copy shrinks one seeded loop about its own center (its crossing) by
    a factor in [0.7, 0.85], so its area multiset differs from the row's.
    """
    size = rng.uniform(0.8, 1.2)
    shift = rng.uniform(-2.0, 2.0, size=2)
    base = gerono_points(n, size)
    loops = [base + np.array([3.0 * size * i, 0.0]) + shift for i in range(k)]
    perm = rng.permutation(k)
    if np.all(perm == np.arange(k)):
        perm = np.roll(perm, 1)
    reordered = [np.roll(loops[p], int(rng.integers(0, n)), axis=0) for p in perm]
    factor = rng.uniform(0.7, 0.85)
    which = int(rng.integers(0, k))
    rescaled = list(loops)
    center = loops[which].mean(axis=0)
    rescaled[which] = center + factor * (loops[which] - center)
    return loops, reordered, rescaled


# --- density families ----------------------------------------------------


def mollifier(r2):
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def dip_bump_pair(rng, n):
    """Unit density with a bump and a dip swapped between f0 and f1.

    Both discs sit on one horizontal line in x > 0, a whole number of
    grid cells apart, so every row integral of f0 - f1 vanishes on the
    grid as well and the flow leaves all nodes outside the discs in
    place. Returns (domain, f0, f1, support) with values indexed [x, y]
    and support the union box of the two discs.
    """
    x0, x1, y0, y1 = -0.5, 3.7, -1.2, 1.2
    amp = rng.uniform(0.3, 0.5)
    radius = rng.uniform(0.55, 0.7)
    cy = rng.uniform(-0.3, 0.3)
    ca = rng.uniform(0.75, 0.85)
    h = (x1 - x0) / (n - 1)
    cb = ca + round(rng.uniform(1.55, 1.65) / h) * h
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    ma = mollifier(((X - ca) ** 2 + (Y - cy) ** 2) / radius**2)
    mb = mollifier(((X - cb) ** 2 + (Y - cy) ** 2) / radius**2)
    f0 = 1.0 + amp * ma - amp * mb
    f1 = 1.0 - amp * ma + amp * mb
    support = (ca - radius, cb + radius, cy - radius, cy + radius)
    return (x0, x1, y0, y1), f0, f1, support


def smootherstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (u * (6.0 * u - 15.0) + 10.0)


def conveyor_pair(eps, nx, ny=8, speed=10.5):
    """Density pair whose flow rides a travelling wiggle between two ramps.

    f1 carries f0's wiggle pattern shifted by the transit displacement
    and the ramp masses match, so every row integral of f0 - f1
    vanishes. Returns (domain, f0, f1) with values indexed [x, y].
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
    return (0.0, width, 0.0, 1.0), np.repeat(v0[:, None], ny, axis=1), np.repeat(v1[:, None], ny, axis=1)


# --- file writers (the program's plain-text formats) ---------------------


def write_curve(path, loops):
    lines = ["curve v1"]
    for pts in loops:
        lines.append(f"loop {len(pts)}")
        lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in pts)
    path.write_text("\n".join(lines) + "\n")


def write_density(path, domain, values):
    x0, x1, y0, y1 = domain
    nx, ny = values.shape
    lines = ["density v1", f"{float(x0)!r} {float(x1)!r} {float(y0)!r} {float(y1)!r} {nx} {ny}"]
    lines.extend(" ".join(repr(float(v)) for v in values[:, j]) for j in range(ny))
    path.write_text("\n".join(lines) + "\n")


def read_grid(text, tag, per_node):
    """Parse a density or dispmap file: (domain, array of shape (nx, ny, per_node))."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0].strip() != f"{tag} v1":
        raise ValueError(f"expected a {tag} v1 file")
    head = lines[1].split()
    domain = tuple(float(v) for v in head[:4])
    nx, ny = int(head[4]), int(head[5])
    flat = np.array(" ".join(lines[2:]).split(), dtype=float)
    if flat.size != nx * ny * per_node:
        raise ValueError(f"{tag} file holds {flat.size} values, expected {nx * ny * per_node}")
    return domain, flat.reshape(ny, nx, per_node).transpose(1, 0, 2)
