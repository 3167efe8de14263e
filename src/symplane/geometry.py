"""Planar geometry primitives shared by the curve and arrangement layers.

Point sets are numpy arrays of shape (n, 2). A closed polyline's last
point repeats its first; winding_numbers takes the edges of one or many
as arrays (starts, ends) = (closed[:-1], closed[1:]), and walk_moments
takes many closed polylines laid end to end.
"""

from __future__ import annotations

import numpy as np

EPSILON = 1e-12
# pairs broadcast at a time, by the genericity broad phase, winding_numbers
# and the label search, and values per column block that forms._distinct_rows
# reads: few enough that the temporaries stay in cache. Against 1M-pair chunks
# (2-core x86-64, in process, interleaved), check_generic of the 16384-sample
# serpentine_curve() takes 23-24 ms, not 44-48 ms, and peaks at 4.8 MB, not
# 37.6 MB, under tracemalloc; a 16384-sample trefoil stays at 3.5-3.7 ms, and
# a face query over 63^2 cell centers runs 1.7x faster
PAIR_CHUNK = 1 << 16


def cross2(u, v):
    """z component of the cross product of 2-vectors; broadcasts."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def norms(d):
    """Euclidean norm of each row of an (m, 2) array, with the bits of
    np.linalg.norm on that row alone: the square root of its dot product
    with itself, taken as stacked 1x2 @ 2x1 products."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def walk_moments(closed, stops):
    """Shoelace (signed area, area centroid) of closed polylines laid end
    to end: polyline w is closed[stops[w - 1]:stops[w]] (from row 0 for
    w = 0), its last point repeating its first.

    The shoelace terms of all edges are taken in one elementwise pass
    (the terms between two polylines are never read). Each polyline's
    sums are np.sum over its own slice of the terms, with the bits of
    summing that polyline alone; np.add.reduceat would add in another
    order. The area is positive for counterclockwise polylines; one of
    zero area gets the mean of its vertices as centroid.
    """
    x, y = closed[:-1, 0], closed[:-1, 1]
    xn, yn = closed[1:, 0], closed[1:, 1]
    w = x * yn - xn * y
    terms = np.array([w, (x + xn) * w, (y + yn) * w])
    out = []
    for a, b in zip([0, *stops[:-1]], stops):
        sums = np.sum(terms[:, a : b - 1], axis=1)
        area = 0.5 * float(sums[0])
        if area == 0:
            out.append((area, closed[a : b - 1].mean(axis=0)))
        else:
            out.append((area, sums[1:] / (6.0 * area)))
    return out


def segment_intersections(p0, p1, q0, q1):
    """Intersect segments [p0[k], p1[k]] and [q0[k], q1[k]], row by row.

    Takes (m, 2) arrays and returns (hit, t, u, point) for the m pairs:
    `hit` is a boolean mask, and t, u and point (with point == p0 + t*(p1
    - p0)) hold the rows where it is set, both parameters in [0, 1]. A
    pair misses when its segments are parallel or do not meet;
    parameters within EPSILON outside [0, 1] are clamped in. Parameters
    are computed on the non-parallel rows only.
    """
    r = p1 - p0
    s = q1 - q0
    denom = cross2(r, s)
    scale = np.maximum(np.maximum(np.abs(r).max(axis=1), np.abs(s).max(axis=1)), EPSILON)
    hit = np.abs(denom) > EPSILON * scale * scale
    rows = np.flatnonzero(hit)
    d = q0.take(rows, axis=0) - p0.take(rows, axis=0)
    t = cross2(d, s.take(rows, axis=0)) / denom[rows]
    u = cross2(d, r.take(rows, axis=0)) / denom[rows]
    inside = (t >= -EPSILON) & (t <= 1.0 + EPSILON) & (u >= -EPSILON) & (u <= 1.0 + EPSILON)
    hit[rows[~inside]] = False
    rows, t, u = rows[inside], t[inside], u[inside]
    # clamp as min(max(t, 0.0), 1.0) does: -0.0 stays -0.0
    t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
    u = np.where(u < 0.0, 0.0, np.where(u > 1.0, 1.0, u))
    return hit, t, u, p0.take(rows, axis=0) + t[:, None] * r.take(rows, axis=0)


def point_segment_distance(points, a, b):
    """Distance from points to segments [a, b]; (..., 2) arrays, broadcast.

    A zero-length segment measures to its endpoint.
    """
    p = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
    point_like = dd < EPSILON * EPSILON
    dots = ((p - a)[..., None, :] @ d[..., :, None])[..., 0, 0]
    t = np.where(point_like, 0.0, np.clip(dots / np.where(point_like, 1.0, dd), 0.0, 1.0))
    return np.linalg.norm(p - (a + t[..., None] * d), axis=-1)


def segment_pair_distances(p0, p1, q0, q1) -> np.ndarray:
    """Minimum distance between segments [p0[k], p1[k]] and [q0[k], q1[k]]
    known not to intersect, row by row, from (m, 2) arrays: the least of
    the four endpoint-to-segment distances."""
    ends = np.stack([p0, p1, q0, q1], axis=1)
    return point_segment_distance(ends, ends[:, [2, 2, 0, 0]], ends[:, [3, 3, 1, 1]]).min(axis=1)


def crossing_signs(px, py, ax, ay, bx, by):
    """Upward and downward edge crossings of the signed rule, elementwise.

    The rule of Hormann-Agathos 2001: an edge a -> b counts upward when
    it spans the query point's y (ay <= py < by) with the point strictly
    on its left, and downward when it spans it the other way (by <= py <
    ay) with the point strictly on its right. Coordinates broadcast;
    returns the two boolean masks.
    """
    # is_left > 0: query point lies left of the directed edge a -> b
    is_left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
    up = (ay <= py) & (by > py) & (is_left > 0)
    down = (ay > py) & (by <= py) & (is_left < 0)
    return up, down


def winding_numbers(points, starts, ends) -> np.ndarray:
    """Winding number of closed polylines around each query point.

    The edges are the arrays (starts, ends) = (closed[:-1], closed[1:]);
    stacking several polylines' edges sums their winding numbers. Uses
    the signed crossing rule of crossing_signs: an upward edge strictly
    left of the point adds one turn, a downward edge subtracts one.
    Points on a polyline itself get an arbitrary neighboring value;
    callers keep query points off the boundary. Points and edges are
    broadcast against each other in chunks of about PAIR_CHUNK pairs.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    ax, ay = starts[:, 0], starts[:, 1]
    bx, by = ends[:, 0], ends[:, 1]
    wn = np.empty(len(p), dtype=np.int64)
    chunk = max(1, PAIR_CHUNK // len(starts))
    for s in range(0, len(p), chunk):
        px = p[s : s + chunk, 0, None]
        py = p[s : s + chunk, 1, None]
        up, down = crossing_signs(px, py, ax, ay, bx, by)
        wn[s : s + chunk] = (up.astype(np.int64) - down).sum(axis=1)
    return wn
