"""Planar geometry primitives shared by the curve and arrangement layers.

Point sets are numpy arrays of shape (n, 2). Polygon functions take a
closed polyline's edges as arrays (starts, ends) = (closed[:-1],
closed[1:]), with the last point of `closed` repeating the first.
"""

from __future__ import annotations

import numpy as np

EPSILON = 1e-12


def cross2(u, v):
    """z component of the cross product of 2-vectors; broadcasts."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def polygon_moments(starts, ends):
    """Shoelace (signed area, area centroid) of a closed polygon's edges.

    The area is positive for counterclockwise polygons; a polygon of zero
    area gets the mean of its vertices as centroid.
    """
    x, y = starts[:, 0], starts[:, 1]
    xn, yn = ends[:, 0], ends[:, 1]
    w = x * yn - xn * y
    area = 0.5 * float(np.sum(w))
    if area == 0:
        return area, starts.mean(axis=0)
    return area, np.array([np.sum((x + xn) * w), np.sum((y + yn) * w)]) / (6.0 * area)


def segment_intersection(p0, p1, q0, q1):
    """Intersect segments [p0, p1] and [q0, q1] in closed form.

    Returns (t, u, point) with point == p0 + t*(p1 - p0) and both
    parameters in [0, 1], or None when the segments are parallel or miss
    each other. Parameters within EPSILON outside [0, 1] are clamped in.
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


def segment_pair_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between two segments known not to intersect."""
    ends = np.array([p0, p1, q0, q1], dtype=float)
    return float(np.min(point_segment_distance(ends, ends[[2, 2, 0, 0]], ends[[3, 3, 1, 1]])))


def winding_numbers(points, starts, ends) -> np.ndarray:
    """Winding number of closed polylines around each query point.

    The edges are the arrays (starts, ends) = (closed[:-1], closed[1:]);
    stacking several polylines' edges sums their winding numbers. Uses
    the signed crossing rule (Hormann-Agathos 2001): an upward edge
    strictly left of the point adds one turn, a downward edge subtracts
    one. Points on a polyline itself get an arbitrary neighboring value;
    callers keep query points off the boundary. Points and edges are
    broadcast against each other in chunks of about a million pairs.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    ax, ay = starts[:, 0], starts[:, 1]
    bx, by = ends[:, 0], ends[:, 1]
    wn = np.empty(len(p), dtype=np.int64)
    chunk = max(1, 1_000_000 // len(starts))
    for s in range(0, len(p), chunk):
        px = p[s : s + chunk, 0, None]
        py = p[s : s + chunk, 1, None]
        # is_left > 0: query point lies left of the directed edge a -> b
        is_left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        up = (ay <= py) & (by > py) & (is_left > 0)
        down = (ay > py) & (by <= py) & (is_left < 0)
        wn[s : s + chunk] = np.count_nonzero(up, axis=1) - np.count_nonzero(down, axis=1)
    return wn
