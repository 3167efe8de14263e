"""Planar geometry primitives shared by the curve and arrangement layers.

Point sets are numpy arrays of shape (n, 2). Polygon functions treat the
vertex list as closed: the edge from the last vertex back to the first is
implied and must not be repeated in the input.
"""

from __future__ import annotations

import numpy as np

EPSILON = 1e-12


def cross2(u, v):
    """z component of the cross product of 2-vectors; broadcasts."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def signed_area(points) -> float:
    """Shoelace area of a closed polygon, positive for counterclockwise."""
    p = np.asarray(points, dtype=float)
    if len(p) < 3:
        return 0.0
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def segment_intersection(p0, p1, q0, q1, eps: float = EPSILON):
    """Intersect segments [p0, p1] and [q0, q1] in closed form.

    Returns (t, u, point) with point == p0 + t*(p1 - p0) and both
    parameters in [0, 1], or None when the segments are parallel or miss
    each other. Parameters within eps outside [0, 1] are clamped in.
    """
    p0 = np.asarray(p0, dtype=float)
    r = np.asarray(p1, dtype=float) - p0
    q0 = np.asarray(q0, dtype=float)
    s = np.asarray(q1, dtype=float) - q0
    denom = cross2(r, s)
    scale = max(np.abs(r).max(), np.abs(s).max(), eps)
    if abs(denom) <= eps * scale * scale:
        return None
    d = q0 - p0
    t = cross2(d, s) / denom
    u = cross2(d, r) / denom
    if t < -eps or t > 1.0 + eps or u < -eps or u > 1.0 + eps:
        return None
    t = min(max(t, 0.0), 1.0)
    u = min(max(u, 0.0), 1.0)
    return t, u, p0 + t * r


def point_segment_distance(points, a, b):
    """Distance from each query point to the segment [a, b]; vectorized."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = float(d @ d)
    if dd < EPSILON * EPSILON:
        return np.linalg.norm(p - a, axis=-1)
    t = np.clip(((p - a) @ d) / dd, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.linalg.norm(p - proj, axis=-1)


def segment_pair_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between two segments known not to intersect."""
    return float(
        min(
            point_segment_distance(p0, q0, q1)[0],
            point_segment_distance(p1, q0, q1)[0],
            point_segment_distance(q0, p0, p1)[0],
            point_segment_distance(q1, p0, p1)[0],
        )
    )


def winding_numbers(points, loop) -> np.ndarray:
    """Winding number of a closed polyline around each query point.

    Uses the signed crossing rule: an upward edge strictly left of the
    point adds one turn, a downward edge subtracts one. Points on the
    polyline itself get an arbitrary neighboring value; callers keep
    query points off the boundary. Points and edges are broadcast
    against each other in chunks of about a million pairs.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(loop, dtype=float)
    ax, ay = v[:, 0], v[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    wn = np.empty(len(p), dtype=np.int64)
    chunk = max(1, 1_000_000 // len(v))
    for s in range(0, len(p), chunk):
        px = p[s : s + chunk, 0, None]
        py = p[s : s + chunk, 1, None]
        # is_left > 0: query point lies left of the directed edge a -> b
        is_left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        up = (ay <= py) & (by > py) & (is_left > 0)
        down = (ay > py) & (by <= py) & (is_left < 0)
        wn[s : s + chunk] = np.count_nonzero(up, axis=1) - np.count_nonzero(down, axis=1)
    return wn
