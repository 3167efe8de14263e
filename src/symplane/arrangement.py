"""Planar arrangement induced by a generic closed curve.

The image of a certified-generic curve cuts the plane into faces: the
double points become degree-4 vertices, the strands between them become
edges, and faces are read off a half-edge structure whose next-pointer
walks keep the face on the left. Bounded faces get canonical labels
1..r, ordered by their interior representative points (lexicographic by
x, then y).

Face boundaries may have several components: a face can enclose another
part of the curve, whose outer walk then appears as a hole. Areas are
net (holes subtracted), via the shoelace formula per boundary cycle.

The half-edges around a vertex need no tangent: the crossing's sign from
check_generic fixes their cyclic order (see _link_next).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, GenericityReport, check_generic
from .errors import GenericityError, InconsistencyError, ValidationError
from .geometry import point_segment_distance, polygon_moments, winding_numbers

SVG_WIDTH = 640  # pixels; the height follows the curve's aspect ratio


@dataclass(frozen=True)
class Vertex:
    index: int
    point: np.ndarray
    branches: tuple[tuple[int, float], tuple[int, float]]  # (loop, parameter) per strand
    sign: int  # +1 or -1: orientation of the strand tangents, as in DoublePoint


@dataclass
class HalfEdge:
    index: int
    loop: int
    twin: int
    next: int
    face: int
    points: np.ndarray  # directed polyline including both endpoints


@dataclass
class Face:
    index: int
    polygons: tuple[np.ndarray, ...]  # closed boundary polylines, one per walk
    area: float  # net area; negative for the outer face
    is_outer: bool
    centroid: np.ndarray | None  # net area centroid, bounded faces only
    label: int | None = None  # canonical 1..r, bounded faces only
    rep_point: np.ndarray | None = None


@dataclass
class Arrangement:
    curve: ClosedCurve
    vertices: tuple[Vertex, ...]
    half_edges: list[HalfEdge]
    faces: list[Face]
    outer_face: int
    passages: tuple[tuple[tuple[float, int], ...], ...]  # per loop: (t, vertex index)
    loop_arcs: tuple[tuple[int, ...], ...]  # per loop: forward half-edge per arc
    components: tuple[int, ...]  # component id per loop

    @property
    def r(self) -> int:
        return len(self.faces) - 1

    @property
    def bounded_faces(self) -> list[Face]:
        out = [f for f in self.faces if not f.is_outer]
        out.sort(key=lambda f: f.label)
        return out

    def face_contains(self, face: Face, points) -> np.ndarray:
        """Boolean mask: which query points lie in the open face region."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        total = np.zeros(len(pts), dtype=np.int64)
        for poly in face.polygons:
            total += winding_numbers(pts, poly)
        return total == 1 if not face.is_outer else total == 0

    def boundary_distance(self, face: Face, point) -> float:
        """Distance from a point to the face's boundary polylines."""
        a = np.vstack(face.polygons)
        b = np.vstack([np.roll(poly, -1, axis=0) for poly in face.polygons])
        return float(np.min(point_segment_distance(point, a, b)))


def build_arrangement(curve: ClosedCurve, report: GenericityReport | None = None) -> Arrangement:
    """Build the face arrangement of a certified-generic curve.

    A report from check_generic may be passed to avoid recomputing it;
    non-generic input raises GenericityError. The construction is checked
    internally: the Euler count V - E + F = 1 + C must hold exactly and
    the bounded-face areas must sum to the area enclosed by the outer
    walks, else InconsistencyError.
    """
    if report is None:
        report = check_generic(curve)
    if not report.is_generic:
        kinds = sorted({v.kind for v in report.violations})
        raise GenericityError(
            f"curve is not generic at the sample scale (violations: {', '.join(kinds)}); "
            "see check_generic"
        )

    vertices = tuple(
        Vertex(i, dp.point, (dp.first, dp.second), dp.sign)
        for i, dp in enumerate(report.double_points)
    )

    per_loop: list[list[tuple[float, int]]] = [[] for _ in curve.loops]
    for v in vertices:
        for loop, t in v.branches:
            per_loop[loop].append((t, v.index))
    passages = tuple(tuple(sorted(per)) for per in per_loop)

    half_edges, loop_arcs = _build_half_edges(curve, vertices, passages)
    _link_next(vertices, half_edges, passages, loop_arcs)
    cycles = _extract_cycles(half_edges)
    components = _loop_components(len(curve.loops), vertices)
    faces, outer_face = _assemble_faces(curve, half_edges, cycles, components)

    arr = Arrangement(
        curve=curve,
        vertices=vertices,
        half_edges=half_edges,
        faces=faces,
        outer_face=outer_face,
        passages=passages,
        loop_arcs=loop_arcs,
        components=components,
    )
    _check_euler(arr)
    _assign_labels(arr)
    return arr


def face_areas(arr: Arrangement) -> np.ndarray:
    """Areas of the bounded faces: entry j - 1 is face j's.

    Each is positive: the arrangement's build rejects a bounded face
    whose net area is not.
    """
    return np.array([f.area for f in arr.bounded_faces])


def integrate_density_over_faces(arr: Arrangement, density) -> np.ndarray:
    """Integral of a grid density over each bounded face, by label order."""
    return face_integrator(arr, density)(density.values)


def _cell_means(vals):
    """Mean of the four corner nodes of each cell; vals has shape (nx, ny), x first."""
    return 0.25 * (vals[:-1, :-1] + vals[1:, :-1] + vals[:-1, 1:] + vals[1:, 1:])


def face_integrator(arr: Arrangement, grid):
    """Map node values on `grid` to their integrals over each bounded face.

    Midpoint rule on the grid's cells: each cell contributes its center
    value (mean of the four corner nodes) times the cell area iff the
    center lies in the face. Which face each center lies in is read from
    one face raster of the grid (see _face_raster), built once here. The
    grid (x0, x1, y0, y1, nx, ny) must cover the curve's bounding box so
    that no bounded face leaks outside it.

    The returned function's `on_window(vals, window, j)` weighs node
    values that are `vals` on the node window (wx, wy) and 0 elsewhere,
    finite and >= 0, at the cost of the window and face j's cells. It
    returns face j's integral, bit for bit what the full-grid pass gives,
    and whether any other bounded face's integral is > 0.
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
    labels = _face_raster(arr, centers_x, centers_y).astype(np.min_scalar_type(arr.r))
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


def _face_raster(arr: Arrangement, centers_x, centers_y) -> np.ndarray:
    """Face label of every grid cell center, 0 for the outer face.

    One scanline pass: walking a cell row left to right, the label
    changes by label(left side) - label(right side) of every curve
    segment crossed, taking sides along the segment's direction. Every
    forward half-edge segment is used once; the cell rows it crosses
    follow the half-open rule lo <= y < hi of winding_numbers, and its
    change is entered at the first cell center right of its
    x-intercept, so a cumulative sum along each row gives the labels.
    Returns an int array of shape (len(centers_x), len(centers_y)).

    Internal check: the outer face is unbounded, so every row must end
    at label 0 and every label must lie in [0, r]; else
    InconsistencyError.
    """
    label_of = np.array([f.label or 0 for f in arr.faces], dtype=np.int64)
    starts, ends, weights = [], [], []
    for arcs in arr.loop_arcs:
        for idx in arcs:
            he = arr.half_edges[idx]
            twin = arr.half_edges[he.twin]
            starts.append(he.points[:-1])
            ends.append(he.points[1:])
            weights.append(
                np.full(len(he.points) - 1, label_of[he.face] - label_of[twin.face])
            )
    a = np.vstack(starts)
    b = np.vstack(ends)
    w = np.concatenate(weights)
    up = b[:, 1] > a[:, 1]
    lo = np.where(up, a[:, 1], b[:, 1])
    hi = np.where(up, b[:, 1], a[:, 1])
    first = np.searchsorted(centers_y, lo, side="left")
    count = np.searchsorted(centers_y, hi, side="left") - first
    seg = np.repeat(np.arange(len(a)), count)
    row = first[seg] + (np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count))
    ay, by = a[seg, 1], b[seg, 1]
    ax, bx = a[seg, 0], b[seg, 0]
    x = ax + (centers_y[row] - ay) * (bx - ax) / (by - ay)
    col = np.searchsorted(centers_x, x, side="right")

    delta = np.zeros((len(centers_y), len(centers_x) + 1), dtype=np.int64)
    np.add.at(delta, (row, col), np.where(up[seg], -w[seg], w[seg]))
    labels = np.cumsum(delta, axis=1)
    if np.any(labels[:, -1] != 0) or labels.min() < 0 or labels.max() > arr.r:
        raise InconsistencyError(
            "face raster is not a partition: a cell row does not return to the "
            "outer face or a label falls outside [0, r]"
        )
    return labels[:, :-1].T


def render_svg(arr: Arrangement) -> str:
    """Draw the arrangement as a standalone SVG 1.1 document.

    Deterministic: equal arrangements yield byte-equal output. Curve
    loops are drawn as closed paths, double points as filled markers,
    bounded faces as labels at their representative points.
    """
    x0, x1, y0, y1 = arr.curve.bbox()
    pad = 0.08 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    width = SVG_WIDTH
    scale = width / (x1 - x0)
    height = int(round((y1 - y0) * scale))

    def sx(x):
        return (x - x0) * scale

    def sy(y):
        return (y1 - y) * scale  # svg y axis points down

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for pts in arr.curve.loops:
        coords = " L ".join(f"{sx(x):.3f} {sy(y):.3f}" for x, y in pts)
        lines.append(
            f'<path d="M {coords} Z" fill="none" stroke="black" stroke-width="1.5"/>'
        )
    for face in arr.bounded_faces:
        px, py = face.rep_point
        lines.append(
            f'<text x="{sx(px):.3f}" y="{sy(py):.3f}" font-size="16" '
            f'text-anchor="middle" fill="#1a6faf">{face.label}</text>'
        )
    for v in arr.vertices:
        lines.append(
            f'<circle cx="{sx(v.point[0]):.3f}" cy="{sy(v.point[1]):.3f}" r="3" fill="#c02020"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# construction internals


def _arc_points(curve, loop, t0, t1, p_start, p_end):
    """Directed polyline for the arc from parameter t0 to t1 (cyclic)."""
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


def _build_half_edges(curve, vertices, passages):
    """Forward and backward half-edge per arc; a crossing-free loop is one arc."""
    half_edges: list[HalfEdge] = []
    loop_arcs: list[tuple[int, ...]] = []
    for loop, per in enumerate(passages):
        if per:
            polys = [
                _arc_points(curve, loop, t0, t1, vertices[v0].point, vertices[v1].point)
                for (t0, v0), (t1, v1) in zip(per, per[1:] + per[:1])
            ]
        else:
            pts = curve.loops[loop]
            polys = [np.vstack([pts, pts[:1]])]
        arcs = []
        for poly in polys:
            i = len(half_edges)
            half_edges.append(HalfEdge(i, loop, i + 1, -1, -1, poly))
            half_edges.append(HalfEdge(i + 1, loop, i, -1, -1, poly[::-1].copy()))
            arcs.append(i)
        loop_arcs.append(tuple(arcs))
    return half_edges, loop_arcs


def _link_next(vertices, half_edges, passages, loop_arcs):
    """Wire next-pointers so each face walk keeps its region on the left.

    With u and w the tangents of strands 0 and 1, the half-edges leaving
    a vertex run counterclockwise as +u, +w, -u, -w when the crossing's
    sign is +1, and as +u, -w, -u, +w when it is -1. The walk arriving
    at a vertex turns as sharply left as possible: it leaves along the
    half-edge one step clockwise from its own twin.
    """
    rings = [[-1] * 4 for _ in vertices]  # +u, +w, -u, -w
    for loop, per in enumerate(passages):
        arcs = loop_arcs[loop]
        if not per:
            for idx in (arcs[0], arcs[0] + 1):
                half_edges[idx].next = idx  # crossing-free loop: the walk is the loop itself
        for k, (t, vid) in enumerate(per):
            strand = vertices[vid].branches.index((loop, t))
            rings[vid][strand] = arcs[k]
            rings[vid][strand + 2] = half_edges[arcs[k - 1]].twin
    for v, ring in zip(vertices, rings):
        if v.sign < 0:
            ring = [ring[0], ring[3], ring[2], ring[1]]
        for k, out in enumerate(ring):
            half_edges[half_edges[out].twin].next = ring[k - 1]


def _extract_cycles(half_edges):
    seen = [False] * len(half_edges)
    cycles = []
    for start in range(len(half_edges)):
        if seen[start]:
            continue
        walk = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            walk.append(cur)
            cur = half_edges[cur].next
        if cur != start:
            raise InconsistencyError("face walk did not close on its start edge")
        cycles.append(tuple(walk))
    return cycles


def _cycle_polygon(half_edges, cycle):
    parts = [half_edges[cycle[0]].points]
    for idx in cycle[1:]:
        parts.append(half_edges[idx].points[1:])
    poly = np.vstack(parts)
    return poly[:-1]  # drop the repeated closing point


def _loop_components(num_loops, vertices):
    parent = list(range(num_loops))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in vertices:
        (a, _), (b, _) = v.branches
        parent[find(a)] = find(b)
    roots = {}
    comp = []
    for loop in range(num_loops):
        root = find(loop)
        if root not in roots:
            roots[root] = len(roots)
        comp.append(roots[root])
    return tuple(comp)


def _assemble_faces(curve, half_edges, cycles, components):
    polys = [_cycle_polygon(half_edges, c) for c in cycles]
    moments = [polygon_moments(p) for p in polys]
    areas = [a for a, _ in moments]
    cycle_comp = [components[half_edges[c[0]].loop] for c in cycles]

    positive = [i for i, a in enumerate(areas) if a > 0]
    negative = [i for i, a in enumerate(areas) if a <= 0]

    # a negative walk is the outer boundary of its component; it becomes a
    # hole of the smallest positive walk (of another component) containing
    # that component, or part of the outer face if nothing contains it
    comp_probe = {}
    for loop in range(len(curve.loops)):
        comp_probe.setdefault(components[loop], curve.loops[loop][0])

    face_of_cycle = {}
    holes: dict[int, list[int]] = {i: [] for i in positive}
    outer_cycles = []
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
        else:
            holes[best].append(i)

    faces: list[Face] = []
    for j in positive:
        members = [j] + sorted(holes[j])
        area = float(sum(areas[m] for m in members))
        if area <= 0:
            raise InconsistencyError("bounded face with non-positive net area")
        weighted = np.zeros(2)
        for m in members:
            weighted += areas[m] * moments[m][1]
        faces.append(
            Face(
                index=len(faces),
                polygons=tuple(polys[m] for m in members),
                area=area,
                is_outer=False,
                centroid=weighted / area,
            )
        )
        for m in members:
            face_of_cycle[m] = faces[-1].index
    outer = Face(
        index=len(faces),
        polygons=tuple(polys[m] for m in sorted(outer_cycles)),
        area=float(sum(areas[m] for m in sorted(outer_cycles))),
        is_outer=True,
        centroid=None,
    )
    faces.append(outer)
    for m in outer_cycles:
        face_of_cycle[m] = outer.index

    for ci, cyc in enumerate(cycles):
        for he_idx in cyc:
            half_edges[he_idx].face = face_of_cycle[ci]

    total_bounded = sum(f.area for f in faces if not f.is_outer)
    if abs(total_bounded + outer.area) > 1e-9 * max(total_bounded, 1e-12):
        raise InconsistencyError(
            f"face areas {total_bounded:.12g} disagree with outer walk {-outer.area:.12g}"
        )
    return faces, outer.index


def _check_euler(arr: Arrangement) -> None:
    free_loops = sum(1 for per in arr.passages if not per)
    v = len(arr.vertices) + free_loops  # a free loop counts as one vertex + one self-loop
    e = len(arr.half_edges) // 2
    f = len(arr.faces)
    c = len(set(arr.components))
    if v - e + f != 1 + c:
        raise InconsistencyError(f"Euler check failed: V={v} E={e} F={f} C={c}")


def _assign_labels(arr: Arrangement) -> None:
    bounded = [f for f in arr.faces if not f.is_outer]
    for face in bounded:
        face.rep_point = _representative_point(arr, face)
    bounded.sort(key=lambda f: (f.rep_point[0], f.rep_point[1]))
    for label, face in enumerate(bounded, start=1):
        face.label = label


def _representative_point(arr: Arrangement, face: Face) -> np.ndarray:
    """A deterministic interior point of the face.

    First choice is the net area centroid over the boundary walks; if
    that lands outside (possible for crescent shaped or holed faces), an
    inward offset of a boundary edge midpoint is searched.
    """
    centroid = face.centroid
    scale = float(np.sqrt(face.area))
    if arr.face_contains(face, centroid)[0] and arr.boundary_distance(face, centroid) > 1e-6 * scale:
        return centroid
    for frac in (0.2, 0.08, 0.02, 0.005):
        delta = frac * scale
        for poly in face.polygons:
            for i in range(len(poly)):
                a, b = poly[i], poly[(i + 1) % len(poly)]
                d = b - a
                norm = np.linalg.norm(d)
                if norm == 0:
                    continue
                # face lies left of the directed boundary
                inward = np.array([-d[1], d[0]]) / norm
                p = 0.5 * (a + b) + delta * inward
                if arr.face_contains(face, p)[0] and arr.boundary_distance(face, p) > 0.4 * delta:
                    return p
    raise InconsistencyError(f"no interior representative point found for face {face.index}")

