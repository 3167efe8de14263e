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

Each stage is one array pass over all loops and all walks. The arcs of
all loops are cut from the curve's stacked samples in one index pass.
The boundary walks are laid end to end in one array, built once, each a
closed polyline whose last point is its first, bit for bit; a walk's
edges are the arrays (starts, ends) = (closed[:-1], closed[1:]) of its
slice, read by every area, containment and distance query. The
shoelace terms of all walks are taken in one elementwise pass. Each
positive walk winds only the component probes in its bounding box
(found by searchsorted over the probes sorted by x), in one
winding_numbers call on its own edges. A row of 5 figure-eights (640
samples, 15 walks) builds in about 0.55 ms (2-core x86-64 machine).
Labels take one pass over the edges of all bounded faces, which tests
each face's centroid against its own boundary with the crossing signs
of winding_numbers; only a face whose centroid fails searches inward
offsets, at one winding_numbers call per candidate point.

The half-edges around a vertex need no tangent: the crossing's sign from
check_generic fixes their cyclic order (see _link_next).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ClosedCurve, GenericityReport, check_generic
from .errors import GenericityError, InconsistencyError, ValidationError
from .geometry import crossing_signs, point_segment_distance, walk_moments, winding_numbers

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
    edges: tuple[np.ndarray, np.ndarray]  # (starts, ends) of every boundary edge, walk by walk
    area: float  # net area; negative for the outer face
    is_outer: bool
    centroid: np.ndarray | None  # net area centroid, bounded faces only
    label: int | None = None  # canonical 1..r, bounded faces only
    rep_point: np.ndarray | None = None
    clearance: float | None = None  # boundary_distance(rep_point), bounded faces only

    def contains(self, points) -> np.ndarray:
        """Boolean mask: which query points lie in the open face region."""
        total = winding_numbers(points, *self.edges)
        return total == 0 if self.is_outer else total == 1

    def boundary_distance(self, point) -> float:
        """Distance from a point to the face's boundary edges."""
        return float(np.min(point_segment_distance(point, *self.edges)))


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
    hosts: tuple[int, ...]  # per component: the face it lies in (the outer face at the top)

    @property
    def r(self) -> int:
        return len(self.faces) - 1

    @property
    def bounded_faces(self) -> list[Face]:
        out = [f for f in self.faces if not f.is_outer]
        out.sort(key=lambda f: f.label)
        return out


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
    faces, outer_face, hosts = _assemble_faces(curve, half_edges, cycles, components)

    arr = Arrangement(
        curve=curve,
        vertices=vertices,
        half_edges=half_edges,
        faces=faces,
        outer_face=outer_face,
        passages=passages,
        loop_arcs=loop_arcs,
        components=components,
        hosts=hosts,
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


def face_integrator(arr: Arrangement, grid):
    """Map node values on `grid` to their integrals over each bounded face.

    Midpoint rule on the grid's cells: each cell contributes its center
    value (mean of the four corner nodes) times the cell area iff the
    center lies in the face. Which face each center lies in is read from
    one face raster of the grid (see _face_raster), built once here,
    which keeps each face's cells as the flat indices of their lower
    left nodes. One face sum serves every call: it gathers the face's
    four corner nodes at those indices and offsets (+ny, +1, +ny + 1),
    so it makes no array larger than the face, and adds each cell's
    mean in flat cell order. The grid (x0, x1, y0, y1, nx, ny), whose
    node coordinates are its xs and ys, must cover the curve's bounding
    box so that no bounded face leaks outside it.

    The returned function's `on_window(vals, window, j)` weighs node
    values that are `vals` on the node window (wx, wy) and 0 elsewhere,
    finite and >= 0. It writes them into a node buffer that is zero
    elsewhere and sums face j there, and every other face with a cell
    in reach of the window. It returns face j's integral, bit for bit
    what the full-grid pass gives, and whether any other bounded face's
    integral is > 0.
    """
    x0, x1, y0, y1 = grid.x0, grid.x1, grid.y0, grid.y1
    cx0, cx1, cy0, cy1 = arr.curve.bbox()
    if not (x0 <= cx0 and x1 >= cx1 and y0 <= cy0 and y1 >= cy1):
        raise ValidationError("density grid does not cover the curve bounding box")
    nx, ny = grid.nx, grid.ny
    xs, ys = grid.xs, grid.ys
    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    centers_x = xs[:-1] + 0.5 * hx
    centers_y = ys[:-1] + 0.5 * hy
    # the smallest type that holds 0..r, since on_window keeps it
    labels = _face_raster(arr, centers_x, centers_y).astype(np.min_scalar_type(arr.r), order="C")
    lab = labels.ravel()
    # cell (i, k) is flat cell i * (ny - 1) + k and has lower left node i * ny + k
    corners = [c + c // (ny - 1) for c in (np.flatnonzero(lab == j) for j in range(1, arr.r + 1))]

    def face_sum(flat, j):
        # ((v00 + v10) + v01) + v11, then x 0.25: each cell's mean
        at = corners[j]
        means = flat.take(at)
        means += flat[ny:].take(at)
        means += flat[1:].take(at)
        means += flat[ny + 1:].take(at)
        means *= 0.25
        return float(np.sum(means) * hx * hy)

    def integrate(vals) -> np.ndarray:
        flat = np.ravel(vals)
        return np.array([face_sum(flat, j) for j in range(arr.r)])

    flat_nodes = np.zeros(nx * ny)  # +0.0 between on_window calls
    nodes = flat_nodes.reshape(nx, ny)

    def on_window(vals, window, j):
        wx, wy = window
        nodes[wx, wy] = vals
        mass = face_sum(flat_nodes, j)
        # only the cells with a corner node in the window can be > 0, and
        # a face with no such cell sums to +0.0, so summing every face with
        # a cell there gives the full pass's flags, underflow included
        cx = slice(max(wx.start - 1, 0), min(wx.stop, nx - 1))
        cy = slice(max(wy.start - 1, 0), min(wy.stop, ny - 1))
        near = np.unique(labels[cx, cy])
        leaks = any(face_sum(flat_nodes, k - 1) > 0 for k in near.tolist() if k not in (0, j + 1))
        nodes[wx, wy] = 0.0
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
    x-intercept, so a cumulative sum along each row, taken in place,
    gives the labels. Returns a view of shape (len(centers_x),
    len(centers_y)) into that one buffer, of the narrowest signed
    integer type that the row sums need.

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

    # a row's partial sums are bounded by its crossings times the largest
    # weight, r, so the narrowest type that holds that bound cannot overflow
    most = int(np.bincount(row).max(initial=0))
    kind = np.min_scalar_type(-max(arr.r * most, 1))
    labels = np.zeros((len(centers_y), len(centers_x) + 1), dtype=kind)
    np.add.at(labels, (row, col), np.where(up[seg], -w[seg], w[seg]).astype(kind))
    np.cumsum(labels, axis=1, out=labels)
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


def _build_half_edges(curve, vertices, passages):
    """Forward and backward half-edge per arc; a crossing-free loop is one arc.

    The arc from passage (t0, v0) to the next passage (t1, v1) of its
    loop is the directed polyline from vertex v0's point through the
    samples strictly between the parameters to vertex v1's point. A
    sample within 1e-12 of either end point (a crossing at a sample) is
    dropped. A crossing-free loop's arc runs from its first sample round
    to it again, keeping every sample. The arcs of all loops are cut
    with one index and one row-wise norm pass, each with its own loop's
    size and offset into the curve's stacked points; every polyline and
    its reverse are views of one array.
    """
    loop, t0, start, succ = [], [], [], []
    for i, per in enumerate(passages):
        base = len(loop)
        for t, v in per or [(0.0, None)]:
            loop.append(i)
            t0.append(t)
            start.append(curve.loops[i][0] if v is None else vertices[v].point)
            succ.append(len(succ) + 1)
        succ[-1] = base  # the loop's last arc ends where its first starts
    k = len(loop)
    loop, t0, succ = np.array(loop), np.array(t0), np.array(succ)
    ends = np.array(start)
    free = np.array([not per for per in passages])[loop]
    n = np.diff(curve.offsets)[loop]
    span = (t0[succ] - t0) % n
    span[span == 0.0] = n[span == 0.0]  # single passage or free loop: the whole loop
    first = np.floor(t0).astype(np.int64) + 1
    count = np.ceil(t0 + span - 1e-9).astype(np.int64) - first
    # the samples strictly inside each arc, arc after arc
    inside = np.arange(count.sum()) + np.repeat(first - np.cumsum(count) + count, count)
    mids = curve.points.take(np.repeat(curve.offsets[loop], count) + inside % np.repeat(n, count),
                             axis=0)
    # drop interior samples that coincide with an endpoint (crossing at a sample)
    keep = np.repeat(free, count) | (
        (_row_norms(mids - np.repeat(ends, count, axis=0)) > 1e-12)
        & (_row_norms(mids - np.repeat(ends[succ], count, axis=0)) > 1e-12)
    )
    arc = np.repeat(np.arange(k), count)[keep]
    # output arc j is its start point, its kept samples and its end point,
    # after arcs 0..j-1 and their two end points each, so output row p
    # inside it is kept sample p - 2j - 1; the source rows are the kept
    # samples, then the k start points, then the k end points
    size = np.bincount(arc, minlength=k) + 2
    stop = np.cumsum(size)
    rows = np.arange(stop[-1]) - 2 * np.repeat(np.arange(k), size) - 1
    rows[stop - size] = len(arc) + np.arange(k)
    rows[stop - 1] = len(arc) + k + np.arange(k)
    out = np.concatenate([np.compress(keep, mids, axis=0), ends, ends[succ]]).take(rows, axis=0)
    back = out[::-1].copy()
    total = len(out)
    half_edges: list[HalfEdge] = []
    loop_arcs: list[list[int]] = [[] for _ in passages]
    for j, (i, b) in enumerate(zip(loop.tolist(), stop.tolist())):
        a = b - int(size[j])
        half_edges.append(HalfEdge(2 * j, i, 2 * j + 1, -1, -1, out[a:b]))
        half_edges.append(HalfEdge(2 * j + 1, i, 2 * j, -1, -1, back[total - b : total - a]))
        loop_arcs[i].append(2 * j)
    return half_edges, [tuple(arcs) for arcs in loop_arcs]


def _row_norms(d):
    """Euclidean norm of each row of an (m, 2) array, with the bits of
    np.linalg.norm(d, axis=1): the square root of d0*d0 + d1*d1."""
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


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


def _lay_walks(half_edges, cycles):
    """The boundary walks laid end to end as closed polylines, each
    ending on its first point bit for bit: walk w is
    closed[stops[w - 1]:stops[w]] (from row 0 for w = 0)."""
    pieces, last = [], []
    for c in cycles:
        pieces.append(half_edges[c[0]].points)
        pieces.extend(half_edges[i].points[1:] for i in c[1:])
        last.append(len(pieces) - 1)
    stops = np.cumsum([len(p) for p in pieces])[last].tolist()
    return np.concatenate(pieces), stops


def _assemble_faces(curve, half_edges, cycles, components):
    """Faces from the boundary walks, laid end to end by _lay_walks, the
    outer face's index, and each component's host face. A positive walk
    bounds a face; a negative one, its component's outer boundary, is a
    hole of the least positive walk of another component around the
    component's probe (its first sample; the first walk among equals),
    or part of the outer face. Each positive walk winds only the probes
    in its bounding box, in one winding_numbers call on its own edges. A
    face of one walk keeps that walk's edges as views.
    """
    closed, stops = _lay_walks(half_edges, cycles)
    firsts = [0, *stops[:-1]]
    edges = [(closed[a : b - 1], closed[a + 1 : b]) for a, b in zip(firsts, stops)]
    moments = walk_moments(closed, stops)
    areas = [a for a, _ in moments]
    cycle_comp = [components[half_edges[c[0]].loop] for c in cycles]

    positive = [i for i, a in enumerate(areas) if a > 0]
    negative = [i for i, a in enumerate(areas) if a <= 0]

    host_walk = [None] * (max(components) + 1)  # the positive walk around each component, if any
    if len(host_walk) > 1:
        # a probe outside a walk's box winds 0 in floating point too: above
        # or below it no edge spans the probe's y, and left or right of it
        # the probe lies at least sep_tol from the walk (else check_generic
        # reports a near-miss), so no is_left sign rounds across zero
        probes = curve.points[curve.offsets[np.unique(components, return_index=True)[1]]]
        by_x = np.argsort(probes[:, 0], kind="stable")
        xs, ys = probes[by_x, 0], probes[by_x, 1]
        low = np.minimum.reduceat(closed, firsts)[positive]
        high = np.maximum.reduceat(closed, firsts)[positive]
        left = np.searchsorted(xs, low[:, 0], side="left").tolist()
        right = np.searchsorted(xs, high[:, 0], side="right").tolist()
        for j, a, b, (_, y0), (_, y1) in zip(positive, left, right, low.tolist(), high.tolist()):
            near = by_x[a:b][(ys[a:b] >= y0) & (ys[a:b] <= y1) & (by_x[a:b] != cycle_comp[j])]
            if len(near):
                for c in near[winding_numbers(probes[near], *edges[j]) != 0].tolist():
                    if host_walk[c] is None or abs(areas[j]) < abs(areas[host_walk[c]]):
                        host_walk[c] = j

    face_of_cycle = {}
    holes: dict[int, list[int]] = {i: [] for i in positive}
    outer_cycles = []
    for i in negative:
        j = host_walk[cycle_comp[i]]
        (outer_cycles if j is None else holes[j]).append(i)

    def face(members, **fields):
        if len(members) == 1:
            return Face(index=len(faces), edges=edges[members[0]], **fields)
        starts = np.vstack([edges[m][0] for m in members])
        ends = np.vstack([edges[m][1] for m in members])
        return Face(index=len(faces), edges=(starts, ends), **fields)

    faces: list[Face] = []
    for j in positive:
        members = [j] + sorted(holes[j])
        area = float(sum(areas[m] for m in members))
        if area <= 0:
            raise InconsistencyError("bounded face with non-positive net area")
        weighted = np.zeros(2)
        for m in members:
            weighted += areas[m] * moments[m][1]
        faces.append(face(members, area=area, is_outer=False, centroid=weighted / area))
        for m in members:
            face_of_cycle[m] = faces[-1].index
    outer_cycles.sort()
    outer = face(outer_cycles, area=float(sum(areas[m] for m in outer_cycles)),
                 is_outer=True, centroid=None)
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
    hosts = tuple(outer.index if j is None else face_of_cycle[j] for j in host_walk)
    return faces, outer.index, hosts


def _check_euler(arr: Arrangement) -> None:
    free_loops = sum(1 for per in arr.passages if not per)
    v = len(arr.vertices) + free_loops  # a free loop counts as one vertex + one self-loop
    e = len(arr.half_edges) // 2
    f = len(arr.faces)
    c = len(set(arr.components))
    if v - e + f != 1 + c:
        raise InconsistencyError(f"Euler check failed: V={v} E={e} F={f} C={c}")


def _assign_labels(arr: Arrangement) -> None:
    """Give each bounded face its label point, then labels 1..r by point.

    A face's label point is its net area centroid when that lies inside
    the face more than 1e-6*sqrt(area) from its boundary. One pass tests
    every bounded face's centroid against its own boundary edges, with
    the crossing signs of winding_numbers and the distances of
    point_segment_distance; a face whose centroid fails falls back to
    _offset_point. Each face keeps its point's distance to the boundary
    as its clearance.
    """
    bounded = [f for f in arr.faces if not f.is_outer]
    sizes = np.array([len(f.edges[0]) for f in bounded])
    first = np.cumsum(sizes) - sizes
    starts = np.vstack([f.edges[0] for f in bounded])
    ends = np.vstack([f.edges[1] for f in bounded])
    at = np.repeat(np.array([f.centroid for f in bounded]), sizes, axis=0)
    up, down = crossing_signs(at[:, 0], at[:, 1], starts[:, 0], starts[:, 1],
                              ends[:, 0], ends[:, 1])
    winding = np.add.reduceat(up.astype(np.int64) - down, first)
    clearance = np.minimum.reduceat(point_segment_distance(at, starts, ends), first)
    scale = np.sqrt([f.area for f in bounded])
    inside = (winding == 1) & (clearance > 1e-6 * scale)
    for face, ok, gap in zip(bounded, inside.tolist(), clearance.tolist()):
        face.rep_point, face.clearance = (face.centroid, gap) if ok else _offset_point(face)
    bounded.sort(key=lambda f: (f.rep_point[0], f.rep_point[1]))
    for label, face in enumerate(bounded, start=1):
        face.label = label


def _offset_point(face: Face) -> tuple[np.ndarray, float]:
    """A deterministic interior point of a face whose centroid is not one,
    with its distance to the face's boundary.

    The centroid can land outside a crescent shaped or holed face, or on
    its boundary; an inward offset of a boundary edge midpoint is searched
    instead. A face with no point 0.002*sqrt(area) clear of its boundary
    raises ValidationError.
    """
    scale = float(np.sqrt(face.area))
    for frac in (0.2, 0.08, 0.02, 0.005):
        delta = frac * scale
        for a, b in zip(*face.edges):
            d = b - a
            norm = np.linalg.norm(d)
            if norm == 0:
                continue
            # face lies left of the directed boundary
            inward = np.array([-d[1], d[0]]) / norm
            p = 0.5 * (a + b) + delta * inward
            gap = face.boundary_distance(p) if face.contains(p)[0] else 0.0
            if gap > 0.4 * delta:
                return p, gap
    raise ValidationError(f"face {face.index} (area {face.area:.6g}) is narrower than the label search "
                          f"reaches: no point lies 0.002*sqrt(area) = {0.4 * delta:.3g} inside it")

