"""Closed plane curves as sampled polyline loops, with genericity checking.

A curve is one or more closed loops, each a uniformly-or-otherwise sampled
polyline of at least MIN_LOOP_SAMPLES points. Positions along a loop are
measured by a cyclic parameter t in [0, n): the integer part names a
segment, the fraction the position along it.

Genericity here is a certification at the sample scale, not a statement
about an underlying smooth curve: check_generic certifies that all
self-intersections of the polyline are isolated transverse double points,
that no third strand passes within the separation tolerance, and that no
sample turns sharply enough to look like a cusp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import itemgetter, methodcaller
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError, require_positive
from .geometry import PAIR_CHUNK, cross2, segment_intersections, segment_pair_distances

MIN_LOOP_SAMPLES = 8
# largest coordinate magnitude: face centroid moments are cubic in the
# coordinates, so each term stays below about 1e301 and a sum of them over
# up to 1e7 samples below the float maximum (about 1.8e308)
MAX_COORD = 1e100
# smallest loop extent (the longer side of its bounding box): the segment
# tests of geometry and arrangement._build_half_edges use absolute 1e-12 floors,
# and the trefoil loses its crossings below an extent near 5e-12 at any
# sample count; this keeps a margin of 1000
MIN_EXTENT = 1e-9
DEFAULT_ANGLE_TOL = 0.1
SEP_TOL_FACTOR = 1e-6
# samplewise turning angle at or above which a sample is a cusp proxy
MAX_TURN = np.pi / 2


@dataclass(frozen=True, eq=False)
class ClosedCurve:
    """One or more closed polyline loops, each an (n, 2) float array.

    The loops are copied once into `points`, one read-only (N, 2) array
    with loop k at rows offsets[k]:offsets[k + 1], and `loops` are
    read-only views of it, so no caller's array aliases a validated
    curve. succ[i] is the next sample of sample i's loop.
    """

    loops: tuple[np.ndarray, ...]
    points: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    succ: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.loops:
            raise ValidationError("curve needs at least one loop")
        arrays = [np.asarray(pts, dtype=float) for pts in self.loops]
        for k, pts in enumerate(arrays):
            if pts.shape[1:] != (2,) or not pts.size:
                if k:
                    _stacked(arrays[:k])  # an earlier loop's error comes first
                if pts.shape[1:] != (2,):
                    raise ValidationError(f"loop {k}: expected shape (n, 2), got {pts.shape}")
                raise ValidationError(f"loop {k}: 0 samples, need at least {MIN_LOOP_SAMPLES}")
        points, offsets, succ = _stacked(arrays)
        points.setflags(write=False)
        stops = offsets.tolist()
        object.__setattr__(self, "loops", tuple(points[a:b] for a, b in zip(stops, stops[1:])))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "succ", succ)

    @property
    def sample_count(self) -> int:
        return len(self.points)

    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) over all loops."""
        x, y = self.points[:, 0], self.points[:, 1]
        return float(x.min()), float(x.max()), float(y.min()), float(y.max())

    def bbox_diagonal(self) -> float:
        x0, x1, y0, y1 = self.bbox()
        return float(np.hypot(x1 - x0, y1 - y0))


def _stacked(arrays):
    """(points, offsets, succ) of non-empty (n, 2) loops, checked in one pass.

    Raises the first failure, loop by loop and check by check: too few
    samples, a non-finite coordinate, a coordinate above MAX_COORD, an
    extent below MIN_EXTENT, a repeated consecutive sample. Each loop's
    coordinate minima and maxima carry any nan or inf. A failed loop's
    later checks may read meaningless values (inf - inf), so
    floating-point warnings are off.
    """
    points = np.concatenate(arrays) if len(arrays) > 1 else arrays[0].copy()
    sizes = [len(pts) for pts in arrays]
    offsets = np.array([0, *accumulate(sizes)])
    first = offsets[:-1]
    succ = np.arange(1, len(points) + 1)
    succ[offsets[1:] - 1] = first
    with np.errstate(all="ignore"):
        lo, hi = np.minimum.reduceat(points, first), np.maximum.reduceat(points, first)
        extent = (hi - lo).max(axis=1)
        same = points.take(succ, axis=0) == points
        fails = np.array([
            np.less(sizes, MIN_LOOP_SAMPLES),
            ~(np.isfinite(lo) & np.isfinite(hi)).all(axis=1),
            ((lo < -MAX_COORD) | (hi > MAX_COORD)).any(axis=1),
            extent < MIN_EXTENT,
            np.logical_or.reduceat(same[:, 0] & same[:, 1], first),
        ]).T
    if fails.any():
        k, check = divmod(int(np.argmax(fails)), fails.shape[1])
        raise ValidationError(f"loop {k}: " + (
            f"{sizes[k]} samples, need at least {MIN_LOOP_SAMPLES}",
            "non-finite coordinate",
            f"coordinate magnitude above {MAX_COORD:g}, where face moments can overflow",
            f"extent {extent[k]:.3g} below {MIN_EXTENT:g}, where fixed tolerances lose crossings",
            "repeated consecutive sample",
        )[check])
    return points, offsets, succ


@dataclass(frozen=True, eq=False)
class DoublePoint:
    """A transverse self-intersection: where, which strands, how steeply."""

    point: np.ndarray
    first: tuple[int, float]  # (loop index, cyclic parameter), earlier strand
    second: tuple[int, float]
    angle: float  # angle between the strand tangent lines, in (0, pi/2]
    sign: int  # +1 or -1: orientation of the (first, second) unit tangents


@dataclass(frozen=True, eq=False)
class Violation:
    kind: str  # tangency | triple-point | near-miss | cusp-proxy
    point: np.ndarray
    branches: tuple[tuple[int, float], ...]
    detail: str


@dataclass(frozen=True, eq=False)
class GenericityReport:
    double_points: tuple[DoublePoint, ...]
    violations: tuple[Violation, ...]
    angle_tol: float
    sep_tol: float

    @property
    def is_generic(self) -> bool:
        return not self.violations


def load_curve(path: str | Path) -> ClosedCurve:
    """Read a curve file. See parse_curve for the format."""
    return parse_curve(_read_text(path))


def save_curve(curve: ClosedCurve, path: str | Path) -> None:
    Path(path).write_text(serialize_curve(curve), encoding="utf-8")


def parse_curve(text: str) -> ClosedCurve:
    """Parse the plain-text curve format.

    Line one is the header ``curve v1``. Each loop is introduced by
    ``loop <n>`` followed by n lines of ``x y``. Blank lines are skipped
    and ``#`` starts a comment anywhere on a line.
    """
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
        pts = _parse_rows(lines[i + 1 : i + 1 + count])
        if not np.all(np.isfinite(pts)):
            raise FormatError(f"line {lineno}: non-finite coordinate in loop")
        loops.append(pts)
        i += 1 + count
    if not loops:
        raise FormatError("curve file has no loops")
    return ClosedCurve(tuple(loops))


def _parse_rows(rows) -> np.ndarray:
    """(n, 2) coordinates of n significant ``x y`` lines.

    One split per row and one `float` pass over all tokens. When a row
    has other than two tokens, or `float` rejects one, the rows are read
    again one by one, so that the error names the first bad line.
    """
    cols = list(map(str.split, map(itemgetter(1), rows)))
    if set(map(len, cols)) == {2}:
        try:
            flat = np.fromiter(map(float, chain.from_iterable(cols)), float, 2 * len(cols))
            return flat.reshape(-1, 2)
        except ValueError:
            pass
    for (lno, row), c in zip(rows, cols):
        if len(c) != 2:
            raise FormatError(f"line {lno}: expected 'x y', got {row!r}")
        try:
            list(map(float, c))
        except ValueError:
            raise FormatError(f"line {lno}: bad coordinate in {row!r}") from None


def serialize_curve(curve: ClosedCurve) -> str:
    """Inverse of parse_curve; coordinates keep full round-trip precision."""
    out = ["curve v1"]
    for pts in curve.loops:
        out.append(f"loop {len(pts)}")
        for x, y in pts:
            out.append(f"{float(x)!r} {float(y)!r}")
    return "\n".join(out) + "\n"


def _read_text(path: str | Path) -> str:
    """Text of an input file, decoded as UTF-8; an undecodable byte is a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _significant_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped content) with comments and blanks removed.

    This is the comment rule of every input format: ``#`` starts a
    comment anywhere on a line, and blank lines are skipped.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = map(itemgetter(0), map(methodcaller("partition", "#"), lines))
    return list(filter(itemgetter(1), enumerate(map(str.strip, lines), start=1)))


def resample(curve: ClosedCurve, n: int) -> ClosedCurve:
    """Resample every loop to n points with equal segment lengths.

    One redistribution pass places points at equal arclength along the
    current polyline; because new segments cut corners, that is not yet a
    fixed point, so passes repeat until a pass moves nothing by more than
    roundoff. A loop that is already uniform is returned unchanged, which
    makes resampling to the same n exactly idempotent.
    """
    if n < MIN_LOOP_SAMPLES:
        raise ValidationError(f"need at least {MIN_LOOP_SAMPLES} samples, got {n}")
    new_loops = []
    for pts in curve.loops:
        tol = 5e-14 * max(1.0, float(np.abs(pts).max()))
        cur = pts
        for _ in range(200):
            nxt = _redistribute(cur, n)
            if cur.shape == nxt.shape and np.max(np.abs(nxt - cur)) < tol:
                break
            cur = nxt
        else:
            cur = nxt
        new_loops.append(cur)
    return ClosedCurve(tuple(new_loops))


def _redistribute(pts: np.ndarray, n: int) -> np.ndarray:
    """One pass: n points at equal arclength steps along the polyline."""
    ring = np.vstack([pts, pts[:1]])
    step = np.diff(ring, axis=0)
    cum = np.concatenate([[0.0], np.cumsum(np.hypot(step[:, 0], step[:, 1]))])
    targets = np.arange(n) * (cum[-1] / n)
    return np.column_stack(
        [np.interp(targets, cum, ring[:, 0]), np.interp(targets, cum, ring[:, 1])]
    )


def transform_curve(curve: ClosedCurve, fn) -> ClosedCurve:
    """Apply a point transform ((n, 2) array in, (n, 2) array out) to every loop."""
    return ClosedCurve(tuple(np.asarray(fn(pts), dtype=float) for pts in curve.loops))


def check_generic(
    curve: ClosedCurve,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    sep_tol: float | None = None,
) -> GenericityReport:
    """Certify that the sampled curve is generic at the sample scale.

    Parameters
    ----------
    curve : ClosedCurve
    angle_tol : minimum crossing angle (radians) for a double point to
        count as transverse; shallower crossings are tangency violations.
    sep_tol : spatial separation scale; defaults to 1e-6 times the
        bounding-box diagonal. Intersections closer than this are merged
        into one candidate crossing, and non-crossing strands that
        approach within it are near-miss violations.

    A sample whose turning angle is at least MAX_TURN is flagged as a
    cusp proxy.

    Only a cluster of more than one hit (a crossing on or beside a
    sample) takes a mean point and merges its strand germs; one array
    pass then takes the two unit tangents, the angle and the sign of
    every two-strand crossing. A 256-sample petal with four crossings
    certifies in 0.4 to 0.7 ms on a 2-core x86-64 machine.
    """
    require_positive("angle_tol", angle_tol)
    if sep_tol is None:
        sep_tol = SEP_TOL_FACTOR * curve.bbox_diagonal()
    require_positive("sep_tol", sep_tol)

    violations: list[Violation] = []
    hits = _segment_hits(curve, sep_tol, violations)
    sizes = np.diff(curve.offsets).tolist()
    points, strands = [], []  # per two-strand crossing: its point; its two (loop, t) germs
    for cluster in _cluster_hits(hits, sep_tol):
        (point, germs), *more = cluster
        (la, ta), (lb, tb) = germs
        if more or (la == lb and _one_passage(ta, tb, sizes[la])):
            point = np.mean([h[0] for h in cluster], axis=0)
            germs = _merge_germs([g for h in cluster for g in h[1]], curve)
            if len(germs) > 2:
                violations.append(
                    Violation("triple-point", point, tuple(germs), f"{len(germs)} strands meet")
                )
                continue
            if len(germs) < 2:
                # one passage meeting itself, not a double point: segments
                # i and i + 2 cross only after a turn above pi/2 at sample
                # i + 1 or i + 2, which _check_cusps flags
                continue
        first, second = sorted(germs)
        points.append(point)
        strands += first, second

    loops, ts = np.array(strands, dtype=float).reshape(-1, 2).T
    tangents = _unit_tangents(curve, loops.astype(np.int64), ts)
    cross = cross2(tangents[0::2], tangents[1::2])
    angles = np.arcsin(np.minimum(1.0, np.abs(cross)))
    double_points: list[DoublePoint] = []
    crossings = zip(points, strands[0::2], strands[1::2], angles.tolist(), cross.tolist())
    for point, first, second, angle, c in crossings:
        if angle < angle_tol:
            detail = f"crossing angle {angle:.3g} < {angle_tol:.3g}"
            violations.append(Violation("tangency", point, (first, second), detail))
        else:
            # angle >= angle_tol > 0, so c is nonzero
            double_points.append(DoublePoint(point, first, second, angle, 1 if c > 0 else -1))

    _check_cusps(curve, violations)

    double_points.sort(key=lambda dp: dp.first)
    violations.sort(key=lambda v: (v.kind, v.branches))
    return GenericityReport(
        double_points=tuple(double_points),
        violations=tuple(violations),
        angle_tol=angle_tol,
        sep_tol=sep_tol,
    )


def _segment_hits(curve, sep_tol, violations):
    """All polyline self-intersections, plus near-miss violations.

    Returns a list of (point, ((loop, t), (loop, t))) records, in the
    order of the candidate segment pairs from `_candidate_pairs`. One
    `segment_intersections` pass tests the candidates, PAIR_CHUNK at a
    time, and one `segment_pair_distances` pass measures those that do
    not cross. The near-miss test skips parameter-close pairs of one
    loop, whose closeness is curvature, not a second strand. A near-miss
    beside a crossing pair is dropped too: a crossing within sep_tol of a
    sample point brings the neighbouring segments within sep_tol of each
    other.
    """
    pts, nxt, loop, index, size = segs = _segments(curve)
    a, b = _candidate_pairs(segs, sep_tol)

    def ends(ca, cb):
        """The end points of segments ca and cb, gathered row by row."""
        return (pts.take(ca, axis=0), nxt.take(ca, axis=0),
                pts.take(cb, axis=0), nxt.take(cb, axis=0))

    hits = []
    crossed = {}  # (loop, loop): crossing (index, index) pairs
    near = []
    for c in range(0, len(a), PAIR_CHUNK):
        ca, cb = a[c : c + PAIR_CHUNK], b[c : c + PAIR_CHUNK]
        hit, t, u, point = segment_intersections(*ends(ca, cb))
        ha, hb = ca[hit], cb[hit]
        ta = ((index[ha] + t) % size[ha]).tolist()
        tb = ((index[hb] + u) % size[hb]).tolist()
        hits.extend(zip(point, zip(zip(loop[ha].tolist(), ta), zip(loop[hb].tolist(), tb))))
        for la, lb, i, j in zip(*(x.tolist() for x in (loop[ha], loop[hb], index[ha], index[hb]))):
            crossed.setdefault((la, lb), set()).add((i, j))
        gap = (index[cb] - index[ca]) % size[ca]
        window = np.maximum(2, size[ca] // 100)
        far = ~hit & ((loop[ca] != loop[cb]) | (np.minimum(gap, size[ca] - gap) > window))
        ca, cb = ca[far], cb[far]
        dist = segment_pair_distances(*ends(ca, cb))
        close = dist < sep_tol
        near.extend(zip(ca[close].tolist(), cb[close].tolist(), dist[close].tolist()))
    for sa, sb, dist in near:
        la, lb, i, j = int(loop[sa]), int(loop[sb]), int(index[sa]), int(index[sb])
        pairs = crossed.get((la, lb), ())
        if _beside_crossing(i, j, int(size[sa]), int(size[sb]), pairs, la == lb):
            continue
        mid = 0.25 * (pts[sa] + nxt[sa] + pts[sb] + nxt[sb])
        violations.append(
            Violation(
                "near-miss",
                mid,
                ((la, float(i)), (lb, float(j))),
                f"strands {dist:.3g} apart without crossing (tol {sep_tol:.3g})",
            )
        )
    return hits


def _segments(curve):
    """(start, end, loop, index, loop size) of every segment, loops stacked.

    Segment i of loop l runs from sample i to sample i + 1 (cyclically);
    all five are arrays over the stacked segments.
    """
    pts, offsets = curve.points, curve.offsets
    sizes = np.diff(offsets)
    loop = np.repeat(np.arange(len(sizes)), sizes)
    nxt = pts.take(curve.succ, axis=0)
    return pts, nxt, loop, np.arange(len(pts)) - offsets[loop], sizes[loop]


def _candidate_pairs(segs, sep_tol):
    """Segment pairs (a, b) whose bounding boxes come within sep_tol.

    `segs` is `_segments(curve)`, and a and b index its rows. Of each
    pair, a is the (loop, index)-smaller segment: its box is inflated by
    sep_tol, b's is not, and both must overlap on both axes. Pairs of one
    loop have a < b and are not neighbours on the loop. The pairs come
    sorted by (loop[a], loop[b], index[a], index[b]).

    A sort-and-sweep finds them. Segments are sorted by lower x bound,
    and each one's window is the later segments with lo <= hi + sep_tol
    or lo - sep_tol <= hi against its upper bound hi: the x test with the
    inflation on either side, rounded as the test rounds it, so the
    window holds every pair that passes whichever segment is a. Memory
    is linear in the samples plus one chunk of window pairs.
    """
    pts, nxt, loop, index, size = segs
    # rows 0 and 1 hold the x and y bounds, each contiguous for `take`
    lo, hi = np.minimum(pts, nxt).T.copy(), np.maximum(pts, nxt).T.copy()
    lo_in, hi_in = lo - sep_tol, hi + sep_tol

    order = np.argsort(lo[0], kind="stable")
    # lo - sep_tol rounds monotonically, so lo_in is sorted along with lo
    end = np.maximum(
        np.searchsorted(lo[0].take(order), hi_in[0].take(order), side="right"),
        np.searchsorted(lo_in[0].take(order), hi[0].take(order), side="right"),
    )
    # y test with both boxes inflated: implied by the exact test, and cheap
    # in sweep order
    ylo, yhi = lo_in[1].take(order), hi_in[1].take(order)
    found = []
    for p, q in _window_pairs(end):
        near = (ylo[p] <= yhi[q]) & (yhi[p] >= ylo[q])
        p, q = p[near], q[near]
        a = np.minimum(order[p], order[q])
        b = np.maximum(order[p], order[q])
        keep = (
            (lo_in[0].take(a) <= hi[0].take(b))
            & (hi_in[0].take(a) >= lo[0].take(b))
            & (lo_in[1].take(a) <= hi[1].take(b))
            & (hi_in[1].take(a) >= lo[1].take(b))
        )
        gap = (index[b] - index[a]) % size[a]
        keep &= (loop[a] != loop[b]) | (np.minimum(gap, size[a] - gap) > 1)
        found.append((a[keep], b[keep]))
    a = np.concatenate([f[0] for f in found])
    b = np.concatenate([f[1] for f in found])
    rank = np.lexsort((index[b], index[a], loop[b], loop[a]))
    return a[rank], b[rank]


def _window_pairs(end):
    """(p, q) rank arrays for p < q < end[p], in chunks of about
    PAIR_CHUNK pairs (a single rank's window may exceed it)."""
    n = len(end)
    counts = end - np.arange(1, n + 1)
    base = np.concatenate([[0], np.cumsum(counts)])
    r0 = 0
    while r0 < n:
        r1 = max(r0 + 1, int(np.searchsorted(base, base[r0] + PAIR_CHUNK, side="right")) - 1)
        c = counts[r0:r1]
        p = np.repeat(np.arange(r0, r1), c)
        q = np.arange(base[r0], base[r1]) - np.repeat(base[r0:r1] - np.arange(r0 + 1, r1 + 1), c)
        yield p, q
        r0 = r1


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
    """Group intersection records whose points lie within sep_tol.

    Only pairs of records within 2 sep_tol in x, found from one sort by x,
    are measured: two points within sep_tol of each other are within
    sep_tol in x up to rounding. The measured pairs are visited in (i, j)
    order of the records, so the union-find merges, and the clusters and
    their order, are those of a test of all pairs.
    """
    hits = list(hits)
    x = np.array([h[0][0] for h in hits], dtype=float)
    order = np.argsort(x, kind="stable")
    end = np.searchsorted(x[order], x[order] + 2 * sep_tol, side="right").tolist()
    order = order.tolist()
    pairs = sorted(
        (min(order[k], order[m]), max(order[k], order[m]))
        for k in range(len(hits))
        for m in range(k + 1, end[k])
    )
    near = [(i, j) for i, j in pairs if np.linalg.norm(hits[i][0] - hits[j][0]) <= sep_tol]
    groups: dict[int, list] = {}
    for root, h in zip(union_roots(len(hits), near), hits):
        groups.setdefault(root, []).append(h)
    return [groups[k] for k in sorted(groups)]


def union_roots(n, pairs):
    """Root of each of elements 0..n-1 after union(a, b) for every pair in
    order: the root of a's set is hung under the root of b's."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(n)]


def _one_passage(s, t, n):
    """Whether parameters s and t of one n-sample loop lie within 1.5
    samples of each other: one strand passage seen from neighboring
    segments."""
    d = abs(t - s) % n
    return min(d, n - d) <= 1.5


def _merge_germs(germs, curve):
    """Collapse (loop, t) records that describe the same strand passage.

    Records on the same loop within 1.5 samples of each other are the
    same passage seen from neighboring segments.
    """
    merged: list[list] = []
    for loop, t in sorted(germs):
        n = len(curve.loops[loop])
        for entry in merged:
            el, ets = entry
            if el == loop and _one_passage(ets[0], t, n):
                entry[1].append(t)
                break
        else:
            merged.append([loop, [t]])
    out = []
    for loop, ts in merged:
        n = len(curve.loops[loop])
        # circular mean of parameters, safe because the spread is <= 1.5
        base = ts[0]
        rel = [(t - base + n / 2) % n - n / 2 for t in ts]
        out.append((loop, float((base + np.mean(rel)) % n)))
    return sorted(out)


def _unit_tangents(curve, loops, ts):
    """Unit tangents of the curve at cyclic parameters ts of loops, row by row.

    More than 1e-9 inside a segment, the tangent is the segment's
    direction; at a sample, or within 1e-9 of one, it is the sum of the
    unit steps into and out of that sample. Both are computed for every
    row and one is kept. Every norm has the bits of np.linalg.norm on
    its row alone. A zero tangent raises, naming the first such row.
    """
    pts, succ = curve.points, curve.succ
    start = curve.offsets.take(loops)
    n = curve.offsets.take(loops + 1) - start
    t = ts % n
    i = t.astype(np.int64)
    frac = t - i
    seg = start + i  # the sample each parameter's segment starts from
    after = frac > 1e-9
    nxt = succ.take(seg)
    at = np.where(after, nxt, seg)  # the nearest sample, for rows not inside a segment
    into = pts.take(at, axis=0) - pts.take(np.where(at == start, start + n - 1, at - 1), axis=0)
    out = pts.take(succ.take(at), axis=0) - pts.take(at, axis=0)
    across = into / _norms(into)[:, None] + out / _norms(out)[:, None]
    inside = after & (frac < 1.0 - 1e-9)
    d = np.where(inside[:, None], pts.take(nxt, axis=0) - pts.take(seg, axis=0), across)
    norm = _norms(d)
    if not norm.all():
        k = int(np.argmin(norm))
        raise ValidationError(f"loop {int(loops[k])}: degenerate tangent at t={float(t[k])}")
    return d / norm[:, None]


def _norms(d):
    """Euclidean norm of each row of an (m, 2) array, with the bits of
    np.linalg.norm on that row alone: the square root of its dot product
    with itself, taken as stacked 1x2 @ 2x1 products."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _check_cusps(curve, violations):
    """Flag every sample, of all loops in one pass, whose turning angle is
    at least MAX_TURN, in loop and sample order."""
    pts, succ, offsets = curve.points, curve.succ, curve.offsets
    pred = np.empty_like(succ)
    pred[succ] = np.arange(len(succ))
    step = pts.take(succ, axis=0) - pts
    prev = step.take(pred, axis=0)  # the step into each sample
    turn = np.abs(np.arctan2(cross2(prev, step), np.einsum("ij,ij->i", prev, step)))
    for s in np.flatnonzero(turn >= MAX_TURN).tolist():
        k = int(np.searchsorted(offsets, s, side="right")) - 1
        i = s - int(offsets[k])
        violations.append(
            Violation(
                "cusp-proxy",
                pts[s],
                ((k, float(i)),),
                f"turning angle {turn[s]:.3g} >= {MAX_TURN:.3g} at sample {i}",
            )
        )
