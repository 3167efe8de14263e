"""Genericity check against the dense, per-cluster code it replaced.

`curves._segment_hits` finds its candidate segment pairs by a sweep over
segment x-intervals, `curves._cluster_hits` measures only hit pairs
that are close in x, and `check_generic` takes the tangents, angles and
signs of all crossings in one array pass. The whole genericity report
(double points, strand parameters, angles, signs, violations and their
order) must equal the one made by `oracles.check_generic`: dense n x n
candidate arrays, all-pairs clustering, and two `tangent_at` calls per
cluster. The batched `segment_intersections` pass must test the same
segment pairs, in the same order, as the oracle's scalar
`segment_intersection` calls. Large loops must certify in bounded time
and memory.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import numpy as np
import oracles
import pytest
from conftest import (
    circle_curve,
    close_circles_curve,
    cusp_curve,
    eights_row,
    generic_trig_loops,
    gerono_curve,
    holed_curve,
    petal_curve,
    serpentine_curve,
    tangent_circles_curve,
    trefoil_curve,
    trifolium_curve,
)

from symplane import curves
from symplane.curves import ClosedCurve, check_generic, load_curve
from symplane.errors import FormatError, ValidationError
from symplane.geometry import point_segment_distance, segment_intersections, segment_pair_distances


def flat(report):
    """The report as plain comparable values, in its own order."""
    return (
        report.is_generic,
        report.angle_tol,
        report.sep_tol,
        [(dp.point.tolist(), dp.first, dp.second, dp.angle, dp.sign)
         for dp in report.double_points],
        [(v.kind, v.point.tolist(), v.branches, v.detail) for v in report.violations],
    )


def assert_same(curve, **kwargs):
    """Require the report of check_generic to equal the oracle's, and the
    segment pairs its batched pass tests to be the oracle's scalar
    segment_intersection calls; return the report and the pairs."""
    new, old = [], []
    segment_intersection = oracles.segment_intersection

    def batched(p0, p1, q0, q1):
        new.extend(map(tuple, np.concatenate([p0, p1, q0, q1], axis=1).tolist()))
        return segment_intersections(p0, p1, q0, q1)

    def scalar(p0, p1, q0, q1):
        old.append(tuple(np.concatenate([p0, p1, q0, q1]).tolist()))
        return segment_intersection(p0, p1, q0, q1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curves, "segment_intersections", batched)
        mp.setattr(oracles, "segment_intersection", scalar)
        report = check_generic(curve, **kwargs)
        ref = oracles.check_generic(curve, **kwargs)
    assert new == old
    assert flat(report) == flat(ref)
    return report, new


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def stacked_boxes(gap):
    """Two chamfered boxes, the upper one's bottom strand `gap` above the
    lower one's top strand: horizontal segments whose boxes meet only
    once inflated by sep_tol."""
    box = serpentine_curve(strands=2, n=64).loops[0]
    return ClosedCurve((box, box + (0.0, 1.0 + gap)))


def crossings_sampled(curve):
    """The curve with each double point inserted as a sample on both of
    its strands, so every crossing is hit by four segment pairs."""
    pts = curve.loops[0]
    cuts = sorted(t for dp in check_generic(curve).double_points
                  for t in (dp.first[1], dp.second[1]))
    at = [oracles.point_at(curve, 0, t) for t in cuts]
    return ClosedCurve((np.insert(pts, np.floor(cuts).astype(int) + 1, at, axis=0),))


def circle_chain(n=128):
    """Three unit circles, each crossing the next twice: pairs across loops."""
    t = 2.0 * np.pi * (np.arange(n) + 0.3) / n
    ring = np.column_stack([np.cos(t), np.sin(t)])
    return ClosedCurve(tuple(ring + c for c in ((0.0, 0.0), (1.3, 0.2), (2.5, -0.1))))


def dyadic_box(x0):
    """Square [x0, x0 + 2] x [0, 2], corners cut 0.25 along each side,
    sampled every 0.25: every coordinate and sum below is exact."""
    corners = [(0.25, 0.0), (1.75, 0.0), (2.0, 0.25), (2.0, 1.75), (1.75, 2.0), (0.25, 2.0),
               (0.0, 1.75), (0.0, 0.25)]
    pts = []
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        steps = int(round(4 * max(abs(bx - ax), abs(by - ay))))
        for k in range(steps):
            pts.append((x0 + ax + (bx - ax) * k / steps, ay + (by - ay) * k / steps))
    return np.array(pts)


def many_crossings(n=1024):
    """Hypotrochoid-like loop (cos t + 0.8 cos 12t, sin t - 0.8 sin 12t):
    91 transverse double points."""
    t = 2.0 * np.pi * np.arange(n) / n
    return ClosedCurve(
        (np.column_stack([np.cos(t) + 0.8 * np.cos(12 * t), np.sin(t) - 0.8 * np.sin(12 * t)]),)
    )


def eights_column(k, n=64):
    """k figure-eights (sin t, sin t cos t) stacked 3 apart in y: every
    crossing lies on x = 0, so all hit pairs share one x-window."""
    t = 2.0 * np.pi * np.arange(n) / n
    eight = np.column_stack([np.sin(t), np.sin(t) * np.cos(t)])
    return ClosedCurve(tuple(eight + (0.0, 3.0 * i) for i in range(k)))


def same_clusters(hits, sep_tol):
    """Require `_cluster_hits` to group the records, and order the
    clusters, as the all-pairs oracle does; return the clusters."""
    got = curves._cluster_hits(hits, sep_tol)
    want = oracles._cluster_hits(hits, sep_tol)
    assert [[id(h) for h in c] for c in got] == [[id(h) for h in c] for c in want]
    return got


def test_trig_family_matches_dense():
    for curve, _ in generic_trig_loops(seed=77, count=100):
        assert_same(curve)


def test_petals_match_dense():
    rng = np.random.default_rng(0)
    generic = 0
    for _ in range(40):
        params = (int(rng.integers(2, 4)), rng.uniform(1.3, 2.4),
                  *rng.uniform(0.0, 2.0 * np.pi, size=2), rng.uniform(-0.25, 0.25))
        report, _ = assert_same(petal_curve(params))
        generic += report.is_generic
    # both verdicts occur among the draws
    assert 0 < generic < 40


def test_eights_rows_match_dense():
    for k in range(1, 5):
        reordered = eights_row(k, order=range(k)[::-1], shifts=[37 * i for i in range(k)])
        for curve in (eights_row(k), reordered):
            report, _ = assert_same(curve)
            assert len(report.double_points) == k


def test_gerono_phase_sweep_matches_dense():
    small = 10.0 ** np.linspace(-8.0, -1.0, 80)
    for offset in np.concatenate([[0.0], small, 1.0 - small]):
        assert_same(gerono_curve(n=256, offset=offset))


@pytest.mark.parametrize(
    "build, kind",
    [
        (tangent_circles_curve, "tangency"),
        (close_circles_curve, "near-miss"),
        (cusp_curve, "cusp-proxy"),
        (trifolium_curve, "triple-point"),
        (lambda: stacked_boxes(1e-9), "near-miss"),
    ],
)
def test_violations_match_dense(build, kind):
    report, _ = assert_same(build())
    assert kind in {v.kind for v in report.violations}


def test_named_curves_match_dense():
    annulus = ClosedCurve(circle_curve(n=512).loops + circle_curve(n=512, radius=0.95).loops)
    for curve, crossings in ((trefoil_curve(n=512), 3), (holed_curve(), 1),
                             (stacked_boxes(1e-3), 0), (circle_chain(), 4), (annulus, 0)):
        report, _ = assert_same(curve)
        assert report.is_generic
        assert len(report.double_points) == crossings


def golden_curves():
    """Every curve of the golden corpus that loads."""
    out = []
    for path in sorted((Path(__file__).parent / "golden" / "inputs").glob("*.curve")):
        try:
            out.append(load_curve(path))
        except (FormatError, ValidationError):
            continue
    return out


@pytest.mark.parametrize("angle_tol", [0.1, 0.5, 1.2, 1.5])
def test_golden_curves_match_per_cluster_code(angle_tol):
    # crossings on a sample are hit by four segment pairs, whose cluster
    # takes a mean point and merges its germs; raising angle_tol turns
    # crossings into tangencies one by one
    multi = 0
    kinds = set()
    for curve in golden_curves():
        report, _ = assert_same(curve, angle_tol=angle_tol)
        kinds.update(v.kind for v in report.violations)
        hits = curves._segment_hits(curve, report.sep_tol, [])
        multi += sum(len(c) > 1 for c in curves._cluster_hits(hits, report.sep_tol))
    assert multi >= 24
    assert {"tangency", "triple-point"} <= kinds


def test_tangents_match_tangent_at():
    # parameters inside segments, exactly at samples, within 1e-9 of a
    # sample on either side, and on every loop of a multi-loop curve, at
    # every scale: each row equals the scalar oracle bit for bit
    rng = np.random.default_rng(21)
    for base in (trefoil_curve(n=512), eights_row(3), holed_curve(),
                 petal_curve((3, 1.9, 0.4, 2.2, 0.1))):
        for scale in (1e-6, 1.0, 1e6):
            curve = ClosedCurve(tuple(pts * scale for pts in base.loops))
            sizes = [len(pts) for pts in curve.loops]
            loops = rng.integers(0, len(sizes), size=3000)
            n = np.array(sizes)[loops]
            i = rng.integers(0, n)
            frac = rng.choice([0.0, 1e-10, 1e-9, 2e-9, 0.5, 1.0 - 2e-9, 1.0 - 1e-9, 1.0 - 1e-10],
                              size=len(i))
            frac = np.where(rng.random(len(i)) < 0.3, rng.random(len(i)), frac)
            ts = i + frac
            got = curves._unit_tangents(curve, loops, ts)
            for k in range(len(ts)):
                want = oracles.tangent_at(curve, int(loops[k]), float(ts[k]))
                assert bits(got[k]) == bits(want)


def test_degenerate_tangent_fails_like_per_cluster_code():
    # loop 0 runs up to (1, 2), down to sample 4 at (1, 1) and straight
    # back up; loop 1 touches it there with a sample of its own. The unit
    # steps into and out of sample 4 cancel, so that crossing has no
    # tangent on loop 0
    spike = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 2.0), (1.0, 1.0),
                      (1.0, 2.0), (0.0, 2.0), (0.0, 1.0)])
    t = np.pi / 2 + 2.0 * np.pi * np.arange(32) / 32
    ring = np.column_stack([1.0 + 0.4 * np.cos(t), 0.6 + 0.4 * np.sin(t)])
    ring[0] = 1.0, 1.0
    curve = ClosedCurve((spike, ring))
    errors = []
    for check in (check_generic, oracles.check_generic):
        with pytest.raises(ValidationError) as caught:
            check(curve)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == "loop 0: degenerate tangent at t=4.0"


def test_many_hits_cluster_like_all_pairs():
    plain = many_crossings()
    for curve in (plain, crossings_sampled(plain)):
        report, _ = assert_same(curve)
        assert report.is_generic
        assert len(report.double_points) == 91
        hits = list(curves._segment_hits(curve, report.sep_tol, []))
        clusters = curves._cluster_hits(hits, report.sep_tol)
        # the same records in the same clusters, in the same order
        assert [[id(h) for h in c] for c in clusters] == [
            [id(h) for h in c] for c in oracles._cluster_hits(hits, report.sep_tol)
        ]
        assert len(clusters) == 91
        assert len(hits) > 50
    # crossings at samples: most are hit by several segment pairs
    assert sum(len(c) > 1 for c in clusters) > 80


def test_crossings_in_one_x_window_cluster_like_all_pairs():
    # 200 stacked eights: 800 hits, every pair of them within 2 sep_tol in
    # x; the 91-crossing loop turned a quarter, so its hits spread along y
    turned = ClosedCurve((many_crossings().loops[0] @ [[0.0, 1.0], [-1.0, 0.0]],))
    for curve, crossings in ((eights_column(200), 200), (turned, 91)):
        sep_tol = check_generic(curve).sep_tol
        hits = curves._segment_hits(curve, sep_tol, [])
        assert len(same_clusters(hits, sep_tol)) == crossings


def test_cluster_hits_measure_pairs_in_array_passes(monkeypatch):
    # all 319,600 pairs of hits lie within 2 sep_tol in x, and each chunk
    # of them is measured in one `_norms` pass, not by np.linalg.norm
    curve = eights_column(200)
    sep_tol = check_generic(curve).sep_tol
    hits = curves._segment_hits(curve, sep_tol, [])
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    assert len(curves._cluster_hits(hits, sep_tol)) == 200
    assert not calls


def test_cluster_windows_sweep_in_chunks(monkeypatch):
    # 50 stacked eights: all 19,900 pairs of their 200 hits in one x-window,
    # measured PAIR_CHUNK at a time
    monkeypatch.setattr(curves, "PAIR_CHUNK", 997)
    curve = eights_column(50)
    sep_tol = check_generic(curve).sep_tol
    hits = curves._segment_hits(curve, sep_tol, [])
    sizes = []
    expand = curves._window_pairs

    def counted(end):
        for p, q in expand(end):
            sizes.append(len(p))
            yield p, q

    monkeypatch.setattr(curves, "_window_pairs", counted)
    assert len(same_clusters(hits, sep_tol)) == 50
    assert sum(sizes) == 200 * 199 // 2
    assert len(sizes) > 1 and max(sizes) <= 997


def test_near_pairs_beside_crossings_screen_like_lookups(monkeypatch):
    # each near pair's verdict equals the nine (eighteen within one loop)
    # set lookups of the oracle. The trig loops start at a crossing's
    # segment, and their sep_tol, like the 91-crossing loop's, is raised
    # until near pairs crowd around each crossing, some beside it only
    # across the loop's seam
    trig = [curve for curve, rep in generic_trig_loops(seed=77, count=100) if rep.double_points]
    inputs = [(close_circles_curve(), None), (stacked_boxes(1e-9), None), (many_crossings(), 0.01)]
    for curve in trig:
        for dp in check_generic(curve).double_points:
            rolled = ClosedCurve((np.roll(curve.loops[0], -int(dp.first[1]), axis=0),))
            inputs += [(rolled, f * curve.bbox_diagonal()) for f in (1e-3, 1e-2, 3e-2)]
    calls = []
    screen = curves._beside_crossings

    def spy(*args):
        calls.append((args, screen(*args)))
        return calls[-1][1]

    monkeypatch.setattr(curves, "_beside_crossings", spy)
    for curve, sep_tol in inputs:
        assert_same(curve, sep_tol=sep_tol)
    near = beside = seam = 0
    for (sa, sb, ha, hb, index, size), got in calls:
        loop = (np.cumsum(index == 0) - 1).tolist()
        index, size = index.tolist(), size.tolist()
        crossed = {}
        for a, b in zip(ha.tolist(), hb.tolist()):
            crossed.setdefault((loop[a], loop[b]), set()).add((index[a], index[b]))
        for a, b, flag in zip(sa.tolist(), sb.tolist(), got.tolist()):
            same, pairs = loop[a] == loop[b], crossed.get((loop[a], loop[b]), ())
            i, j = index[a], index[b]
            assert flag == oracles._beside_crossing(i, j, size[a], size[b], pairs, same)
            near += 1
            beside += flag
            # beside a crossing only through a neighbour across the seam
            seam += flag and not oracles._beside_crossing(i, j, 2**40, 2**40, pairs, same)
    # 2135 near pairs, 175 beside a crossing, 18 of them across a seam
    assert near - beside > 1000 and beside > 100 and seam > 10


def test_boxes_exactly_sep_tol_apart_are_candidates():
    # the right side of one box and the left side of the other are exactly
    # sep_tol apart in x: their pair sits on the edge of the sweep window
    curve = ClosedCurve((dyadic_box(0.0), dyadic_box(2.25)))
    report, calls = assert_same(curve, sep_tol=0.25)
    assert report.is_generic
    edge = (2.0, 0.25, 2.0, 0.5, 2.25, 0.5, 2.25, 0.25)
    assert edge in calls


def test_cluster_records_like_all_pairs():
    # points spread so that many pairs lie near the sep_tol threshold and
    # clusters grow by chains of unions
    rng = np.random.default_rng(5)
    for sep_tol in (0.02, 0.04, 0.06):
        records = [(p, ((0, float(k)), (0, float(k)))) for k, p in enumerate(rng.random((300, 2)))]
        got = curves._cluster_hits(records, sep_tol)
        want = oracles._cluster_hits(records, sep_tol)
        assert [[id(h) for h in c] for c in got] == [[id(h) for h in c] for c in want]
        assert 1 < len(got) < 300


def test_segment_pair_distance_matches_four_call_oracle():
    # the near-miss distance is printed in violation details, so each row
    # of the batched pass must equal the four point-segment calls bit for
    # bit, at every scale and for segments near the zero-length cut-off
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-6, 5, size=(10_000, 1, 1))
    p0, p1, q0, q1 = (rng.normal(size=(10_000, 4, 2)) * scale).transpose(1, 0, 2)
    tiny = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-14, -10, size=(10_000, 1))
    k = np.arange(10_000)
    p1[k % 5 == 1] = p0[k % 5 == 1] + tiny[k % 5 == 1]
    q1[k % 5 == 2] = q0[k % 5 == 2] + tiny[k % 5 == 2]
    got = segment_pair_distances(p0, p1, q0, q1)
    for m in range(10_000):
        assert got[m] == oracles.segment_pair_distance(p0[m], p1[m], q0[m], q1[m])


def test_segment_intersections_match_scalar_oracle():
    # crossing, touching, parallel, collinear and missing pairs at every
    # scale, with endpoints on a coarse lattice so that parameters land
    # exactly on 0 and 1, and a hair beyond them
    rng = np.random.default_rng(12)
    m = 20_000
    scale = 10.0 ** rng.uniform(-8, 8, size=(m, 1, 1))
    ends = rng.integers(-3, 4, size=(m, 4, 2)) * scale
    ends[m // 2 :] += rng.normal(size=(m - m // 2, 4, 2)) * 1e-13 * scale[m // 2 :]
    p0, p1, q0, q1 = ends.transpose(1, 0, 2)
    hit, t, u, point = segment_intersections(p0, p1, q0, q1)
    rows = np.flatnonzero(hit)
    assert 0 < len(rows) < m
    for k in range(m):
        res = oracles.segment_intersection(p0[k], p1[k], q0[k], q1[k])
        assert (res is not None) == hit[k]
    for n, k in enumerate(rows):
        tk, uk, pk = oracles.segment_intersection(p0[k], p1[k], q0[k], q1[k])
        assert bits(t[n]) == bits(tk) and bits(u[n]) == bits(uk)
        assert bits(point[n]) == bits(pk)


def test_point_segment_distance_broadcasts():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[2.0, 0.0], [1.0, 1.0]])  # the second segment has zero length
    p = np.array([[[1.0, 3.0]], [[-3.0, 4.0]]])  # (2, 1, 2) against (2, 2)
    got = point_segment_distance(p, a, b)
    assert got.shape == (2, 2)
    assert got.tolist() == [[3.0, 2.0], [5.0, 5.0]]
    for i in range(2):
        for j in range(2):
            assert got[i, j] == oracles.point_segment_distance(p[i], a[j], b[j])[0]


@pytest.mark.parametrize("chunk", [None, 997])
def test_chunked_sweep_matches_dense(chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(curves, "PAIR_CHUNK", chunk)
    # the column's 200 hits share one x-window: its 19,900 pairs are clustered in chunks too
    for curve in (serpentine_curve(strands=16, n=2048), many_crossings(), trefoil_curve(n=512),
                  eights_column(50)):
        report, _ = assert_same(curve)
        assert report.is_generic


@pytest.mark.parametrize(
    "build, crossings",
    [(lambda: trefoil_curve(n=16384), 3), (lambda: serpentine_curve(strands=128, n=16384), 0)],
    ids=["trefoil", "serpentine"],
)
def test_large_loop_certifies_in_bounded_time_and_memory(build, crossings):
    curve = build()
    start = time.perf_counter()
    report = check_generic(curve)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        check_generic(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_generic
    assert len(report.double_points) == crossings
    assert elapsed < 1.0, elapsed
    assert peak < 200e6, peak


def test_serpentine_sweeps_in_chunks(monkeypatch):
    # all 128 strands overlap in x: over a million window pairs
    sizes = []
    expand = curves._window_pairs

    def counted(end):
        for p, q in expand(end):
            sizes.append(len(p))
            yield p, q

    monkeypatch.setattr(curves, "_window_pairs", counted)
    check_generic(serpentine_curve(strands=128, n=16384))
    assert sum(sizes) > 1_000_000
    assert len(sizes) > 1 and max(sizes) <= curves.PAIR_CHUNK
