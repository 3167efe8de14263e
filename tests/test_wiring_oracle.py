"""Half-edge wiring from crossing signs against the tangent-sorting code.

`build_arrangement` orders the half-edges around each vertex by the
crossing's sign from `check_generic`, lays the boundary walks end to
end and takes each walk's area and centroid from one `walk_moments`
pass over all walks. The code it replaced (`oracles.wiring`) evaluated
the four outgoing tangents, sorted them by angle, and ran the shoelace
sum once for the area and again for the centroid. Both are built from
the same genericity report and must agree exactly: next pointers,
walks, polygons, areas, centroids, label points, loop components and
Gauss signs. Each curve also runs mirrored (x -> -x) and with its
samples reversed, so both crossing signs occur.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import oracles
import pytest
from conftest import (
    circle_curve,
    eights_row,
    generic_trig_loops,
    gerono_curve,
    holed_curve,
    petal_curve,
    serpentine_curve,
    trefoil_curve,
)

from symplane.arrangement import _extract_cycles, _lay_walks, build_arrangement, face_areas
from symplane.curves import ClosedCurve, check_generic, transform_curve
from symplane.diagram import gauss_code
from symplane.geometry import walk_moments


def mirrored(curve):
    return transform_curve(curve, lambda p: p * (-1.0, 1.0))


def reversed_samples(curve):
    return ClosedCurve(tuple(pts[::-1] for pts in curve.loops))


def petals():
    rng = np.random.default_rng(0)
    out = []
    for _ in range(40):
        params = (int(rng.integers(2, 4)), rng.uniform(1.3, 2.4),
                  *rng.uniform(0.0, 2.0 * np.pi, size=2), rng.uniform(-0.25, 0.25))
        curve = petal_curve(params)
        if check_generic(curve).is_generic:
            out.append(curve)
    return out


def rows():
    out = []
    for k in range(1, 6):
        out.append(eights_row(k))
        out.append(eights_row(k, order=range(k)[::-1], shifts=[37 * i for i in range(k)]))
    return out


def gerono_sweep():
    # offset 0 puts the crossing on samples 0 and 128; the others a hair
    # beside them, on either side
    small = 10.0 ** np.linspace(-8.0, -1.0, 80)
    return [gerono_curve(n=256, offset=o) for o in np.concatenate([[0.0], small, 1.0 - small])]


FAMILIES = {
    "trig": lambda: [curve for curve, _ in generic_trig_loops(seed=77, count=100)],
    "petals": petals,
    "rows": rows,
    "gerono-sweep": gerono_sweep,
    "holed-trefoil": lambda: [holed_curve(), trefoil_curve(n=512)],
}


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_wiring(curve):
    """Build both wirings from one report; return the new arrangement."""
    report = check_generic(curve)
    assert report.is_generic
    arr = build_arrangement(curve, report)
    old = oracles.wiring(curve, report)
    assert arr.passages == old.passages
    assert arr.loop_arcs == old.loop_arcs
    assert [(he.loop, he.twin, he.next) for he in arr.half_edges] == [
        (he.loop, he.twin, he.next) for he in old.half_edges
    ]
    for he, he_old in zip(arr.half_edges, old.half_edges):
        assert np.array_equal(he.points, he_old.points)
    cycles = _extract_cycles(arr.half_edges)
    assert cycles == old.cycles
    # the walks and moments the build reads: all walks laid end to end,
    # each walk's shoelace sums over its own slice
    closed, stops = _lay_walks(arr.half_edges, cycles)
    moments = walk_moments(closed, stops)
    assert len(stops) == len(moments) == len(old.polygons)
    walks = zip(cycles, [0, *stops[:-1]], stops, moments)
    for (cycle, a, b, (new_area, new_centroid)), poly, area, centroid in zip(
            walks, old.polygons, old.areas, old.centroids):
        walk = closed[a:b]
        # the walk closes on its first point bit for bit, so its edge
        # arrays need no roll
        assert bits(walk[-1]) == bits(walk[0])
        assert np.array_equal(walk[:-1], poly)
        assert bits(walk) == bits(oracles._cycle_polygon(arr.half_edges, cycle))
        assert bits(new_area) == bits(area)
        assert bits(new_centroid) == bits(centroid)
    for face in arr.bounded_faces:
        assert bits(face.rep_point) == bits(oracles.representative_point(arr, face))
    assert arr.components == old.components
    assert gauss_code(arr).base_sign == oracles.gauss_signs(arr)
    return arr


@pytest.mark.parametrize("family", list(FAMILIES))
def test_sign_wiring_matches_tangent_sort(family):
    signs = set()
    for curve in FAMILIES[family]():
        for variant in (curve, mirrored(curve), reversed_samples(curve)):
            arr = assert_same_wiring(variant)
            signs.update(v.sign for v in arr.vertices)
    assert signs == {-1, 1}


def annulus(n):
    return ClosedCurve(circle_curve(n=n).loops + circle_curve(n=n, radius=0.95).loops)


@pytest.mark.parametrize("curve, searched", [(serpentine_curve(strands=16, n=2048), 1),
                                             (annulus(512), 1)], ids=["serpentine", "annulus"])
def test_offset_search_faces_match(curve, searched):
    # the comb-shaped face and the annulus have their centroid outside
    # them, so their label points come from the inward-offset search
    arr = assert_same_wiring(curve)
    assert sum(f.rep_point is not f.centroid for f in arr.bounded_faces) == searched


@pytest.mark.parametrize(
    "curve",
    [trefoil_curve(n=512), eights_row(5), holed_curve()],
    ids=["trefoil", "eights_row5", "holed"],
)
def test_tangent_at_runs_twice_per_crossing(curve):
    # check_generic measures each crossing's two tangents; the arrangement
    # and the Gauss code reuse its sign
    with patch.object(
        ClosedCurve, "tangent_at", autospec=True, side_effect=ClosedCurve.tangent_at
    ) as spy:
        gauss_code(build_arrangement(curve))
    assert spy.call_count == 2 * len(check_generic(curve).double_points)
    assert spy.call_count > 0


@pytest.mark.parametrize(
    "curve",
    [trefoil_curve(n=512), holed_curve(), eights_row(3), gerono_curve(n=256, offset=0.3)]
    + [curve for curve, _ in generic_trig_loops(seed=5, count=6)],
)
def test_mirror_negates_every_gauss_sign(curve):
    arr, mirror = build_arrangement(curve), build_arrangement(mirrored(curve))
    signs = gauss_code(arr).base_sign
    assert gauss_code(mirror).base_sign == tuple(-s for s in signs)
    assert np.allclose(
        np.sort(face_areas(mirror)), np.sort(face_areas(arr)), rtol=1e-12, atol=0.0
    )
