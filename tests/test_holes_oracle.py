"""Hole assignment against the per-pair rule it replaced.

`build_arrangement` makes a negative walk (a component's outer
boundary) a hole of the smallest positive walk of another component
around that component's probe point. It winds each positive walk, in
one `winding_numbers` call on that walk's own edges, around only the
probes of other components inside its bounding box; the code it
replaced (`oracles.assemble_faces`) made one winding call per (negative
walk, positive walk) pair. Each face's member walks, area, centroid and
label point, and the label order, must agree bit for bit on nested and
side-by-side curves, and so must the face each component lies in.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import oracles
import pytest
from conftest import (
    circle_curve,
    concentric_rings,
    eights_row,
    gerono_curve,
    holed_curve,
    serpentine_curve,
    trefoil_curve,
)

from symplane import arrangement, geometry
from symplane.arrangement import build_arrangement
from symplane.curves import ClosedCurve


def loops(*curves):
    return ClosedCurve(tuple(loop for c in curves for loop in c.loops))


def rings(clockwise=(False, False, False)):
    radii = (3.0, 2.0, 1.0)
    return loops(*(circle_curve(n=96, radius=r, clockwise=cw) for r, cw in zip(radii, clockwise)))


NESTED = {
    "rings-ccw": rings(),
    "rings-outer-inner-cw": rings((True, False, True)),
    "ring-two-discs": loops(circle_curve(n=128, radius=3.0),
                            circle_curve(n=64, radius=0.8, center=(-1.2, 0.0)),
                            circle_curve(n=64, radius=0.8, center=(1.2, 0.0))),
    "ring-in-lobe": loops(gerono_curve(n=256, scale=3.0),
                          circle_curve(n=64, radius=0.4, center=(0.0, 1.8))),
    "holed-plus-ring": loops(holed_curve(), circle_curve(n=128, radius=4.0)),
}
# a 10 x 10 grid of circles: no probe lies in another circle's box
NESTED["circle-grid"] = loops(*(circle_curve(n=8, center=(3.0 * (i % 10), 3.0 * (i // 10)))
                                for i in range(100)))
# a vertical column of circles: every probe lies in every walk's x range
NESTED["circle-column"] = loops(*(circle_curve(n=16, center=(0.0, 3.0 * i)) for i in range(12)))
NESTED["ring-disc-grid"] = loops(circle_curve(n=256, radius=9.0),
                                 *(circle_curve(n=16, center=(3.0 * (i % 4) - 4.5, 3.0 * (i // 4) - 4.5))
                                   for i in range(16)))
NESTED["rings-six"] = loops(*(circle_curve(n=96, radius=r, clockwise=r % 2 == 0) for r in range(6, 0, -1)))
for k in range(1, 7):
    NESTED[f"row{k}"] = eights_row(k)
    NESTED[f"row{k}-moved"] = eights_row(k, order=range(k)[::-1], shifts=[37 * i for i in range(k)])


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name", list(NESTED))
@pytest.mark.parametrize("reverse", [False, True], ids=["", "reversed"])
def test_holes_match_per_pair_oracle(name, reverse):
    curve = NESTED[name]
    if reverse:
        curve = ClosedCurve(curve.loops[::-1])
    arr = build_arrangement(curve)
    old, old_walks, old_hosts = oracles.assemble_faces(arr)
    assert arr.hosts == old_hosts
    assert len(arr.faces) == len(old)
    for new, ref, ref_walks in zip(arr.faces, old, old_walks):
        assert new.is_outer == ref.is_outer
        walks = oracles.face_walks(new)
        assert len(walks) == len(ref_walks)
        assert all(bits(a) == bits(b) for a, b in zip(walks, ref_walks))
        assert bits(new.edges) == bits(ref.edges)
        assert bits(new.area) == bits(ref.area)
        if not new.is_outer:
            assert bits(new.centroid) == bits(ref.centroid)
            ref.rep_point, ref.clearance = oracles.representative_point(arr, ref)
            assert bits(new.rep_point) == bits(ref.rep_point)
            assert bits(new.clearance) == bits(ref.clearance)
    ref_order = sorted((f for f in old if not f.is_outer), key=lambda f: tuple(f.rep_point))
    assert [f.index for f in arr.bounded_faces] == [f.index for f in ref_order]


@pytest.mark.parametrize("clockwise", [(False, False, False), (True, False, True)])
def test_innermost_ring_is_a_hole_of_the_middle_ring(clockwise):
    # the innermost ring's probe lies in both outer rings' interior walks;
    # the smaller one, the middle ring's, takes it as a hole
    arr = build_arrangement(rings(clockwise))
    areas = sorted(f.area for f in arr.bounded_faces)
    assert [len(oracles.face_walks(f)) for f in sorted(arr.bounded_faces, key=lambda f: f.area)] == [1, 2, 2]
    assert np.allclose(areas, [np.pi, 3 * np.pi, 5 * np.pi], rtol=5e-3)


@pytest.mark.parametrize("curve, hole_calls", [
    (eights_row(6), 0),
    (trefoil_curve(n=512), 0),
    (NESTED["circle-grid"], 0),
    (NESTED["ring-two-discs"], 1),
    (NESTED["ring-disc-grid"], 1),
], ids=["eights_row6", "trefoil", "circle-grid", "ring-two-discs", "ring-disc-grid"])
def test_winding_calls_per_build(curve, hole_calls):
    # one winding_numbers call per positive walk whose box holds another
    # component's probe (none for one component, nor for figure-eights or
    # circles side by side), then one crossing-sign pass for every
    # centroid; no face here falls back to the offset search
    with patch.object(arrangement, "winding_numbers", wraps=geometry.winding_numbers) as spy, \
            patch.object(arrangement, "crossing_signs", wraps=geometry.crossing_signs) as signs:
        build_arrangement(curve)
    assert spy.call_count == hole_calls
    assert signs.call_count == 1


def label_searches(curve):
    """Build `curve`; for each face that the label search takes, return
    its edge count, its label point and the winding and distance passes
    the search made, in order, with their query points."""
    searches, passes = [], None
    offset_point = arrangement._offset_point

    def search(face):
        nonlocal passes
        passes = []
        point, gap = offset_point(face)
        searches.append((len(face.edges[0]), point, passes))
        passes = None
        return point, gap

    def pass_of(kind, routine):
        def spy(points, *edges):
            if passes is not None:
                passes.append((kind, np.array(points)))
            return routine(points, *edges)
        return spy

    with patch.object(arrangement, "_offset_point", search), \
            patch.object(arrangement, "winding_numbers", pass_of("wind", geometry.winding_numbers)), \
            patch.object(arrangement, "point_segment_distance",
                         pass_of("dist", geometry.point_segment_distance)):
        build_arrangement(curve)
    return searches


@pytest.mark.parametrize("curve, searched, fraction_passes", [
    (concentric_rings(30), 29, 1),
    (serpentine_curve(strands=16, n=2048), 1, 64),
], ids=["rings30", "serpentine"])
def test_label_search_passes_per_fraction(curve, searched, fraction_passes):
    # each offset fraction tries every edge's candidate in blocks of about
    # PAIR_CHUNK point-edge pairs, taken in edge order: one winding pass a
    # block, then one distance pass over the block's candidates inside;
    # a 128-edge annulus takes one block a fraction, the 2048-edge comb
    # ceil(2048 / 32) = 64
    searches = label_searches(curve)
    assert len(searches) == searched
    tried = []
    for n, point, passes in searches:
        block = geometry.PAIR_CHUNK // n
        assert -(-n // block) == fraction_passes
        assert [kind for kind, _ in passes] == ["wind", "dist"] * (len(passes) // 2)
        sizes = [len(points) for kind, points in passes if kind == "wind"]
        # no edge has zero length, so every fraction is n candidates
        fraction = [block] * (n // block) + [n % block] * (n % block > 0)
        fractions = -(-len(sizes) // fraction_passes)
        assert 1 <= fractions <= 4
        tried.append(fractions)
        assert sizes == (fraction * fractions)[:len(sizes)]
        for (_, block_points), (_, inside) in zip(passes[::2], passes[1::2]):
            assert inside.shape[1] == 1 and len(inside) <= len(block_points)
        # the last block holds the label point: the search stops there
        assert (passes[-2][1] == point).all(axis=1).any()
    assert max(tried) > 1
