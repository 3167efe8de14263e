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
from conftest import circle_curve, eights_row, gerono_curve, holed_curve, trefoil_curve

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
            ref.rep_point = oracles.representative_point(arr, ref)
            assert bits(new.rep_point) == bits(ref.rep_point)
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
