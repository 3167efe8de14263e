"""Diagram layer: Gauss codes, canonical strings, matching, symmetry groups."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import circle_curve, eights_row, gerono_curve, trefoil_curve
from oracles import compose_perms, invert_perm

from symplane.arrangement import build_arrangement, face_areas
from symplane.curves import ClosedCurve, resample, transform_curve
from symplane.diagram import (
    MAX_GROUP_ORDER,
    GaussCode,
    canonical_code,
    gauss_code,
    isotopy_match,
    perm_cycles,
    symmetry_group,
)
from symplane.errors import ValidationError


def rotated(curve, theta, shift=(0.0, 0.0)):
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return transform_curve(curve, lambda p: p @ rot.T + np.asarray(shift))


def test_circle_code_empty():
    arr = build_arrangement(circle_curve(n=64))
    gc = gauss_code(arr)
    assert gc.labelled_sequences() == ((),)
    assert gc.base_sign == ()


def test_gauss_code_rejects_a_declared_vertex_that_no_loop_visits():
    # one vertex sign, but the only loop has no occurrences
    with pytest.raises(ValidationError, match="do not cover"):
        GaussCode(occ=((),), arcs=(((0, 1),),), base_sign=(1,), outer_face=1, num_faces=2,
                  components=(0,), hosts=(1,))


def test_gerono_code_single_crossing_consistent_signs(gerono256):
    arr = build_arrangement(gerono256)
    gc = gauss_code(arr)
    (seq,) = gc.labelled_sequences()
    assert [(label, slot) for label, slot, _ in seq] == [(1, 0), (1, 1)]
    assert seq[0][2] == seq[1][2]  # one crossing, one sign


def test_trefoil_code_visits_123123(trefoil512):
    arr = build_arrangement(trefoil512)
    gc = gauss_code(arr)
    (seq,) = gc.labelled_sequences()
    assert [label for label, _, _ in seq] == [1, 2, 3, 1, 2, 3]


def test_canonical_code_invariant_under_rigid_motion_and_resampling(trefoil512):
    base = canonical_code(gauss_code(build_arrangement(trefoil512)))
    moved = rotated(trefoil512, 1.1, shift=(3.0, -2.0))
    assert canonical_code(gauss_code(build_arrangement(moved))) == base
    dense = resample(trefoil512, 768)
    assert canonical_code(gauss_code(build_arrangement(dense))) == base


def test_canonical_code_separates_shapes(circle512, gerono256, trefoil512):
    codes = {
        canonical_code(gauss_code(build_arrangement(c)))
        for c in (circle512, gerono256, trefoil512)
    }
    assert len(codes) == 3


def test_canonical_code_sees_traversal_orientation():
    ccw = circle_curve(n=64)
    cw = circle_curve(n=64, clockwise=True)
    a = canonical_code(gauss_code(build_arrangement(ccw)))
    b = canonical_code(gauss_code(build_arrangement(cw)))
    assert a != b


def test_canonical_code_separates_nesting_patterns():
    # three concentric rings vs one ring holding two separate discs:
    # same loop count, no crossings, different face structure
    chain = ClosedCurve(
        tuple(circle_curve(n=96, radius=r).loops[0] for r in (3.0, 2.0, 1.0))
    )
    siblings = ClosedCurve(
        (
            circle_curve(n=96, radius=3.0).loops[0],
            circle_curve(n=96, radius=0.8, center=(-1.4, 0.0)).loops[0],
            circle_curve(n=96, radius=0.8, center=(1.4, 0.0)).loops[0],
        )
    )
    a = canonical_code(gauss_code(build_arrangement(chain)))
    b = canonical_code(gauss_code(build_arrangement(siblings)))
    assert a != b


def test_isotopy_match_with_rotated_copy(trefoil512):
    arr = build_arrangement(trefoil512)
    brr = build_arrangement(rotated(trefoil512, 2 * np.pi / 3))
    corr = isotopy_match(arr, brr)
    assert corr is not None
    assert sorted(corr.faces) == [1, 2, 3, 4]
    back = isotopy_match(brr, arr)
    assert back is not None
    # composing the two correspondences gives an element of the symmetry group
    composed = tuple(back.faces[corr.faces[j] - 1] - 1 for j in range(4))
    group = symmetry_group(arr)
    assert list(composed) in group.face_perms.tolist()


def test_isotopy_match_absent_for_different_shapes(circle512, gerono256):
    assert isotopy_match(build_arrangement(circle512), build_arrangement(gerono256)) is None


def test_symmetry_group_circle_trivial(circle512):
    g = symmetry_group(build_arrangement(circle512))
    assert g.order == 1
    assert g.degree == 1
    assert g.face_perms.tolist() == [[0]]


@pytest.mark.parametrize("name, order, r, v", [("trefoil512", 3, 4, 3), ("circle512", 1, 1, 0)])
def test_symmetry_group_rows_are_read_only_int_arrays(name, order, r, v, request):
    g = symmetry_group(build_arrangement(request.getfixturevalue(name)))
    assert g.face_perms.dtype == g.vertex_perms.dtype == np.intp
    assert g.face_perms.shape == (order, r) and g.vertex_perms.shape == (order, v)
    assert g.face_perms[0].tolist() == list(range(r))
    assert g.vertex_perms[0].tolist() == list(range(v))
    for perms in (g.face_perms, g.vertex_perms):
        with pytest.raises(ValueError, match="read-only"):
            perms[0] = perms[-1]


def test_symmetry_group_figure_eight_trivial(gerono256):
    # the lobe swap needs reversing the loop, which is not enumerated
    g = symmetry_group(build_arrangement(gerono256))
    assert g.order == 1


def test_symmetry_group_trefoil_cyclic_of_order_3(trefoil512):
    g = symmetry_group(build_arrangement(trefoil512))
    assert g.degree == 4
    assert g.marked == 3
    assert g.order == 3
    non_identity = [p for p in map(tuple, g.face_perms.tolist()) if p != tuple(range(4))]
    assert len(non_identity) == 2
    for p in non_identity:
        assert compose_perms(p, compose_perms(p, p)) == tuple(range(4))
        # three petals cycle, the middle face stays put
        moved = [j for j in range(4) if p[j] != j]
        assert len(moved) == 3
    # the two non-trivial rotations are mutually inverse
    assert invert_perm(non_identity[0]) == non_identity[1]


def test_symmetry_group_closure_explicitly(trefoil512):
    g = symmetry_group(build_arrangement(trefoil512))
    faces, verts = g.face_perms.tolist(), g.vertex_perms.tolist()
    elements = set(zip(map(tuple, faces), map(tuple, verts)))
    for f1, v1 in elements:
        assert (invert_perm(f1), invert_perm(v1)) in elements
        for f2, v2 in elements:
            assert (compose_perms(f1, f2), compose_perms(v1, v2)) in elements


def test_symmetric_trefoil_areas_fixed_by_group():
    # 513 samples: the sample set is exactly invariant under the 2pi/3 turn
    curve = trefoil_curve(n=513)
    arr = build_arrangement(curve)
    areas = face_areas(arr)
    for fperm in symmetry_group(arr).face_perms:
        permuted = np.array([areas[fperm[j]] for j in range(len(areas))])
        assert np.max(np.abs(permuted - areas)) < 1e-6 * areas.max()


def test_perm_cycles_formatting():
    assert perm_cycles((0, 1, 2)) == "id"
    assert perm_cycles((1, 2, 0, 3)) == "(1 2 3)"
    assert perm_cycles((1, 0, 3, 2)) == "(1 2)(3 4)"


def parse_cycles(text):
    """The cycles, as lists of 0-based points, of cycle notation over 1-based labels."""
    if text == "id":
        return []
    assert text[0] == "(" and text[-1] == ")"
    return [[int(x) - 1 for x in cycle.split(" ")] for cycle in text[1:-1].split(")(")]


def test_perm_cycles_round_trip():
    # random permutations with any number of fixed points, the identity
    # among them: the cycles rebuild the permutation, omit fixed points,
    # start at their smallest point and come in order of it
    rng = np.random.default_rng(13)
    for n in range(41):
        for _ in range(25):
            perm = np.arange(n)
            moved = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            perm[moved] = rng.permutation(moved)
            perm = tuple(perm.tolist())
            cycles = parse_cycles(perm_cycles(perm))
            rebuilt = list(range(n))
            for cycle in cycles:
                assert len(cycle) > 1 and cycle[0] == min(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    rebuilt[a] = b
            assert tuple(rebuilt) == perm
            assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        assert perm_cycles(tuple(range(n))) == "id"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_eights_row_group_permutes_loops(k):
    # interchangeable loops in the outer face: every loop order is a symmetry,
    # and a figure-eight alone has none
    g = symmetry_group(build_arrangement(eights_row(k)))
    assert g.order == math.factorial(k)
    assert g.degree == 2 * k
    assert g.marked == k


def test_eights_row_of_seven_group_has_order_5040():
    # 7! automorphisms found by the pruned reading search, listed as
    # cosets and checked to be a group inside symmetry_group
    g = symmetry_group(build_arrangement(eights_row(7)))
    assert g.order == math.factorial(7)
    assert g.face_perms[0].tolist() == list(range(14))
    assert g.vertex_perms[0].tolist() == list(range(7))
    assert len(np.unique(g.face_perms, axis=0)) == g.order
    assert 0 < len(g.generators) < 7


def test_eights_row_of_eight_group_is_listed_at_the_budget():
    # 8! = MAX_GROUP_ORDER elements, listed in coset blocks
    g = symmetry_group(build_arrangement(eights_row(8)))
    assert g.order == math.factorial(8) == MAX_GROUP_ORDER
    assert g.face_perms[0].tolist() == list(range(16))
    assert g.vertex_perms[0].tolist() == list(range(8))
    assert len(np.unique(np.hstack([g.face_perms, g.vertex_perms]), axis=0)) == g.order
    assert 0 < len(g.generators) < 8


@pytest.mark.parametrize(
    "order, shifts", [((1, 0), (0, 0)), ((2, 0, 1), (64, 3, 0)), ((3, 1, 0, 2), (5, 64, 0, 90))]
)
def test_eights_row_code_ignores_loop_order_and_basepoints(order, shifts):
    k = len(order)
    base = canonical_code(gauss_code(build_arrangement(eights_row(k))))
    moved = canonical_code(gauss_code(build_arrangement(eights_row(k, order, shifts))))
    assert moved == base
