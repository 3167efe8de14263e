"""Decision procedures and dimension formulas."""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest
from conftest import circle_curve, eights_row, trefoil_curve

from symplane.arrangement import build_arrangement, face_areas
from symplane.curves import resample, transform_curve
from symplane import moduli
from symplane.diagram import FaceCorrespondence, isotopy_match, symmetry_group
from symplane.errors import ValidationError
from symplane.moduli import (
    CATALOG,
    CurveSpec,
    Decision,
    Surface,
    Verdict,
    Witness,
    decision_report,
    labelled_equivalent,
    moduli_dimension,
    singularity_by_name,
    symplectically_equivalent,
)


def trefoil_orbit_labels(arr):
    """(petal labels in cyclic order, center label) from the symmetry group."""
    group = symmetry_group(arr)
    g = next(p for p in group.face_perms.tolist() if p != list(range(4)))
    center = next(j for j in range(4) if g[j] == j)
    start = next(j for j in range(4) if j != center)
    cycle = [start, g[start], g[g[start]]]
    return cycle, center


# --- dimension formulas ---------------------------------------------------


def test_catalog_dimensions():
    dims = {name: t.dimension for name, t in CATALOG.items()}
    assert dims == {
        "A2": 0,
        "NODE": 0,
        "TANGENT_MULTIGERM_STABLE": 0,
        "E12": 1,
        "W18": 2,
        "E24": 3,
    }


def test_singularity_lookup_is_case_insensitive():
    assert singularity_by_name("e12").dimension == 1
    assert singularity_by_name(" W18 ").dimension == 2
    with pytest.raises(ValidationError):
        singularity_by_name("E99")


def test_injective_curve_with_one_e24_point():
    spec = CurveSpec(r=1, unstable_points=(singularity_by_name("E24"),))
    assert moduli_dimension(spec) == 4


def test_generic_immersion_dimension_is_face_count():
    assert moduli_dimension(CurveSpec(r=4)) == 4


def test_bounded_surface_loses_one_dimension():
    spec = CurveSpec(r=2, surface=Surface.BOUNDED_SURFACE)
    assert moduli_dimension(spec) == 1


def test_bounded_surface_requires_a_face():
    with pytest.raises(ValidationError):
        CurveSpec(r=0, surface=Surface.BOUNDED_SURFACE)


def test_dimension_additive_and_monotone():
    e12 = singularity_by_name("E12")
    w18 = singularity_by_name("W18")
    assert moduli_dimension(CurveSpec(r=2, unstable_points=(e12, w18))) == 5
    dims = [moduli_dimension(CurveSpec(r=r)) for r in range(6)]
    assert dims == sorted(dims)
    both = moduli_dimension(CurveSpec(r=3, unstable_points=(e12, e12)))
    single = moduli_dimension(CurveSpec(r=3, unstable_points=(e12,)))
    assert both - single == e12.dimension


# --- labelled comparison --------------------------------------------------


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("decide", [labelled_equivalent, symplectically_equivalent])
def test_decision_tolerance_must_be_finite_and_positive(trefoil512, decide, bad):
    arr = build_arrangement(trefoil512)
    with pytest.raises(ValidationError, match="tolerance must be finite and positive"):
        decide(arr, arr, tol=bad)
    areas = face_areas(arr).copy()
    areas[1] = bad
    with pytest.raises(ValidationError, match="areas must be finite and positive"):
        decide(arr, arr, areas_a=areas)


def test_labelled_self_comparison_is_exact(trefoil512):
    arr = build_arrangement(trefoil512)
    d = labelled_equivalent(arr, arr)
    assert d.verdict is Verdict.EQUIVALENT
    assert d.witness.max_discrepancy == 0.0


def test_labelled_shear_image_equivalent(gerono256):
    arr = build_arrangement(gerono256)
    sheared = transform_curve(
        gerono256, lambda p: np.column_stack([p[:, 0] + 0.3 * np.sin(p[:, 1]), p[:, 1]])
    )
    brr = build_arrangement(resample(sheared, 512))
    d = labelled_equivalent(arr, brr)
    assert d.verdict is Verdict.EQUIVALENT


def test_labelled_scaled_copy_inequivalent(gerono256):
    arr = build_arrangement(gerono256)
    brr = build_arrangement(transform_curve(gerono256, lambda p: 2.0 * p))
    d = labelled_equivalent(arr, brr)
    assert d.verdict is Verdict.INEQUIVALENT
    # doubling lengths quadruples every face area
    assert d.witness.max_discrepancy > 1.0


def test_labelled_different_shapes_incomparable(circle512, gerono256):
    d = labelled_equivalent(build_arrangement(circle512), build_arrangement(gerono256))
    assert d.verdict is Verdict.INCOMPARABLE
    assert d.witness is None


def test_labelled_rejects_non_bijective_correspondence(circle512, gerono256):
    arr = build_arrangement(gerono256)
    bad = FaceCorrespondence(faces=(1, 1), vertices=(1,))
    with pytest.raises(ValidationError):
        labelled_equivalent(arr, arr, corr=bad)


def test_labelled_transitive_up_to_doubled_tolerance(circle512):
    arr = build_arrangement(circle512)
    base = face_areas(arr)
    tol = 1e-3
    shift = 0.9 * tol * base.max()
    va, vb, vc = base, base + shift, base + 2 * shift
    ab = labelled_equivalent(arr, arr, tol=tol, areas_a=va, areas_b=vb)
    bc = labelled_equivalent(arr, arr, tol=tol, areas_a=vb, areas_b=vc)
    ac = labelled_equivalent(arr, arr, tol=2 * tol, areas_a=va, areas_b=vc)
    assert ab.verdict is bc.verdict is ac.verdict is Verdict.EQUIVALENT


# --- unlabelled comparison ------------------------------------------------


def test_symplectic_circles_equivalent(circle512):
    arr = build_arrangement(circle512)
    other = build_arrangement(circle_curve(n=256, center=(3.0, 1.0)))
    d = symplectically_equivalent(arr, other)
    assert d.verdict is Verdict.EQUIVALENT


def test_symplectic_rotated_trefoil_equivalent(trefoil512):
    arr = build_arrangement(trefoil512)
    theta = 2 * np.pi / 3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    brr = build_arrangement(transform_curve(trefoil512, lambda p: p @ rot.T))
    d = symplectically_equivalent(arr, brr)
    assert d.verdict is Verdict.EQUIVALENT


def test_symplectic_cyclic_relabelling_equivalent(trefoil512):
    arr = build_arrangement(trefoil512)
    (p1, p2, p3), center = trefoil_orbit_labels(arr)
    va = np.empty(4)
    va[[p1, p2, p3]] = (1.0, 2.0, 3.0)
    va[center] = 0.5
    vb = np.empty(4)
    vb[[p1, p2, p3]] = (2.0, 3.0, 1.0)  # one step around the orbit
    vb[center] = 0.5
    d = symplectically_equivalent(arr, arr, areas_a=va, areas_b=vb)
    assert d.verdict is Verdict.EQUIVALENT
    assert d.witness.group_cycles != "id"


def test_symplectic_transposed_petals_inequivalent(trefoil512):
    arr = build_arrangement(trefoil512)
    (p1, p2, p3), center = trefoil_orbit_labels(arr)
    va = np.empty(4)
    va[[p1, p2, p3]] = (1.0, 2.0, 3.0)
    va[center] = 0.5
    vb = va.copy()
    vb[[p1, p2]] = va[[p2, p1]]  # swap two petals: not a cyclic move
    d = symplectically_equivalent(arr, arr, areas_a=va, areas_b=vb)
    assert d.verdict is Verdict.INEQUIVALENT


def test_symplectic_verdict_invariant_under_own_relabelling(trefoil512):
    arr = build_arrangement(trefoil512)
    group = symmetry_group(arr)
    (p1, p2, p3), center = trefoil_orbit_labels(arr)
    rng = np.random.default_rng(99)
    for _ in range(10):
        va = rng.uniform(0.5, 3.0, size=4)
        vb = rng.uniform(0.5, 3.0, size=4)
        if rng.uniform() < 0.5:
            g = group.face_perms[rng.integers(len(group.face_perms))]
            vb = np.array([va[g[j]] for j in range(4)])
        base = symplectically_equivalent(arr, arr, areas_a=va, areas_b=vb).verdict
        for g in group.face_perms:
            rel = np.array([vb[g[j]] for j in range(4)])
            again = symplectically_equivalent(arr, arr, areas_a=va, areas_b=rel).verdict
            assert again is base


def test_symplectic_matches_brute_force_oracle(trefoil512):
    arr = build_arrangement(trefoil512)
    allowed = set(map(tuple, symmetry_group(arr).face_perms.tolist()))
    rng = np.random.default_rng(4321)
    tol = 1e-3
    for _ in range(50):
        va = np.round(rng.uniform(0.5, 3.0, size=4), 2)
        if rng.uniform() < 0.6:
            sigma = list(permutations(range(4)))[rng.integers(24)]
            vb = np.array([va[sigma[j]] for j in range(4)])
        else:
            vb = np.round(rng.uniform(0.5, 3.0, size=4), 2)
        scale = max(va.max(), vb.max())
        oracle = any(
            all(abs(va[j] - vb[s[j]]) <= tol * scale for j in range(4))
            for s in permutations(range(4))
            if s in allowed
        )
        got = symplectically_equivalent(arr, arr, tol=tol, areas_a=va, areas_b=vb)
        assert (got.verdict is Verdict.EQUIVALENT) == oracle


def test_symplectic_enumerates_each_curve_once(trefoil512, monkeypatch):
    row = build_arrangement(eights_row(3))
    theta = 2 * np.pi / 3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    pairs = [
        (row, build_arrangement(eights_row(3, (2, 0, 1), (0, 64, 3)))),
        (build_arrangement(trefoil512),
         build_arrangement(transform_curve(trefoil512, lambda p: p @ rot.T))),
        (row, build_arrangement(trefoil512)),
    ]
    enumerate_readings = moduli._minimal_readings
    for a, b in pairs:
        calls = []
        monkeypatch.setattr(
            moduli, "_minimal_readings", lambda gc: calls.append(gc) or enumerate_readings(gc)
        )
        got = symplectically_equivalent(a, b)
        monkeypatch.undo()
        assert len(calls) == 2
        corr = isotopy_match(a, b)
        if corr is None:
            assert got.verdict is Verdict.INCOMPARABLE
            continue
        # the decision made from the public functions, each enumerating anew
        perms = symmetry_group(a).face_perms
        assert got == moduli._orbit_decision(a, b, corr, perms, got.tolerance, None, None)
        assert got.verdict is Verdict.EQUIVALENT


def test_decision_requires_witness_for_equivalence():
    with pytest.raises(ValidationError):
        Decision(Verdict.EQUIVALENT, 1e-3, None)


def test_decision_report_format():
    d = Decision(Verdict.EQUIVALENT, 1e-3, Witness((2, 3, 1), "(1 2 3)", 0.25))
    assert decision_report(d) == (
        "EQUIVALENT\n"
        "tolerance: 0.001 (relative)\n"
        "face map: 1->2 2->3 3->1\n"
        "symmetry applied: (1 2 3)\n"
        "max area discrepancy: 0.25\n"
    )


@pytest.mark.parametrize("build, message", [
    (lambda: moduli.LocalSingularityType("X", -1), "local moduli dimension must be non-negative"),
    (lambda: CurveSpec(r=-1), "face count must be non-negative"),
    (lambda: CurveSpec(r=1, unstable_points=("E24",)), "unstable points must be catalogued types"),
    (lambda: labelled_equivalent(*[build_arrangement(circle_curve(n=64))] * 2, areas_a=[1.0, 2.0]),
     r"area override has \(2,\) entries, arrangement has 1"),
], ids=["negative-dimension", "negative-r", "uncatalogued-point", "override-length"])
def test_moduli_inputs_are_refused_with_their_reason(build, message):
    with pytest.raises(ValidationError, match=message):
        build()
