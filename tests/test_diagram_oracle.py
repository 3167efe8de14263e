"""Reading search and group check against the code they replaced.

`canonical_code`, `isotopy_match` and `symmetry_group` share one search
for the minimal readings, and the group axioms are checked while the
generators are found. Their results must equal the old separate loops
of `oracles` exactly: the same strings, the same correspondences, the
same sorted elements and the same generator indices. The pruned
depth-first `_minimal_readings` must return the same serial and the same
readings in the same order as the full enumeration it replaced, so the
correspondences, G and the equivalence decisions built on them agree.
The half-edge polylines, cut for all arcs of a loop at once, must equal
the per-arc cut and the old per-sample loop.
"""

from __future__ import annotations

import math

import numpy as np
import oracles
import pytest
from conftest import circle_curve, eights_row, gerono_curve, holed_curve, trefoil_curve

from symplane import diagram, moduli
from symplane.arrangement import build_arrangement, face_areas
from symplane.curves import ClosedCurve, transform_curve
from symplane.diagram import (
    _checked_generators,
    _group,
    _match,
    _minimal_readings,
    canonical_code,
    gauss_code,
    isotopy_match,
    symmetry_group,
)
from symplane.errors import InconsistencyError
from symplane.moduli import Verdict, symplectically_equivalent

ROWS = {
    1: ((0,), (37,)),
    2: ((1, 0), (5, 64)),
    3: ((2, 0, 1), (0, 64, 3)),
    4: ((3, 1, 0, 2), (64, 0, 7, 64)),
    5: ((4, 2, 0, 3, 1), (0, 64, 17, 3, 100)),
    6: ((5, 3, 1, 0, 4, 2), (64, 0, 9, 90, 3, 64)),
}


def turned(curve, theta):
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return transform_curve(curve, lambda p: p @ rot.T)


@pytest.fixture(scope="module")
def extra():
    """trefoil_curve(513) and the multi-loop rows, each beside a copy that
    is turned (trefoil) or reordered with moved basepoints (rows)."""
    pairs = [(trefoil_curve(n=513), turned(trefoil_curve(n=513), 2 * np.pi / 3))]
    for k, (order, shifts) in ROWS.items():
        if k > 4:
            continue
        pairs.append((eights_row(k), eights_row(k, order, shifts)))
    return [(build_arrangement(a), build_arrangement(b)) for a, b in pairs]


def test_canonical_code_and_group_match_separate_loops(arrangements, extra):
    arrs = list(arrangements) + [arr for pair in extra for arr in pair]
    for arr in arrs:
        gc = gauss_code(arr)
        assert canonical_code(gc) == oracles.canonical_code(gc)
        # face and vertex permutations, generators, degree and marked count
        assert symmetry_group(arr) == oracles.symmetry_group(arr)


def test_isotopy_match_pairs_first_minimal_readings(arrangements, extra):
    # neighbours in the list: mostly different shapes (None on both sides),
    # but the family repeats its few crossing patterns
    arrs = list(arrangements)
    pairs = list(zip(arrs, arrs[1:] + arrs[:1])) + list(extra)
    pairs += [(b, a) for a, b in extra]
    matched = 0
    for a, b in pairs:
        new, old = isotopy_match(a, b), oracles.isotopy_match(a, b)
        assert new == old  # the same face and vertex tuples, or both None
        matched += new is not None
    assert matched >= len(extra) * 2


def test_arc_points_match_per_sample_loop(arrangements, extra):
    # gerono_curve(256) has its crossing at parameters exactly 0 and 128, so
    # those samples are arc ends, not interior samples; a 1e-13 phase puts
    # the crossing a hair before samples 128 and 0, which are then dropped
    nudged = build_arrangement(gerono_curve(n=256, offset=1e-13))
    arrs = list(arrangements) + [arr for pair in extra for arr in pair] + [nudged]
    dropped = 0
    for arr in arrs:
        vpoints = [v.point for v in arr.vertices]
        for loop, per in enumerate(arr.passages):
            for k, (t0, v0) in enumerate(per):
                t1, v1 = per[(k + 1) % len(per)]
                args = (arr.curve, loop, t0, t1, vpoints[v0], vpoints[v1])
                new = arr.half_edges[arr.loop_arcs[loop][k]].points
                for old in (oracles.arc_points(*args), oracles._arc_points(*args)):
                    assert new.shape == old.shape
                    assert new.tobytes() == old.tobytes()
                # arcs of an n-sample loop hold every sample strictly inside
                # them, so a shortfall is a sample dropped at a crossing
                n = len(arr.curve.loops[loop])
                span = (t1 - t0) % n or n
                inside = int(np.ceil(t0 + span - 1e-9)) - int(np.floor(t0)) - 1
                dropped += inside - (len(new) - 2)
    assert dropped > 0


@pytest.fixture(scope="module")
def trefoil_elements(trefoil512):
    group = symmetry_group(build_arrangement(trefoil512))
    return list(zip(group.face_perms, group.vertex_perms))


def test_checked_generators_of_trefoil(trefoil_elements):
    assert len(trefoil_elements) == 3
    assert _checked_generators(trefoil_elements) == (1,)


@pytest.mark.parametrize("drop", [0, 1, 2], ids=["identity", "middle", "last"])
def test_checked_generators_rejects_a_dropped_element(trefoil_elements, drop):
    elements = trefoil_elements[:drop] + trefoil_elements[drop + 1:]
    with pytest.raises(InconsistencyError):
        _checked_generators(elements)


def test_checked_generators_rejects_empty_set():
    with pytest.raises(InconsistencyError, match="identity"):
        _checked_generators([])


# --- pruned reading search against the full enumeration -------------------


def shrunk(curve, loop, slot, factor=0.8):
    """curve with one loop scaled by factor about the centre of its slot."""
    centre = np.array([3.0 * slot, 0.0])
    loops = list(curve.loops)
    loops[loop] = centre + factor * (loops[loop] - centre)
    return ClosedCurve(tuple(loops))


def scaled_row(scales, order, shifts):
    """Figure-eights of the given scales, loop i at slot order[i]: no two
    loops have equal areas, so one symmetry aligns a reordered copy."""
    eight = gerono_curve(n=128).loops[0]
    return ClosedCurve(tuple(
        scales[slot] * np.roll(eight, -s, axis=0) + (3.0 * slot, 0.0)
        for slot, s in zip(order, shifts)
    ))


@pytest.fixture(scope="module")
def rows():
    """Pairs (a, b, verdict): every eights_row(k), k <= 6, against its
    reordered and basepoint-shifted copy (EQUIVALENT; all k! elements
    align) and against that copy with one loop shrunk (INEQUIVALENT;
    several elements tie for closest when k > 1); then a row of four
    distinct scales against a reordered copy (EQUIVALENT; one element
    aligns) and against a shrunk one (INEQUIVALENT; two tie)."""
    out = []
    for k, (order, shifts) in ROWS.items():
        base = build_arrangement(eights_row(k))
        moved = eights_row(k, order, shifts)
        out.append((base, build_arrangement(moved), Verdict.EQUIVALENT))
        out.append((base, build_arrangement(shrunk(moved, 0, order[0])), Verdict.INEQUIVALENT))
    scales = (1.0, 0.9, 0.8, 0.7)
    order, shifts = ROWS[4]
    base = build_arrangement(scaled_row(scales, range(4), (0, 0, 0, 0)))
    moved = scaled_row(scales, order, shifts)
    out.append((base, build_arrangement(moved), Verdict.EQUIVALENT))
    out.append((base, build_arrangement(shrunk(moved, 1, order[1])), Verdict.INEQUIVALENT))
    return out


@pytest.fixture(scope="module")
def enumerated():
    """oracles._minimal_readings, once per distinct Gauss code."""
    cache = {}

    def readings(gc):
        if gc not in cache:
            cache[gc] = oracles._minimal_readings(gc)
        return cache[gc]

    return readings


def test_minimal_readings_match_full_enumeration(arrangements, rows, enumerated):
    ring, eight = holed_curve().loops
    # read first, the circle in a lobe of the large figure-eight leaves the
    # header unknown and its chunk equals that of its sibling, the free
    # circle, which labels the outer face 1 and wins; the lobe circle's
    # readings label it 3
    enclosed = ClosedCurve((circle_curve(n=128, radius=0.8, center=(0.0, 2.0)).loops[0],
                            circle_curve(n=128, center=(10.0, 0.0)).loops[0],
                            gerono_curve(n=256, scale=4.0).loops[0]))
    # three minimal rotations per loop: search order differs from the
    # enumeration order (loop order first, then rotations) until sorted
    tref = trefoil_curve(n=192).loops[0]
    trefoils = ClosedCurve((tref, np.roll(tref, 32, axis=0) + (7.0, 0.0), tref + (14.0, 0.0)))
    extra = [ClosedCurve((eight, ring)), enclosed, trefoils]
    arrs = list(arrangements) + [build_arrangement(c) for c in extra]
    arrs += [arr for a, b, _ in rows for arr in (a, b)]
    first_outer = []
    for arr in arrs:
        gc = gauss_code(arr)
        serial, readings = _minimal_readings(gc)
        old_serial, old_readings = enumerated(gc)
        assert serial == old_serial
        assert len(readings) == len(old_readings)
        for (faces, verts), (old_faces, old_verts) in zip(readings, old_readings):
            # the same numbering, assigned in the same order
            assert list(faces.items()) == list(old_faces.items())
            assert list(verts.items()) == list(old_verts.items())
        first_outer.append(any(gc.outer_face in arc for arc in gc.arcs[0]))
    assert not all(first_outer)


def tied(a, b, decision, perms):
    """How many elements of perms give the decision's witness discrepancy."""
    va, vb = face_areas(a), face_areas(b)
    corr = isotopy_match(a, b)
    discs = [max(abs(va[j] - vb[corr.faces[g[j]] - 1]) for j in range(a.r)) for g in perms]
    if decision.verdict is Verdict.EQUIVALENT:
        return sum(d <= decision.tolerance * max(va.max(), vb.max()) for d in discs)
    return discs.count(decision.witness.max_discrepancy)


def test_match_group_and_decisions_match_full_enumeration(rows, enumerated, monkeypatch):
    ties = {Verdict.EQUIVALENT: 0, Verdict.INEQUIVALENT: 0}
    for a, b, verdict in rows:
        old_a, old_b = enumerated(gauss_code(a)), enumerated(gauss_code(b))
        corr = isotopy_match(a, b)
        assert corr == _match(a, b, old_a, old_b)
        assert isotopy_match(b, a) == _match(b, a, old_b, old_a)
        group = symmetry_group(a)
        assert group == _group(a, old_a[1])
        assert group.order == math.factorial(len(a.curve.loops))
        got = symplectically_equivalent(a, b)
        with monkeypatch.context() as m:
            m.setattr(moduli, "_minimal_readings", enumerated)
            assert symplectically_equivalent(a, b) == got
        assert got.verdict is verdict
        ties[verdict] += tied(a, b, got, group.face_perms) > 1
    # several elements align, or tie for closest, on the pairs of k > 1
    # congruent loops and on the shrunk scaled row
    assert ties == {Verdict.EQUIVALENT: 5, Verdict.INEQUIVALENT: 6}


@pytest.mark.parametrize("k, reads", [(4, 128), (5, 650), (6, 3912)])
def test_congruent_row_reads_2e_k_factorial_chunks(k, reads, monkeypatch):
    # each surviving node reads its 2 (k - d) children and keeps one
    # rotation of every remaining loop: 2 * sum_j k!/j!, j < k, chunk reads
    calls = []
    chunk = diagram._chunk
    monkeypatch.setattr(diagram, "_chunk", lambda *args: calls.append(1) or chunk(*args))
    _, readings = _minimal_readings(gauss_code(build_arrangement(eights_row(k))))
    assert len(calls) == reads
    assert reads == 2 * sum(math.factorial(k) // math.factorial(j) for j in range(k))
    assert len(readings) == math.factorial(k)
