"""Reading search and group check against the code they replaced.

`canonical_code`, `isotopy_match` and `symmetry_group` share one search
for the minimal readings, and G is listed in coset blocks of one
permutation array, whose axioms are checked while its generators are
found. On diagrams of one component their results must equal the old
separate loops of `oracles` exactly: the same strings, the same
correspondences, the same sorted elements and the same generator
indices. A diagram of several components is read component by component
down its nesting forest, and a component of several loops in crossing
order from its outer face; the serial of either may differ from the one
the whole-diagram search finds (`oracles.pruned_readings`, the full
enumeration and `oracles.tie_listing_readings`), but equal and unequal
codes must agree with it on every pair, and |G| and the sorted elements
of G must equal its. The first minimal reading must be the first, in
(loop order, rotations) order, of all readings that read the canonical
serial (`oracles.target_readings` where the serial moved), and both
compare decisions, face maps included, must equal those made from it;
where a serial moved, the verdicts must equal the whole search's. The
array-pass orbit decision must equal the loop it replaced.
The half-edge polylines, cut for all arcs of a loop at once, must equal
the per-arc cut and the old per-sample loop.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import oracles
import pytest
from conftest import (
    circle_curve,
    circles_row,
    eights_row,
    flower_curve,
    gerono_curve,
    holed_curve,
    inner_chain,
    necklace_curve,
    trefoil_curve,
)
from test_golden import INPUTS

from symplane import diagram, moduli
from symplane.arrangement import build_arrangement, face_areas
from symplane.curves import ClosedCurve, check_generic, load_curve, transform_curve
from symplane.diagram import (
    MAX_GROUP_ORDER,
    _checked_generators,
    _correspondence,
    _generator_rows,
    _group,
    _minimal_readings,
    canonical_code,
    gauss_code,
    isotopy_match,
    symmetry_group,
)
from symplane.errors import FormatError, GenericityError, InconsistencyError, ValidationError
from symplane.moduli import (
    DEFAULT_AREA_TOL,
    Decision,
    Verdict,
    labelled_equivalent,
    symplectically_equivalent,
)

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
        assert_same_group(symmetry_group(arr), oracles.symmetry_group(arr))


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
            per_loop = oracles.loop_arcs(arr.curve.loops[loop], per, arr.vertices) if per else []
            for k, (t0, v0) in enumerate(per):
                t1, v1 = per[(k + 1) % len(per)]
                args = (arr.curve, loop, t0, t1, vpoints[v0], vpoints[v1])
                new = arr.half_edges[arr.loop_arcs[loop][k]].points
                for old in (per_loop[k], oracles.arc_points(*args), oracles._arc_points(*args)):
                    assert new.shape == old.shape
                    assert new.tobytes() == old.tobytes()
                # arcs of an n-sample loop hold every sample strictly inside
                # them, so a shortfall is a sample dropped at a crossing
                n = len(arr.curve.loops[loop])
                span = (t1 - t0) % n or n
                inside = int(np.ceil(t0 + span - 1e-9)) - int(np.floor(t0)) - 1
                dropped += inside - (len(new) - 2)
    assert dropped > 0


def assert_same_group(got, want):
    """Two groups hold the same integer rows, field by field, and the same
    generator indices as Python ints."""
    for field in ("face_perms", "vertex_perms"):
        rows = getattr(got, field)
        assert np.issubdtype(rows.dtype, np.integer)
        assert np.array_equal(rows, getattr(want, field))
    assert got.generators == want.generators
    assert all(type(i) is int for i in got.generators)


@pytest.fixture(scope="module")
def trefoil_rows(trefoil512):
    """The sorted element rows of the trefoil's G: the face permutation,
    then r + the vertex permutation."""
    group = symmetry_group(build_arrangement(trefoil512))
    return np.hstack([group.face_perms, group.degree + group.vertex_perms])


def test_checked_generators_of_trefoil(trefoil_rows):
    assert len(trefoil_rows) == 3
    assert _checked_generators(trefoil_rows) == (1,)


@pytest.mark.parametrize("drop, error", [(0, "identity"), (1, "not closed"), (2, "not closed")],
                         ids=["identity", "middle", "last"])
def test_checked_generators_rejects_a_dropped_element(trefoil_rows, drop, error):
    with pytest.raises(InconsistencyError, match=error):
        _checked_generators(np.delete(trefoil_rows, drop, axis=0))


def test_checked_generators_rejects_empty_set():
    with pytest.raises(InconsistencyError, match="identity"):
        _checked_generators(np.zeros((0, 7), dtype=np.intp))


def test_checked_generators_rejects_a_repeated_row(trefoil_rows):
    # a set of the rows would hide the copy
    for i in range(3):
        rows = np.insert(trefoil_rows, i, trefoil_rows[i], axis=0)
        with pytest.raises(InconsistencyError, match="repeats"):
            _checked_generators(rows)


def test_checked_generators_rejects_a_row_that_breaks_closure(trefoil_rows):
    # swapping two petals (faces and crossings) with the rotations spans S_3
    ident = trefoil_rows[0]
    petals = [j for j in range(4) if trefoil_rows[1][j] != j]
    swap = ident.copy()
    swap[petals[:2]] = petals[1::-1]
    crossings = ident[4:]
    swap[4:] = crossings[[1, 0, 2]]
    for rows in (np.vstack([trefoil_rows, swap]), np.vstack([swap, trefoil_rows])):
        with pytest.raises(InconsistencyError, match="not closed"):
            _checked_generators(rows)


def test_checked_generators_rejects_a_row_that_is_no_permutation(trefoil_rows):
    rows = trefoil_rows.copy()
    rows[1, 0] = rows[1, 1]
    with pytest.raises(InconsistencyError, match="not a permutation"):
        _checked_generators(rows)


def assert_group_matches_closure(arr, found):
    """`_group` equals the tuple closure it replaced, field for field, and
    holds integer arrays."""
    group = _group(arr, gauss_code(arr), found)
    assert_same_group(group, oracles._group(arr, found))
    return group


@pytest.mark.parametrize("row, ks", [(eights_row, range(1, 8)), (circles_row, range(1, 7))],
                         ids=["eights", "circles"])
def test_group_matches_closure_on_rows(row, ks):
    for k in ks:
        arr = build_arrangement(row(k))
        group = assert_group_matches_closure(arr, _minimal_readings(gauss_code(arr)))
        assert group.order == math.factorial(k)


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


def items(reading):
    """A (faces, verts) reading as item lists: the numbering and its order."""
    return [list(labels.items()) for labels in reading]


def assert_matches_whole_search(gc, found, serial, readings):
    """|G| is the count of minimal readings of the whole-diagram search.
    The first minimal reading is the first, in (loop order, rotations)
    order, of the readings that read the canonical serial: the search's
    own where the serials agree, which is always so for one loop, and
    otherwise those `oracles.target_readings` lists, as many as |G|.
    Returns those readings and whether the serials agree."""
    assert found.order == len(readings)
    same = found.serial == serial
    if not same:
        assert len(gc.occ) > 1
        readings = oracles.target_readings(gc, found.serial)
        assert len(readings) == found.order
    # the same numbering, assigned in the same order
    assert items(found.first) == items(readings[0])
    return readings, same


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
    first_outer, agree = [], 0
    for arr in arrs:
        gc = gauss_code(arr)
        agree += assert_matches_whole_search(gc, _minimal_readings(gc), *enumerated(gc))[1]
        first_outer.append(any(gc.outer_face in arc for arc in gc.arcs[0]))
    assert not all(first_outer)
    # the free circle is read before the figure-eight that holds the other
    assert agree == len(arrs) - 1


def tied(a, b, decision, perms):
    """How many elements of perms give the decision's witness discrepancy."""
    va, vb = face_areas(a), face_areas(b)
    corr = isotopy_match(a, b)
    discs = [max(abs(va[j] - vb[corr.faces[g[j]] - 1]) for j in range(a.r)) for g in perms]
    if decision.verdict is Verdict.EQUIVALENT:
        return sum(d <= decision.tolerance * max(va.max(), vb.max()) for d in discs)
    return discs.count(decision.witness.max_discrepancy)


def oracle_decisions(a, b, readings_a, readings_b):
    """Both compare decisions as made from the listed minimal readings of
    a and b, (serial, readings) each, by the old loop over G."""
    (sa, ra), (sb, rb) = readings_a, readings_b
    if sa != sb:
        return Decision(Verdict.INCOMPARABLE, DEFAULT_AREA_TOL), Decision(
            Verdict.INCOMPARABLE, DEFAULT_AREA_TOL)
    corr = _correspondence(a, b, *ra[0], *rb[0])
    perms = oracles.tie_listing_group(a, ra).face_perms
    return tuple(oracles.orbit_decision(a, b, corr, g, DEFAULT_AREA_TOL, None, None)
                 for g in ((tuple(range(a.r)),), perms))


def test_match_group_and_decisions_match_full_enumeration(rows, enumerated):
    ties = {Verdict.EQUIVALENT: 0, Verdict.INEQUIVALENT: 0}
    for a, b, verdict in rows:
        old_a, old_b = enumerated(gauss_code(a)), enumerated(gauss_code(b))
        corr = isotopy_match(a, b)
        assert corr == _correspondence(a, b, *old_a[1][0], *old_b[1][0])
        assert isotopy_match(b, a) == _correspondence(b, a, *old_b[1][0], *old_a[1][0])
        group = symmetry_group(a)
        assert_same_group(group, oracles.tie_listing_group(a, old_a[1]))
        assert group.order == math.factorial(len(a.curve.loops))
        got = symplectically_equivalent(a, b)
        assert (labelled_equivalent(a, b), got) == oracle_decisions(a, b, old_a, old_b)
        assert got.verdict is verdict
        ties[verdict] += tied(a, b, got, group.face_perms) > 1
    # several elements align, or tie for closest, on the pairs of k > 1
    # congruent loops and on the shrunk scaled row
    assert ties == {Verdict.EQUIVALENT: 5, Verdict.INEQUIVALENT: 6}


@pytest.mark.parametrize("k, reads", [(4, 40), (5, 70), (6, 112), (7, 168), (8, 240)])
def test_congruent_row_reads_cubic_chunks(k, reads, monkeypatch):
    # the search over all loops at once, which the forest replaced: depth d
    # of the first path reads its 2 (k - d) children; each of its k - 1
    # nodes above the leaves then enters one more child, 2 j (j + 1) reads
    # below it for j = k - d loops left, whose first leaf gives an
    # automorphism and jumps back; the found orbit then covers the rest:
    # sum_{j <= k} j (j + 1) = k (k + 1) (k + 2) / 3 chunk reads
    calls = []
    chunk = oracles._chunk
    monkeypatch.setattr(oracles, "_chunk", lambda *args: calls.append(1) or chunk(*args))
    found = oracles.pruned_readings(gauss_code(build_arrangement(eights_row(k))))
    assert len(calls) == reads == k * (k + 1) * (k + 2) // 3
    assert len(found.automorphisms) == k - 1
    assert found.order == math.factorial(k)


def count_work(monkeypatch, curve, cap):
    """The chunk reads and pair map applications of one `_minimal_readings`
    call, and its result; more than `cap` applications raise at once."""
    reads, applied = [], []
    chunk, apply = diagram._chunk, diagram._apply

    def counted(*args):
        applied.append(1)
        if len(applied) > cap:
            raise AssertionError(f"more than {cap} pair map applications")
        return apply(*args)

    monkeypatch.setattr(diagram, "_chunk", lambda *args: reads.append(1) or chunk(*args))
    monkeypatch.setattr(diagram, "_apply", counted)
    try:
        found = _minimal_readings(gauss_code(build_arrangement(curve)))
    finally:
        monkeypatch.setattr(diagram, "_chunk", chunk)
        monkeypatch.setattr(diagram, "_apply", apply)
    return len(reads), len(applied), found


def trefoils_row(k):
    """k trefoils 7 apart, each from another basepoint: |G| = k! 3^k."""
    loop = trefoil_curve(n=192).loops[0]
    return ClosedCurve(tuple(np.roll(loop, 17 * i, axis=0) + (7.0 * i, 0.0) for i in range(k)))


GROWTH = {  # curve of k; chunk reads, pair map applications, |G| and pair map entries at k
    # each figure-eight is searched at its two basepoints, then read once;
    # k - 1 swaps of neighbours hold two loops each
    "eights": (eights_row, lambda k: (3 * k, k, math.factorial(k), 2 * (k - 1))),
    # a crossing-free loop has one basepoint
    "circles": (circles_row, lambda k: (2 * k, k, math.factorial(k), 2 * (k - 1))),
    "nested-rings": (lambda k: nested_rings(k), lambda k: (2 * k, k, 1, 0)),
    "ring-of-discs": (lambda k: ring_of_discs(k, disc=0.2),
                      lambda k: (2 * k + 2, k + 1, math.factorial(k), 2 * (k - 1))),
    # six basepoints each, three of them tied: every trefoil's least image
    # is taken on its own, not over the 3^k combinations; its two turns
    # hold it alone
    "trefoils": (trefoils_row,
                 lambda k: (7 * k, 9 * k, math.factorial(k) * 3**k, 2 * (k - 1) + 2 * k)),
    # 4k roots, two of the centre's read down, k(k + 1) chunks each (2 per
    # petal left at each level), and the canonical reading once; the
    # forest places each of the k tied readings, k + 1 pairs each. One
    # component: its k - 1 turns hold all k + 1 loops
    "flower": (flower_curve, lambda k: (2 * k * k + 7 * k + 1, k * (k + 3), k, k * k - 1)),
    # 4k roots, two of them read down, 8 chunks at each level (two loops
    # cross those read, 4 basepoints each) but the last, which has one loop
    # left, and the canonical reading once; k - 1 turns of all k loops
    "necklace": (necklace_curve, lambda k: (21 * k - 24, k * (k + 2), k, k * (k - 1))),
}


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_forest_work_grows_linearly(name, monkeypatch):
    # a return to reading whole loop orders (k^3 chunks for a row, k! for
    # nested rings or for the petal orders of a flower) or to a least image
    # over all tied readings fails here at once instead of timing out. A
    # flower or a necklace is one component: their chunk reads grow as k^2
    # and k, and their pair map applications as k^2. A pair map holds only
    # the loops its readings hold, so a row's maps hold 2(k - 1) entries,
    # not the k^2 of maps over every loop
    curve, expected = GROWTH[name]
    for k in range(4, 13):
        reads, applied, found = count_work(monkeypatch, curve(k), cap=20 * k)
        entries = sum(map(len, found.automorphisms))
        assert (reads, applied, found.order, entries) == expected(k), k


def test_flower_of_crossing_petals_work_grows_quadratically(monkeypatch):
    # from k = 13 neighbouring petal centres are 2 sin(pi / k) < 0.5
    # apart, so each petal crosses its two neighbours (V = 4k, not 2k)
    # and GROWTH's flower count no longer holds. These chunk reads are
    # counted, not derived: the step from k to k + 1 grows by 12 each
    # time. Pair map applications, |G| and pair map entries keep the
    # flower's k(k + 3), k and k^2 - 1
    for k in range(13, 25):
        reads, applied, found = count_work(monkeypatch, flower_curve(k), cap=k * (k + 3))
        entries = sum(map(len, found.automorphisms))
        assert (reads, applied, found.order, entries) == (
            6 * k * k - 11 * k + 109, k * (k + 3), k, k * k - 1), k


def chain_of_circles():
    """Four circles in a chain, each crossing the next twice, given in an
    order that makes `_search` drop a path: the unit circle, a petal on
    its right, a small circle crossing that petal, and a petal on its left."""
    return ClosedCurve((
        circle_curve(n=128).loops[0],
        circle_curve(n=64, radius=0.3, center=(1.0, 0.0), phase=0.3).loops[0],
        circle_curve(n=48, radius=0.12, center=(1.3, 0.0), phase=0.1).loops[0],
        circle_curve(n=64, radius=0.3, center=(-1.0, 0.0), phase=0.7).loops[0],
    ))


def test_search_drops_a_path_above_the_best_serial(monkeypatch):
    # a later root's path rises above the best serial found and is dropped
    # there: 52 chunk reads, 64 if each root were read down in full
    curve = chain_of_circles()
    reads, applied, found = count_work(monkeypatch, curve, cap=20)
    assert (reads, applied, found.order, sum(map(len, found.automorphisms))) == (52, 14, 2, 4)
    serial, readings = oracles.crossing_order_readings(gauss_code(build_arrangement(curve)))
    assert (found.serial, found.order) == (serial, len(readings))


@pytest.mark.parametrize("name", ["circles", "eights", "flower", "ring-of-discs"])
def test_codes_and_matches_derive_no_group(name, monkeypatch):
    # G stays in the forest's shape until it is listed: a code or a match
    # makes no swap of equal siblings and computes no factorial. The only
    # pair maps made are a flower's one turn, found by its search, and its
    # k - 1 tie maps, in each of the three reading searches
    curve, _ = GROWTH[name]
    made, factorials = [], []
    pair_map, factorial = diagram._pair_map, math.factorial
    monkeypatch.setattr(diagram, "_pair_map", lambda *args: made.append(1) or pair_map(*args))
    monkeypatch.setattr(math, "factorial", lambda n: factorials.append(n) or factorial(n))
    for k in range(4, 13):
        arr = build_arrangement(curve(k))
        made.clear()
        canonical_code(gauss_code(arr))
        assert isotopy_match(arr, arr) is not None
        assert (len(made), factorials) == (3 * k if name == "flower" else 0, []), k
    monkeypatch.undo()
    arr = build_arrangement(curve(4))
    assert_group_matches_closure(arr, _minimal_readings(gauss_code(arr)))


def test_golden_codes_agree_with_whole_search():
    # rings12 and flower12 are left out: the whole-diagram search reads
    # every order of the rings, and of the petals, which takes minutes
    codes = {}
    for path in sorted(INPUTS.glob("*.curve")):
        if path.stem in ("rings12", "flower12"):
            continue
        try:
            gc = gauss_code(build_arrangement(load_curve(path)))
        except (FormatError, GenericityError, ValidationError):  # unreadable or not generic
            continue
        codes[path.stem] = (canonical_code(gc), oracles.pruned_readings(gc).serial)
    assert len(codes) >= 15
    for a, b in combinations(codes.values(), 2):
        assert (a[0] == b[0]) == (a[1] == b[1])


@pytest.mark.parametrize("k", range(1, 7))
def test_eights_row_group_matches_whole_search(k):
    arr = build_arrangement(eights_row(k))
    gc = gauss_code(arr)
    found = _minimal_readings(gc)
    whole = oracles.pruned_readings(gc)
    assert (found.serial, found.order) == (whole.serial, whole.order)
    assert items(found.first) == items(whole.first)
    serial, readings = oracles.tie_listing_readings(gc)
    assert_same_group(symmetry_group(arr), oracles.tie_listing_group(arr, readings))


# --- automorphism-pruned search against the tie-listing search ------------


def assert_search_matches_tie_listing(arr):
    """|G|, sorted elements and generators equal those of the whole-diagram
    search that listed every tie, and G equals the tuple closure of the
    automorphisms found; the first reading is the first that reads the
    canonical serial (`assert_matches_whole_search`). Returns the tie
    listing's (serial, readings), the canonical serial with the readings
    that read it, and whether the two serials agree."""
    gc = gauss_code(arr)
    found = _minimal_readings(gc)
    serial, readings = oracles.tie_listing_readings(gc)
    listed, same = assert_matches_whole_search(gc, found, serial, readings)
    group = assert_group_matches_closure(arr, found)
    assert_same_group(group, oracles.tie_listing_group(arr, readings))
    return (serial, readings), (found.serial, listed), same


def assert_pairs_match_tie_listing(pairs):
    """Each pair against the whole-diagram search: codes equal exactly when
    its serials are. Both compare decisions, face map, symmetry applied
    and discrepancy included, equal those made from the first readings
    that read the canonical serials and from the group they list; where
    both serials are the search's, those are its own decisions. Where a
    serial moved, the verdicts must still be the ones the search's
    readings give. Returns how many pairs had a serial that moved, and
    how many of those print another decision than the search's."""
    moved = changed = 0
    for a, b in pairs:
        old_a, new_a, same_a = assert_search_matches_tie_listing(a)
        old_b, new_b, same_b = assert_search_matches_tie_listing(b)
        equal = canonical_code(gauss_code(a)) == canonical_code(gauss_code(b))
        assert equal == (old_a[0] == old_b[0])
        decisions = (labelled_equivalent(a, b), symplectically_equivalent(a, b))
        assert decisions == oracle_decisions(a, b, new_a, new_b)
        old = oracle_decisions(a, b, old_a, old_b)
        assert [d.verdict for d in decisions] == [d.verdict for d in old]
        if not (same_a and same_b):
            moved += 1
            changed += decisions != old
    return moved, changed


def test_arrangements_match_tie_listing(arrangements):
    # neighbours: mostly INCOMPARABLE, some with a common crossing pattern
    arrs = list(arrangements)
    assert_pairs_match_tie_listing(zip(arrs, arrs[1:] + arrs[:1]))


def nested_rings(k):
    """k concentric rings of radii 1 + 0.05 i: G is trivial."""
    return ClosedCurve(tuple(circle_curve(n=64, radius=1.0 + 0.05 * i).loops[0]
                             for i in range(k)))


def ring_of_discs(k, disc=0.5):
    """A ring of radius 3 holding k discs of radius `disc` on a circle of radius 1.8."""
    discs = tuple(circle_curve(n=48, radius=disc, center=(1.8 * np.cos(2 * np.pi * i / k),
                                                          1.8 * np.sin(2 * np.pi * i / k))).loops[0]
                  for i in range(k))
    return ClosedCurve((circle_curve(n=128, radius=3.0).loops[0],) + discs)


PETALS = [(perm, shift) for perm in ((0, 1, 2), (1, 2, 0), (0,), (1, 2)) for shift in (0, 171)]


def petal_circles(perm, shift):
    """trefoil_curve(513), its samples rolled by shift, with a circle in each
    petal that perm lists, in that order. With three circles, the first
    minimal reading in (loop order, rotations) order is not the first one
    the search reaches; with one or two, only one of the trefoil's three
    tied readings holds the least codes, and it must be read there."""
    tref = trefoil_curve(n=513)
    petals = [f.centroid for f in build_arrangement(tref).faces
              if not f.is_outer and np.linalg.norm(f.centroid) > 0.5]
    circles = tuple(circle_curve(n=32, radius=0.2, center=petals[i]).loops[0] for i in perm)
    return ClosedCurve((np.roll(tref.loops[0], shift, axis=0),) + circles)


MIXED = {  # loop kinds of each seeded row, and its |G|: counts! * 3^trefoils
    "eights-trefoil-circles": (("eight", "eight", "trefoil", "circle", "circle"), 12),
    "trefoil-circles": (("trefoil", "circle", "circle", "circle", "eight"), 18),
    "trefoils-eights": (("trefoil", "trefoil", "eight", "eight", "eight"), 108),
    "three-trefoils": (("trefoil", "trefoil", "trefoil", "eight", "circle"), 162),
}


def mixed_row(kinds, seed):
    """The loops of kinds, each at a random basepoint, in random slots 7 apart."""
    rng = np.random.default_rng(seed)
    shapes = {"eight": gerono_curve(n=128).loops[0], "trefoil": trefoil_curve(n=192).loops[0],
              "circle": circle_curve(n=64).loops[0]}
    slots = rng.permutation(len(kinds))
    return ClosedCurve(tuple(
        np.roll(shapes[kind], int(rng.integers(len(shapes[kind]))), axis=0) + (7.0 * slot, 0.0)
        for kind, slot in zip(kinds, slots)
    ))


def moved(curve, seed):
    """curve with its loops in a seeded order, each at a seeded basepoint."""
    rng = np.random.default_rng(seed)
    loops = [curve.loops[i] for i in rng.permutation(len(curve.loops))]
    return ClosedCurve(tuple(np.roll(p, int(rng.integers(len(p))), axis=0) for p in loops))


def shrunk_first(curve, factor=0.9):
    """curve with its first loop scaled about its centroid."""
    loop = curve.loops[0]
    centre = loop.mean(axis=0)
    return ClosedCurve((centre + factor * (loop - centre),) + curve.loops[1:])


def with_copies(curve, seed):
    """(curve, moved copy) and (curve, moved copy with one loop shrunk)."""
    a = build_arrangement(curve)
    copy = moved(curve, seed)
    return [(a, build_arrangement(copy)), (a, build_arrangement(shrunk_first(copy)))]


CASES = {
    "holed": lambda: [holed_curve()],
    "enclosed": lambda: [ClosedCurve((
        circle_curve(n=128, radius=0.8, center=(0.0, 2.0)).loops[0],
        circle_curve(n=128, center=(10.0, 0.0)).loops[0],
        gerono_curve(n=256, scale=4.0).loops[0]))],
    "three-trefoils": lambda: [ClosedCurve((
        trefoil_curve(n=192).loops[0],
        np.roll(trefoil_curve(n=192).loops[0], 32, axis=0) + (7.0, 0.0),
        trefoil_curve(n=192).loops[0] + (14.0, 0.0)))],
    "disjoint-circles": lambda: [circles_row(k) for k in range(1, 8)],
    "nested-rings": lambda: [nested_rings(k) for k in range(1, 7)],
    "ring-of-discs": lambda: [ring_of_discs(k) for k in range(1, 6)],
    "petal-circles": lambda: [petal_circles(perm, shift) for perm, shift in PETALS],
    "flower": lambda: [flower_curve(k) for k in range(3, 7)],
    "necklace": lambda: [necklace_curve(k) for k in range(3, 9)],
    "inner-chain": lambda: [inner_chain()],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_curves_match_tie_listing(case):
    pairs = []
    for seed, curve in enumerate(CASES[case]()):
        pairs += with_copies(curve, seed)
    moved, changed = assert_pairs_match_tie_listing(pairs)
    # the whole search reads the small circles first; the forest reads the
    # loops around them first, and a component from its outer face in
    # crossing order, but pairs them alike
    assert (moved > 0) == (case in ("enclosed", "petal-circles", "flower", "inner-chain"))
    assert changed == 0


def crossing_circles(count, seed=1):
    """The first `count` seeded draws of 3 or 4 circles whose arrangement
    is generic and of one component, as Gauss codes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(3, 5))
        centers, radii = rng.uniform(-1.0, 1.0, (k, 2)), rng.uniform(0.5, 1.5, k)
        curve = ClosedCurve(tuple(circle_curve(n=64, radius=float(r), center=tuple(c)).loops[0]
                                  for c, r in zip(centers, radii)))
        if check_generic(curve).is_generic:
            arr = build_arrangement(curve)
            if len(set(arr.components)) == 1:
                out.append(gauss_code(arr))
    return out


def one_component_codes():
    """Gauss codes of one component and several loops: flowers, necklaces,
    the inner chain, two crossing discs and eight seeded crossing circles."""
    curves = [flower_curve(k) for k in (3, 4)] + [necklace_curve(k) for k in (3, 4)]
    curves += [inner_chain(), ClosedCurve(tuple(motifs()[7]))]  # two discs that cross
    return [gauss_code(build_arrangement(curve)) for curve in curves] + crossing_circles(8)


def prune_hits():
    """Trace `_search`'s nested `complete` and count how often its prune,
    the one bare `return` of `_search`, runs."""
    lines, start = inspect.getsourcelines(diagram._search)
    prune = start + [line.strip() for line in lines].index("return")
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == prune:
            hits.append(1)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        return local if (code.co_filename, code.co_name) == (diagram.__file__, "complete") else None

    return hits, tracer


def test_one_component_reads_its_least_crossing_order_serial():
    # the least serial over every reading that starts on the outer face and
    # goes on, loop by loop, to one that crosses a loop read; |G| is the
    # number of readings that reach it. A shorter chunk that begins a
    # longer sibling's is above it, as its serial goes on with a |. On
    # some seeded circles a path's prefix rises above the best serial
    # found, and the search drops it
    hits, tracer = prune_hits()
    for gc in one_component_codes():
        assert len(gc.hosts) == 1 < len(gc.occ)
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            found = _minimal_readings(gc)
        finally:
            sys.settrace(previous)
        serial, readings = oracles.crossing_order_readings(gc)
        assert (found.serial, found.order) == (serial, len(readings))
    assert hits


def test_chunk_reads_signs_from_the_visit(monkeypatch):
    # a crossing's sign from its visit's strand and slot, against the
    # chunk that kept each crossing's first strand: the same text and the
    # same label maps after every chunk of every reading the crossing-order
    # oracle makes
    read = []
    monkeypatch.setattr(oracles, "_read", lambda gc, order, rots: read.append((order, rots)) or
                        ("", {}, {}))
    for gc in one_component_codes():
        read.clear()
        oracles.crossing_order_readings(gc)
        assert read
        for order, rots in read:
            verts, faces, old_verts, strands, old_faces = {}, {}, {}, {}, {}
            for loop, rot in zip(order, rots):
                assert diagram._chunk(gc, loop, rot, verts, faces) == \
                    oracles._chunk(gc, loop, rot, old_verts, strands, old_faces)
                assert (verts, faces) == (old_verts, old_faces)


@pytest.mark.parametrize("name", sorted(MIXED))
def test_mixed_rows_match_tie_listing(name):
    kinds, order = MIXED[name]
    curve = mixed_row(kinds, seed=len(name))
    pairs = with_copies(curve, seed=len(kinds))
    assert symmetry_group(pairs[0][0]).order == order
    assert_pairs_match_tie_listing(pairs)


def motifs():
    """Small diagrams, each centred at the origin as a list of loops."""
    def disc(radius, centre=(0.0, 0.0), n=48):
        return circle_curve(n=n, radius=radius, center=centre).loops[0]

    eight = gerono_curve(n=128).loops[0]
    tref = trefoil_curve(n=513)
    petals = [f.centroid for f in build_arrangement(tref).faces
              if not f.is_outer and np.linalg.norm(f.centroid) > 0.5]
    return [
        [disc(1.0)],
        [eight],
        [0.5 * trefoil_curve(n=192).loops[0]],
        [disc(1.2), disc(0.5)],
        [1.5 * eight, disc(0.25, (0.0, 0.75))],
        [disc(1.4), disc(0.4, (-0.6, 0.0)), disc(0.4, (0.6, 0.0))],
        [disc(1.2), disc(0.9)],
        [disc(0.8, (-0.4, 0.0)), disc(0.8, (0.4, 0.0))],
        [0.5 * tref.loops[0]] + [disc(0.1, 0.5 * p, n=24) for p in petals],
    ]


def motif_row(shapes, rng, most=6):
    """Motifs drawn at random, once or twice each, 4 apart, up to `most`
    loops in all; then the loops shuffled, each at a random basepoint."""
    loops = []
    while True:
        shape = shapes[rng.integers(len(shapes))]
        for _ in range(1 + rng.integers(2)):
            if len(loops) + len(shape) > most:
                break
            slot = len(loops)
            loops += [loop + (4.0 * slot, 0.0) for loop in shape]
        if len(loops) + len(shape) > most or rng.random() < 0.3:
            break
    return ClosedCurve(tuple(np.roll(loops[i], int(rng.integers(len(loops[i]))), axis=0)
                             for i in rng.permutation(len(loops))))


def test_seeded_motif_rows_match_tie_listing():
    # nested, crossing and repeated motifs: ties among readings that are
    # not minimal, whose automorphisms are cleared once a smaller serial is
    # found; each row also against its moved copy and a shrunk one
    shapes = motifs()
    orders, agreed, moved = set(), 0, 0
    for seed in range(80):
        curve = motif_row(shapes, np.random.default_rng(seed))
        (_, readings), _, same = assert_search_matches_tie_listing(build_arrangement(curve))
        orders.add(len(readings))
        agreed += same
        moved += assert_pairs_match_tie_listing(with_copies(curve, seed))[0]
    assert max(orders) >= 48
    # nested motifs read inside out by the whole search; rows of free ones agree
    assert 0 < agreed < 80
    assert moved > 0


def two_lobed(n):
    """e^{it} + 0.8 e^{3it}: two crossings, and two small lobes that the
    half turn, its one symmetry, swaps."""
    z = np.exp(2j * np.pi * np.arange(n) / n)
    z = z + 0.8 * z**3
    return np.column_stack([z.real, z.imag])


LOBES = [(perm, shift) for perm in ((0, 1), (1, 0)) for shift in (0, 64)]


def lobed_pair(perm, shift):
    """two_lobed(256), its samples rolled by shift, with a small copy of it
    in each lobe, in lobe order perm. The copies have the shape of the
    large loop, so positions may take them in any order, and the large
    loop comes first in the minimal serial: the half turn couples its
    basepoint to the order of the copies."""
    loop = two_lobed(256)
    lobes = [f.centroid for f in build_arrangement(ClosedCurve((loop,))).faces
             if not f.is_outer and f.area < 1.0]
    copies = tuple(0.12 * two_lobed(64) + lobes[i] for i in perm)
    return ClosedCurve((np.roll(loop, shift, axis=0),) + copies)


def test_petal_circles_first_reading_is_not_the_first_reached(monkeypatch):
    # the whole-diagram search reaches readings in (loop, rotation) pair
    # order, the first minimal reading is the least in (loop order,
    # rotations) order; the forest reads the large loop first with the
    # copies in the order its reading labels the lobes, so in the same two
    # cases it reads the large loop at its other tie, not its search's
    # reference
    differ = 0
    for perm, shift in LOBES:
        gc = gauss_code(build_arrangement(lobed_pair(perm, shift)))
        serial, _ = oracles.tie_listing_readings(gc)
        keys = [key for key in oracles._candidates(gc) if oracles._read(gc, *key)[0] == serial]
        differ += min(keys) != min(keys, key=lambda key: list(zip(*key)))
    assert differ == 2
    search = diagram._search
    reference, moved = {}, 0

    def spied_search(*args):
        found = search(*args)
        reference.update(found[1])  # each loop's basepoint in its component's reference
        return found

    monkeypatch.setattr(diagram, "_search", spied_search)
    for perm, shift in LOBES:
        arr = build_arrangement(lobed_pair(perm, shift))
        found = _minimal_readings(gauss_code(arr))
        moved += dict(found.reading)[0] != reference[0]  # the large loop from another basepoint
        assert assert_search_matches_tie_listing(arr)[2]
    assert moved == 2


def test_one_component_must_read_its_search_serial(monkeypatch):
    # a pair map that is no automorphism, a turn of the reference's first
    # loop alone, puts another reading first, which does not read the
    # search's least serial
    search = diagram._search

    def with_a_false_turn(gc, loops, outer, mods):
        serial, reference, maps, auts = search(gc, loops, outer, mods)
        first = reference[0][0]
        return serial, reference, maps, auts + [{first: (first, 1)}]

    monkeypatch.setattr(diagram, "_search", with_a_false_turn)
    # two crossing circles, rolled so that the reference reads its first
    # loop from basepoint 1: the false turn's image, from 0, comes first
    circles = (circle_curve(n=64).loops[0], circle_curve(n=64, radius=0.7, center=(1.0, 0.0)).loops[0])
    gc = gauss_code(build_arrangement(ClosedCurve(tuple(np.roll(c, 32, axis=0) for c in circles))))
    with pytest.raises(InconsistencyError, match="search's serial"):
        _minimal_readings(gc)


def test_several_loops_are_read_once(monkeypatch):
    # each component is read at its least tie, so the canonical reading is
    # the first minimal reading and is read once, also where it is not the
    # reading of the searches' references (two of the LOBES curves)
    curves = [lobed_pair(perm, shift) for perm, shift in LOBES]
    curves += [mixed_row(kinds, seed=len(name)) for name, (kinds, _) in sorted(MIXED.items())]
    curves += [curve(4) for curve, _ in GROWTH.values()]
    read, reads = diagram._read, []
    monkeypatch.setattr(diagram, "_read", lambda *args: reads.append(1) or read(*args))
    for curve in curves:
        gc = gauss_code(build_arrangement(curve))
        reads.clear()
        _minimal_readings(gc)
        assert len(gc.occ) > 1 and len(reads) == 1


@pytest.mark.parametrize("tol", [DEFAULT_AREA_TOL, 1e-12, 0.5])
def test_orbit_decision_matches_the_loop(rows, tol):
    # the array pass keeps the first aligning element, else the first
    # closest one, and the witness bits; 1e-12 aligns nothing, 0.5 aligns
    # the first element
    for a, b, _ in rows:
        corr, perms = isotopy_match(a, b), symmetry_group(a).face_perms
        for group in (perms, perms[::-1], np.arange(a.r)[None]):
            got = moduli._orbit_decision(a, b, corr, group, tol, None, None)
            assert got == oracles.orbit_decision(a, b, corr, group, tol, None, None)
            assert type(got.witness.face_map[0]) is int


def test_group_order_budget_is_checked_before_any_element(monkeypatch):
    assert MAX_GROUP_ORDER >= math.factorial(8)
    found = _minimal_readings(gauss_code(build_arrangement(circles_row(9))))
    assert found.order == math.factorial(9) > MAX_GROUP_ORDER
    arr = build_arrangement(circles_row(9))
    gc = gauss_code(arr)
    monkeypatch.setattr(diagram, "_read", None)  # listing an element would call it
    monkeypatch.setattr(diagram, "_pair_map", None)  # and so would making a swap
    with pytest.raises(ValidationError, match="exceeds the budget"):
        _group(arr, gc, found)


def test_group_closure_must_have_the_orbit_order():
    arr = build_arrangement(eights_row(4))
    gc = gauss_code(arr)
    found = _minimal_readings(gc)
    assert _group(arr, gc, found).order == found.order == 24
    # an identity map counted as one more tie doubles |G| but not the
    # closure; a run that repeats its first subtree keeps |G| = 4! while
    # its swaps span the 3! orders of the other three
    (run,) = found.runs
    wrongs = (found._replace(ties=found.ties[:-1] + (found.ties[-1] + ({},),)),
              found._replace(runs=((run[0],) + run[:-1],)))
    for wrong, message in zip(wrongs, ("close to 24 elements, orbits give 48",
                                       "close to 6 elements, orbits give 24")):
        with pytest.raises(InconsistencyError, match=message):
            _group(arr, gc, wrong)


def swap_of(arr):
    """The automorphism found for a two-loop row that swaps its loops."""
    return next(g for g in _minimal_readings(gauss_code(arr)).automorphisms
                if g.get(0, (0, 0))[0] == 1)


def refused_swap(bad, g):
    """`_group` of the arrangement bad, given the swap g of the row it was
    made from as its one generator: it must refuse g."""
    gc = gauss_code(bad)
    found = _minimal_readings(gc)
    assert found.order < 2 or g not in found.automorphisms
    with pytest.raises(InconsistencyError, match="not a diagram automorphism"):
        _group(bad, gc, found._replace(ties=((g,),), runs=()))


def test_group_refuses_a_mirrored_crossing():
    # with the second figure-eight's crossing turned the other way every
    # face still has one image, but no automorphism swaps the loops: the
    # swap's image of the canonical reading reads another serial
    arr = build_arrangement(eights_row(2))
    g = swap_of(arr)
    assert symmetry_group(arr).vertex_perms.tolist() == [[0, 1], [1, 0]]
    v = arr.passages[1][0][1]
    vertices = list(arr.vertices)
    vertices[v] = replace(vertices[v], sign=-vertices[v].sign)
    refused_swap(replace(arr, vertices=tuple(vertices)), g)


def test_group_refuses_a_crossing_sent_to_two_places():
    # the second trefoil's first and third passages trade crossings, strands
    # and all: faces still match and every passage keeps the turn of its
    # crossing, but the swap now sends one crossing of the first trefoil
    # to two crossings, so its image of the canonical reading reads
    # another serial
    arr = build_arrangement(trefoils_row(2))
    g = swap_of(arr)
    assert symmetry_group(arr).order == 18
    (t0, a), second, (t2, c) = arr.passages[1][:3]
    vertices = list(arr.vertices)
    for v, old, new in ((a, t0, t2), (c, t2, t0)):
        one, two = ((loop, new) if (loop, t) == (1, old) else (loop, t)
                    for loop, t in (vertices[v].first, vertices[v].second))
        vertices[v] = replace(vertices[v], first=one, second=two)
    passages = list(arr.passages)
    passages[1] = ((t0, c), second, (t2, a)) + arr.passages[1][3:]
    refused_swap(replace(arr, vertices=tuple(vertices), passages=tuple(passages)), g)


def test_generator_rows_match_the_half_edge_walk(arrangements, extra):
    # each generator's row, read off its image of the canonical reading,
    # equals the row the walk over the arrangement's half-edges gives, bit
    # for bit, on the seeded families and the golden inputs
    arrs = list(arrangements) + [arr for pair in extra for arr in pair]
    curves = [curve(4) for curve, _ in GROWTH.values()]
    curves += [mixed_row(kinds, seed=len(name)) for name, (kinds, _) in sorted(MIXED.items())]
    curves += [lobed_pair(perm, shift) for perm, shift in LOBES]
    curves += [petal_circles(perm, shift) for perm, shift in PETALS]
    for path in sorted(INPUTS.glob("*.curve")):
        try:
            curves.append(load_curve(path))
            arrs.append(build_arrangement(curves.pop()))
        except (FormatError, GenericityError, ValidationError):  # unreadable or not generic
            continue
    arrs += [build_arrangement(curve) for curve in curves]
    moving = 0
    for arr in arrs:
        gc = gauss_code(arr)
        found = _minimal_readings(gc)
        rows = _generator_rows(arr, gc, found)
        assert rows == oracles.automorphism_rows(arr, found.automorphisms)
        moving += len(rows) > 0
    assert moving >= 30
