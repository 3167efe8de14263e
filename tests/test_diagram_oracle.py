"""One-pass reading enumeration and group check against the code they replaced.

`canonical_code`, `isotopy_match` and `symmetry_group` now share one
enumeration of minimal readings, and the group axioms are checked while
the generators are found. Their results must equal the old separate
loops of `oracles` exactly: the same strings, the same correspondences,
the same sorted elements and the same generator indices. The vectorized
`_arc_points` must give the same half-edge polylines as the old
per-sample loop.
"""

from __future__ import annotations

import numpy as np
import oracles
import pytest
from conftest import eights_row, gerono_curve, trefoil_curve

from symplane.arrangement import _arc_points, build_arrangement
from symplane.curves import transform_curve
from symplane.diagram import (
    _checked_generators,
    canonical_code,
    gauss_code,
    isotopy_match,
    symmetry_group,
)
from symplane.errors import InconsistencyError

ROWS = {
    1: ((0,), (37,)),
    2: ((1, 0), (5, 64)),
    3: ((2, 0, 1), (0, 64, 3)),
    4: ((3, 1, 0, 2), (64, 0, 7, 64)),
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
                new, old = _arc_points(*args), oracles._arc_points(*args)
                assert new.shape == old.shape
                assert np.array_equal(new, old)
                assert np.array_equal(arr.half_edges[arr.loop_arcs[loop][k]].points, new)
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
