"""Face raster and vectorized labelling against the code they replaced.

The scanline face raster, the broadcast winding numbers and the
all-segments boundary distance must reproduce the per-face winding
passes and per-segment distances of `oracles` exactly, not just
closely: face integrals feed density files whose bytes must not move.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from conftest import (
    circle_curve,
    circles_row,
    gerono_curve,
    holed_curve,
    node_values,
    trefoil_curve,
)

from symplane.arrangement import Face, _face_raster, build_arrangement, integrate_density_over_faces
from symplane.curves import ClosedCurve, load_curve
from symplane.errors import FormatError, GenericityError, InconsistencyError, ValidationError
from symplane.geometry import point_segment_distance, winding_numbers

GRIDS = (64, 193, 256)
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def random_density(arr, n, rng, inflate=0.1):
    x0, x1, y0, y1 = arr.curve.bbox()
    px, py = inflate * (x1 - x0), inflate * (y1 - y0)
    return node_values(x0 - px, x1 + px, y0 - py, y1 + py, n, n, rng.uniform(0.1, 3.0, size=(n, n)))


def cell_centers(d):
    xs = np.linspace(d.x0, d.x1, d.nx)
    ys = np.linspace(d.y0, d.y1, d.ny)
    return xs[:-1] + 0.5 * (xs[1] - xs[0]), ys[:-1] + 0.5 * (ys[1] - ys[0])


def test_holed_curve_has_a_holed_face():
    arr = build_arrangement(holed_curve())
    assert max(len(oracles.face_walks(f)) for f in arr.bounded_faces) == 2


@pytest.mark.parametrize("n", GRIDS)
def test_integrals_match_per_face_winding_oracle(arrangements, n):
    rng = np.random.default_rng(n)
    # the named curves on every grid, each family curve on one of them
    for k, arr in enumerate(arrangements):
        if k >= 4 and GRIDS[k % 3] != n:
            continue
        d = random_density(arr, n, rng)
        new = integrate_density_over_faces(arr, d)
        old = oracles.integrate_density_over_faces(arr, d)
        assert np.array_equal(new, old)
        assert new.tobytes() == oracles.face_integrator(arr, d)(d.values).tobytes()


def test_integrals_match_both_oracles_on_a_non_square_grid(arrangements):
    # nx != ny: the corner gathers step by ny nodes per cell column
    rng = np.random.default_rng(97)
    for k, arr in enumerate(arrangements):
        if k >= 4 and k % 3:
            continue
        x0, x1, y0, y1 = arr.curve.bbox()
        d = node_values(x0 - 0.1, x1 + 0.3, y0 - 0.2, y1 + 0.1, 97, 61,
                        rng.uniform(0.1, 3.0, size=(97, 61)))
        new = integrate_density_over_faces(arr, d)
        assert new.tobytes() == oracles.integrate_density_over_faces(arr, d).tobytes()
        assert new.tobytes() == oracles.face_integrator(arr, d)(d.values).tobytes()


def test_raster_agrees_with_face_contains(arrangements):
    rng = np.random.default_rng(5)
    for k, arr in enumerate(arrangements):
        for n in GRIDS[:2] if k < 4 else GRIDS[:1]:
            d = random_density(arr, n, rng)
            cx, cy = cell_centers(d)
            lab = _face_raster(arr, cx, cy)
            gx, gy = np.meshgrid(cx, cy, indexing="ij")
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            for face in arr.faces:
                inside = face.contains(pts).reshape(lab.shape)
                assert np.array_equal(inside, lab == (face.label or 0))


@pytest.mark.parametrize("curve", [circle_curve(n=64), gerono_curve(n=256)])
def test_raster_rows_through_curve_samples(curve):
    # cell-center rows at multiples of 1/8 pass exactly through the
    # samples at y = 0 and y = +-1; columns at odd multiples of 1/16
    # keep every center off the curve
    arr = build_arrangement(curve)
    d = node_values(-1.5, 1.5, -1.5625, 1.4375, 25, 25,
                    np.random.default_rng(3).uniform(0.1, 3.0, size=(25, 25)))
    cx, cy = cell_centers(d)
    assert {-1.0, 0.0, 1.0} <= set(cy.tolist())
    lab = _face_raster(arr, cx, cy)
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    for face in arr.faces:
        inside = oracles.face_contains(face, pts).reshape(lab.shape)
        assert np.array_equal(inside, lab == (face.label or 0))
    assert np.array_equal(integrate_density_over_faces(arr, d),
                          oracles.integrate_density_over_faces(arr, d))


def test_winding_numbers_match_edge_loop_oracle(arrangements):
    rng = np.random.default_rng(11)
    for arr in arrangements[:20]:
        x0, x1, y0, y1 = arr.curve.bbox()
        pts = np.column_stack([rng.uniform(x0, x1, 500), rng.uniform(y0, y1, 500)])
        for face in arr.faces:
            total = np.zeros(len(pts), dtype=np.int64)
            for poly in oracles.face_walks(face):
                closed = np.vstack([poly, poly[:1]])
                old = oracles.winding_numbers(pts, poly)
                assert np.array_equal(winding_numbers(pts, closed[:-1], closed[1:]), old)
                total += old
            # a face's stacked edges sum the winding numbers of its walks
            assert np.array_equal(winding_numbers(pts, *face.edges), total)


def angle_sum_windings(points, poly):
    """Winding numbers as the turning of the direction to each vertex, in
    whole turns: a rule with no horizontal ray and no half-open ends."""
    rel = poly[None, :, :] - points[:, None, :]
    nxt = np.roll(rel, -1, axis=1)
    cross = rel[..., 0] * nxt[..., 1] - rel[..., 1] * nxt[..., 0]
    dot = (rel * nxt).sum(axis=2)
    return np.rint(np.arctan2(cross, dot).sum(axis=1) / (2.0 * np.pi)).astype(np.int64)


@pytest.mark.parametrize("poly", [
    [(1, 0), (2, 1), (1, 2), (0, 1)],  # a diamond
    [(0, 1), (1, 2), (2, 1), (1, 0)],  # the same, clockwise
    [(0, 0), (4, 0), (4, 1), (3, 2), (4, 3), (4, 4), (2, 3), (0, 4), (1, 2)],  # notched
    [(0, 0), (4, 0), (4, 4), (0, 4), (0, 1), (3, 1), (3, 3), (1, 3), (1, -1)],  # winds twice
], ids=["diamond", "clockwise", "notched", "twice"])
def test_winding_numbers_at_vertex_heights(poly):
    # every query point lies at exactly some vertex's y: an edge spanning
    # that height counts from its lower end on (ay <= py < by), so a
    # vertex between two rising edges counts once, and a top or bottom
    # vertex twice or never, as the shape demands
    poly = np.array(poly, dtype=float)
    xs = np.arange(-1.0, 5.0, 0.25) + 0.125
    pts = np.array([(x, y) for y in np.unique(poly[:, 1]) for x in xs])
    closed = np.vstack([poly, poly[:1]])
    clear = point_segment_distance(pts[:, None, :], closed[:-1], closed[1:]).min(axis=1) > 1e-9
    pts = pts[clear]
    want = angle_sum_windings(pts, poly)
    assert np.array_equal(winding_numbers(pts, closed[:-1], closed[1:]), want)
    assert np.array_equal(oracles.winding_numbers(pts, poly), want)
    assert want.any() and len(pts) > 20


def test_boundary_distance_matches_per_segment_oracle(arrangements):
    rng = np.random.default_rng(12)
    for arr in arrangements:
        x0, x1, y0, y1 = arr.curve.bbox()
        probes = np.column_stack([rng.uniform(x0, x1, 2), rng.uniform(y0, y1, 2)])
        for face in arr.bounded_faces:
            for p in (face.rep_point, *probes):
                assert face.boundary_distance(p) == oracles.boundary_distance(face, p)


def golden_arrangements():
    """Arrangements of the golden corpus's curve inputs that build."""
    out = []
    for path in sorted(GOLDEN_INPUTS.glob("*.curve")):
        try:
            out.append(build_arrangement(load_curve(path)))
        except (FormatError, GenericityError, ValidationError):
            continue
    return out


def test_clearance_is_the_boundary_distance_of_the_label_point(arrangements):
    # an annulus's centroid is its hole's centre, so its label point comes
    # from the offset search, as do the golden holed curves' and rings'
    annuli = [build_arrangement(ClosedCurve(circle_curve(n=n).loops
                                            + circle_curve(n=n, radius=radius).loops))
              for n, radius in ((512, 0.95), (128, 0.5))]
    searched = []
    for arr in [*arrangements, *annuli, *golden_arrangements()]:
        for face in arr.bounded_faces:
            assert face.clearance.hex() == face.boundary_distance(face.rep_point).hex()
            searched.append(face.rep_point is not face.centroid)
    assert sum(searched) >= len(annuli) + 13


def test_boundary_distance_of_zero_length_segment():
    closed = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    face = Face(index=0, edges=(closed[:-1], closed[1:]), area=2.0, is_outer=False, centroid=None)
    for p in ([-3.0, -4.0], [0.5, 0.5], [1.0, -1.0]):
        assert face.boundary_distance(p) == oracles.boundary_distance(face, p)


def test_raster_holds_labels_past_a_signed_byte():
    # 130 disjoint circles: labels up to 130 overflow an int8, so the
    # raster's type comes from its bound, not from the common case
    arr = build_arrangement(circles_row(130))
    x0, x1, y0, y1 = arr.curve.bbox()
    d = SimpleNamespace(x0=x0 - 0.5, x1=x1 + 0.5, y0=y0 - 0.5, y1=y1 + 0.5, nx=1041, ny=9)
    cx, cy = cell_centers(d)
    lab = _face_raster(arr, cx, cy)
    for face in arr.bounded_faces:
        # the cell whose center is nearest the label point lies well inside
        i = np.argmin(np.abs(cx - face.rep_point[0]))
        k = np.argmin(np.abs(cy - face.rep_point[1]))
        assert lab[i, k] == face.label
    assert arr.r == 130 and lab.max() == 130


def test_raster_rejects_corrupted_face_assignment():
    arr = build_arrangement(trefoil_curve(n=512))
    d = random_density(arr, 64, np.random.default_rng(0))
    integrate_density_over_faces(arr, d)  # intact: no error
    he = arr.half_edges[arr.loop_arcs[0][0]]
    he.face = arr.half_edges[he.twin].face
    with pytest.raises(InconsistencyError, match="partition"):
        integrate_density_over_faces(arr, d)
