"""Arrangement: face extraction, canonical labels, areas, quadrature, SVG."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import circle_curve, gerono_curve, generic_trig_loops, node_values, trefoil_curve

from symplane.arrangement import (
    build_arrangement,
    face_areas,
    integrate_density_over_faces,
    render_svg,
)
from symplane.curves import (
    ClosedCurve,
    GenericityReport,
    Violation,
    check_generic,
    resample,
    transform_curve,
)
from symplane.errors import GenericityError, ValidationError
from symplane.forms import unit_density
from symplane.geometry import point_segment_distance


def uniform_density(curve, value=1.0, n=256, inflate=0.25):
    x0, x1, y0, y1 = curve.bbox()
    px = inflate * (x1 - x0)
    py = inflate * (y1 - y0)
    return node_values(x0 - px, x1 + px, y0 - py, y1 + py, n, n, np.full((n, n), float(value)))


def test_circle_single_face_area_pi(circle512):
    arr = build_arrangement(circle512)
    assert arr.r == 1
    areas = face_areas(arr)
    assert abs(areas[0] - np.pi) < 1e-3


def test_circle_counts():
    arr = build_arrangement(circle_curve(n=64))
    assert len(arr.vertices) == 0
    assert len(arr.half_edges) == 2
    assert len(arr.faces) == 2


def test_gerono_counts_and_equal_lobes(gerono256):
    arr = build_arrangement(gerono256)
    # one crossing, two arcs, two lobes plus the outer face
    assert len(arr.vertices) == 1
    assert len(arr.half_edges) // 2 == 2
    assert len(arr.faces) == 3
    assert arr.r == 2
    areas = face_areas(arr)
    assert abs(areas[0] - areas[1]) < 1e-6


def test_trefoil_counts(trefoil512):
    arr = build_arrangement(trefoil512)
    assert len(arr.vertices) == 3
    assert len(arr.half_edges) // 2 == 6
    assert arr.r == 4
    assert len(arr.faces) == 5


def test_vertices_are_the_report_double_points(trefoil512):
    # the arrangement keeps the report's tuple; a vertex's index is its place
    report = check_generic(trefoil512)
    assert build_arrangement(trefoil512, report).vertices is report.double_points
    # and a report's verdict is read off its violations, never stored
    assert "is_generic" not in {f.name for f in dataclasses.fields(GenericityReport)}
    assert report.is_generic is True
    flagged = Violation("cusp-proxy", np.zeros(2), ((0, 1.0),), "turn")
    assert GenericityReport((), (flagged,), 0.1, 1e-6).is_generic is False


def test_area_scaling_quadratic():
    # labels are per-arrangement; across curves compare the sorted multiset
    curve = trefoil_curve(n=512)
    base = np.sort(face_areas(build_arrangement(curve)))
    for c in (0.5, 2.0, 3.7):
        scaled = transform_curve(curve, lambda p: c * p)
        got = np.sort(face_areas(build_arrangement(scaled)))
        assert np.max(np.abs(got - c * c * base)) < 1e-9 * np.max(c * c * base)


def test_area_shear_invariance():
    curve = gerono_curve(n=256)
    base = np.sort(face_areas(build_arrangement(curve)))
    shear = np.array([[1.0, 0.7], [0.0, 1.0]])
    sheared = transform_curve(curve, lambda p: p @ shear.T)
    exact = np.sort(face_areas(build_arrangement(sheared)))
    assert np.max(np.abs(exact - base)) < 1e-12 * base.max()
    resampled = resample(sheared, 256)
    approx = np.sort(face_areas(build_arrangement(resampled)))
    assert np.max(np.abs(approx - base)) < 1e-3 * base.max()


def test_nested_circles_faces():
    outer = circle_curve(n=256, radius=2.0)
    inner = circle_curve(n=256, radius=1.0)
    arr = build_arrangement(ClosedCurve((outer.loops[0], inner.loops[0])))
    assert arr.r == 2
    areas = np.sort(face_areas(arr))
    # disc of the inner circle, annulus between them
    assert abs(areas[0] - np.pi) < 2e-3
    assert abs(areas[1] - 3 * np.pi) < 4e-3


def test_side_by_side_circles_faces_and_labels():
    left = circle_curve(n=128, radius=1.0, center=(-2.0, 0.0))
    right = circle_curve(n=128, radius=0.5, center=(2.0, 0.0))
    arr = build_arrangement(ClosedCurve((left.loops[0], right.loops[0])))
    assert arr.r == 2
    f1 = arr.bounded_faces[0]
    f2 = arr.bounded_faces[1]
    assert f1.rep_point[0] < 0 < f2.rep_point[0]
    areas = face_areas(arr)
    assert abs(areas[0] - np.pi) < 2e-3
    assert abs(areas[1] - np.pi / 4) < 1e-3


def test_gerono_label_order_left_to_right(gerono256):
    arr = build_arrangement(gerono256)
    assert arr.bounded_faces[0].rep_point[0] < arr.bounded_faces[1].rep_point[0]


def test_build_rejects_non_generic():
    outer = circle_curve(n=128, radius=2.0)
    inner = circle_curve(n=128, radius=1.0, center=(1.0, 0.0))
    with pytest.raises(GenericityError):
        build_arrangement(ClosedCurve((outer.loops[0], inner.loops[0])))


def test_integrate_constant_density_matches_areas(trefoil512):
    arr = build_arrangement(trefoil512)
    areas = face_areas(arr)
    got = integrate_density_over_faces(arr, uniform_density(trefoil512))
    assert np.max(np.abs(got - areas)) < 5e-3 * areas.max()
    doubled = integrate_density_over_faces(arr, uniform_density(trefoil512, value=2.0))
    assert np.max(np.abs(doubled - 2.0 * areas)) < 1e-2 * areas.max()


def test_integrate_bump_adds_only_to_its_face(gerono256):
    arr = build_arrangement(gerono256)
    areas = face_areas(arr)
    density = uniform_density(gerono256, n=384)
    face = arr.bounded_faces[0]
    cx, cy = face.rep_point
    rad = 0.35 * point_segment_distance(face.rep_point, *face.edges).min()

    xs = np.linspace(density.x0, density.x1, density.nx)
    ys = np.linspace(density.y0, density.y1, density.ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    s2 = ((gx - cx) ** 2 + (gy - cy) ** 2) / rad**2
    bump = np.where(s2 < 1.0, np.exp(-1.0 / np.maximum(1e-300, 1.0 - s2)), 0.0)
    density.values = density.values + bump

    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    bump_mass = float(bump.sum() * hx * hy)
    got = integrate_density_over_faces(arr, density)
    assert abs(got[0] - (areas[0] + bump_mass)) < 5e-3 * areas[0]
    assert abs(got[1] - areas[1]) < 5e-3 * areas[1]


def test_random_loops_euler_and_face_count():
    for curve, report in generic_trig_loops(seed=1234, count=30, n=256):
        arr = build_arrangement(curve, report)
        n_double = len(report.double_points)
        assert arr.r == n_double + 1
        v = len(arr.vertices)
        e = len(arr.half_edges) // 2
        f = len(arr.faces)
        if v:
            assert v - e + f == 2
        total = face_areas(arr).sum()
        outer = arr.faces[arr.outer_face]
        assert abs(total + outer.area) < 1e-9 * max(total, 1.0)


def test_render_svg_deterministic_and_labeled(trefoil512):
    arr = build_arrangement(trefoil512)
    svg = render_svg(arr)
    assert svg == render_svg(build_arrangement(trefoil512))
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 3
    for label in ("1", "2", "3", "4"):
        assert f">{label}</text>" in svg


@pytest.mark.parametrize("box", [(2.0, 3.0, -1.0, 1.0), (-0.5, 0.5, -0.5, 0.5)],
                         ids=["beside", "inside"])
def test_face_integrals_refuse_a_grid_that_misses_the_curve_box(box):
    # the unit circle's box is [-1, 1]^2: a grid beside it or inside it
    # leaves bounded faces uncovered
    with pytest.raises(ValidationError, match="density grid does not cover the curve bounding box"):
        integrate_density_over_faces(build_arrangement(circle_curve(n=64)), unit_density(*box, nx=8))
