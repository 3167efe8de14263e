"""Curve model: file format round trips, resampling, genericity checks."""

from __future__ import annotations

import numpy as np
import pytest
from conftest import (
    circle_curve,
    close_circles_curve,
    cusp_curve,
    gerono_curve,
    random_trig_loop,
    tangent_circles_curve,
    trefoil_curve,
    trifolium_curve,
)

from symplane.arrangement import build_arrangement
from symplane.curves import (
    MAX_COORD,
    MIN_EXTENT,
    ClosedCurve,
    check_generic,
    parse_curve,
    resample,
    serialize_curve,
    transform_curve,
)
from symplane.errors import FormatError, ValidationError

# Angle between the figure-eight branch tangents (2, 1) and (2, -1) at the
# origin: arcsin(|cross| / (|u||v|)) = arcsin(4/5).
GERONO_CROSSING_ANGLE = 0.9272952180016122


def test_parse_serialize_round_trip():
    curve = gerono_curve(n=64)
    text = serialize_curve(curve)
    back = parse_curve(text)
    assert len(back.loops) == 1
    assert np.array_equal(back.loops[0], curve.loops[0])
    # serialization is stable under a second pass
    assert serialize_curve(back) == text


def test_parse_accepts_comments_and_blank_lines():
    pts = "\n".join(f"{np.cos(a)} {np.sin(a)}" for a in np.linspace(0, 6, 8, endpoint=False))
    text = f"# a circle, coarsely\ncurve v1\n\nloop 8  # eight samples\n{pts}\n"
    curve = parse_curve(text)
    assert curve.loops[0].shape == (8, 2)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("curve v2\nloop 8\n", "header"),
        ("loop 8\n0 0\n", "header"),
        ("curve v1\nloop two\n", "loop count"),
        ("curve v1\nloop 8\n0 0\n", "ends early"),
        ("curve v1\nloop 3\n0 0\n1 0\n", "line 2: loop promises 3 samples, file ends early"),
        ("curve v1\nloop 8\n" + "0 0 0\n" * 8, "x y"),
        ("curve v1\nloop 8\n" + "0 zero\n" * 8, "coordinate"),
        ("curve v1\nloop 8\n" + "nan 0\n" * 8, "finite"),
    ],
)
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_curve(text)
    assert fragment in str(err.value)


def test_validation_rejects_short_and_degenerate_loops():
    with pytest.raises(ValidationError):
        ClosedCurve((np.zeros((7, 2)) + np.arange(7)[:, None],))
    pts = circle_curve(n=16).loops[0].copy()
    pts[5] = pts[4]
    with pytest.raises(ValidationError):
        ClosedCurve((pts,))
    with pytest.raises(ValidationError):
        ClosedCurve(())


def test_curve_keeps_its_own_read_only_copy():
    # a later write to the caller's array used to reach the validated
    # curve, where a repeated sample broke check_generic
    pts = circle_curve(n=16).loops[0].copy()
    other = pts + 3.0
    c = ClosedCurve((pts, other))
    before = [loop.copy() for loop in c.loops]
    pts[1] = pts[0]
    other[:] = 0.0
    assert all(np.array_equal(a, b) for a, b in zip(c.loops, before))
    assert len(check_generic(c).double_points) == 0
    for k in range(2):
        with pytest.raises(ValueError, match="read-only"):
            c.loops[k][1] = c.loops[k][0]
    # the loops are views of the curve's one stacked copy
    assert all(np.shares_memory(loop, c.points) for loop in c.loops)


@pytest.mark.filterwarnings("error")
def test_overflowing_coordinates_are_rejected():
    pts = circle_curve(n=16).loops[0].copy()
    pts[5] = (1e308, 1e308)
    with pytest.raises(ValidationError, match="coordinate magnitude above 1e\\+100"):
        ClosedCurve((pts,))
    # at the bound, certification and the arrangement run without overflow
    big = build_arrangement(transform_curve(trefoil_curve(n=128), lambda p: (MAX_COORD / 3) * p))
    assert big.r == 4 and np.all(np.isfinite([f.area for f in big.bounded_faces]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-13, 1e-20, 1e-30])
def test_tiny_loops_are_rejected(scale):
    # unchecked, these broke the Euler check (1e-13) or lost every crossing
    with pytest.raises(ValidationError, match="loop 0: extent .* below 1e-09"):
        transform_curve(trefoil_curve(n=128), lambda p: scale * p)


def test_loop_just_above_the_extent_bound_keeps_its_crossings():
    base = trefoil_curve(n=128)
    x0, x1, y0, y1 = base.bbox()
    small = transform_curve(base, lambda p: (1.01 * MIN_EXTENT / max(x1 - x0, y1 - y0)) * p)
    assert len(check_generic(small).double_points) == 3
    assert build_arrangement(small).r == 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["angle_tol", "sep_tol"])
def test_check_generic_tolerances_must_be_finite_and_positive(name, bad):
    with pytest.raises(ValidationError, match=f"{name} must be finite and positive"):
        check_generic(gerono_curve(n=64), **{name: bad})


def test_resample_uniform_arclength():
    curve = resample(gerono_curve(n=200), 128)
    pts = curve.loops[0]
    ring = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(ring, axis=0), axis=1)
    assert seg.max() - seg.min() < 1e-6 * seg.mean()


def test_resample_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(5):
        curve = random_trig_loop(rng, n=173)
        once = resample(curve, 256)
        twice = resample(once, 256)
        assert np.max(np.abs(twice.loops[0] - once.loops[0])) < 1e-12


def test_circle_is_generic():
    report = check_generic(circle_curve(n=128))
    assert report.is_generic
    assert report.double_points == ()
    assert report.violations == ()


def test_gerono_has_one_transverse_double_point():
    report = check_generic(gerono_curve(n=256))
    assert report.is_generic
    assert len(report.double_points) == 1
    dp = report.double_points[0]
    assert np.linalg.norm(dp.point) < 1e-9
    assert abs(dp.angle - GERONO_CROSSING_ANGLE) < 1e-3
    # strand parameters sit at t = 0 and t = pi, i.e. samples 0 and n/2
    (la, ta), (lb, tb) = dp.first, dp.second
    assert la == 0 and lb == 0
    assert min(ta, 256 - ta) < 1e-6
    assert abs(tb - 128.0) < 1e-6


def test_trefoil_has_three_double_points():
    report = check_generic(trefoil_curve(n=512))
    assert report.is_generic
    assert len(report.double_points) == 3


def test_tangency_flagged_for_tangent_circles():
    report = check_generic(tangent_circles_curve())
    assert not report.is_generic
    kinds = {v.kind for v in report.violations}
    assert kinds & {"tangency", "near-miss"}


def test_near_miss_flagged_for_close_strands():
    report = check_generic(close_circles_curve())
    assert not report.is_generic
    assert any(v.kind == "near-miss" for v in report.violations)


def test_gerono_phase_sweep_is_generic():
    # a crossing within sep_tol of a sample point brings the segment pairs
    # beside the crossing pair within sep_tol too: no near-miss there
    small = 10.0 ** np.linspace(-8.0, -1.0, 80)
    for offset in np.concatenate([small, 1.0 - small]):
        report = check_generic(gerono_curve(n=256, offset=offset))
        assert report.is_generic, (offset, report.violations)
        assert len(report.double_points) == 1


def test_cusp_proxy_flagged_for_sharp_turn():
    report = check_generic(cusp_curve())
    assert any(v.kind == "cusp-proxy" for v in report.violations)
    assert not report.is_generic


def test_triple_point_flagged_for_trifolium():
    report = check_generic(trifolium_curve())
    assert any(v.kind == "triple-point" for v in report.violations)


def test_check_generic_rigid_motion_invariant():
    rng = np.random.default_rng(41)
    for _ in range(8):
        curve = resample(random_trig_loop(rng, n=200), 200)
        base = check_generic(curve)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = rng.uniform(-5, 5, size=2)
        moved = transform_curve(curve, lambda p: p @ rot.T + shift)
        other = check_generic(moved)
        assert other.is_generic == base.is_generic
        assert len(other.double_points) == len(base.double_points)
        assert sorted(v.kind for v in other.violations) == sorted(
            v.kind for v in base.violations
        )


def test_double_point_angles_match_under_rotation():
    curve = gerono_curve(n=256)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = transform_curve(curve, lambda p: p @ rot.T)
    a = check_generic(curve).double_points[0].angle
    b = check_generic(moved).double_points[0].angle
    assert abs(a - b) < 1e-9
