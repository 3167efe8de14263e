"""Command-line interface: reports, exit codes, file round trips."""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    LEAKING_PETAL,
    circle_curve,
    circles_row,
    dipping_pair,
    eights_row,
    gerono_curve,
    petal_curve,
    sharp_fold_curve,
    thin_band_curve,
    trefoil_curve,
)

import symplane
from symplane import arrangement, cli
from symplane.arrangement import build_arrangement, face_areas, integrate_density_over_faces
from symplane.cli import _parse_spec_file, main
from symplane.curves import ClosedCurve, load_curve, save_curve, serialize_curve, transform_curve
from symplane.errors import FormatError
from symplane.forms import (
    GridMap,
    load_density,
    load_map,
    make_density,
    save_density,
    serialize_density,
    serialize_map,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_curve(tmp_path, name, curve):
    path = tmp_path / name
    save_curve(curve, path)
    return str(path)


def write_dipole_pair(tmp_path, n=64, a=0.5, radius=0.7):
    """Unit density plus a one-sided bump/dip pair, saved to two files.

    Both discs sit in x > 0 so the transport field vanishes outside them.
    """
    x0, x1, y0, y1 = -0.5, 3.7, -1.2, 1.2
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")

    def moll(cx):
        r2 = ((X - cx) ** 2 + Y**2) / radius**2
        out = np.zeros_like(X)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    f0 = make_density(x0, x1, y0, y1, 1.0 + a * moll(0.8))
    f1 = make_density(x0, x1, y0, y1, 1.0 + a * moll(2.4))
    p0, p1 = tmp_path / "f0.txt", tmp_path / "f1.txt"
    save_density(f0, p0)
    save_density(f1, p1)
    return str(p0), str(p1)


# --- analyze --------------------------------------------------------------


def test_analyze_circle(tmp_path):
    path = write_curve(tmp_path, "circle.txt", circle_curve(n=128))
    code, text = run_cli("analyze", path)
    assert code == 0
    assert "generic: yes" in text
    assert "bounded faces: 1" in text
    area = float(text.split("areas:\n  1: ")[1].split("\n")[0])
    assert abs(area - np.pi) < 1e-2


def test_analyze_figure_eight(tmp_path):
    path = write_curve(tmp_path, "eight.txt", gerono_curve(n=256))
    code, text = run_cli("analyze", path)
    assert code == 0
    assert "double points: 1" in text
    assert "bounded faces: 2" in text


def test_analyze_rejects_near_tangent_pair(tmp_path):
    near = circle_curve(n=96, radius=1.0).loops + circle_curve(
        n=96, radius=1.0, center=(2.003, 0.0)
    ).loops
    path = write_curve(tmp_path, "near.txt", ClosedCurve(near))
    code, text = run_cli("analyze", path, "--sep-tol", "0.01")
    assert code == 2
    assert "generic: no" in text


def test_analyze_missing_file():
    code, _ = run_cli("analyze", "/no/such/curve.txt")
    assert code == 4


def test_analyze_malformed_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("curve v1\nnot a number\n")
    code, _ = run_cli("analyze", str(path))
    assert code == 4


def test_analyze_file_one_sample_short(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("curve v1\nloop 3\n0 0\n1 0\n")
    code, _ = run_cli("analyze", str(path))
    assert code == 4


def test_analyze_is_deterministic(tmp_path):
    path = write_curve(tmp_path, "trefoil.txt", trefoil_curve())
    _, first = run_cli("analyze", path)
    _, second = run_cli("analyze", path)
    assert first == second


def test_analyze_writes_svg(tmp_path):
    path = write_curve(tmp_path, "circle.txt", circle_curve(n=96))
    svg = tmp_path / "out.svg"
    code, text = run_cli("analyze", path, "--svg", str(svg))
    assert code == 0
    assert str(svg) in text
    assert "<svg" in svg.read_text()


# --- compare --------------------------------------------------------------


def test_compare_labelled_shear_image(tmp_path):
    tref = trefoil_curve()
    shear = np.array([[1.0, 0.3], [0.0, 1.0]])
    a = write_curve(tmp_path, "a.txt", tref)
    b = write_curve(tmp_path, "b.txt", transform_curve(tref, lambda p: p @ shear.T))
    code, text = run_cli("compare", a, b, "--labelled")
    assert code == 0
    assert "EQUIVALENT" in text


def test_compare_symplectic_rotated_trefoil(tmp_path):
    tref = trefoil_curve()
    th = 2 * np.pi / 3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    a = write_curve(tmp_path, "a.txt", tref)
    b = write_curve(tmp_path, "b.txt", transform_curve(tref, lambda p: p @ rot.T))
    code, text = run_cli("compare", a, b, "--symplectic")
    assert code == 0
    assert "EQUIVALENT" in text
    assert "symmetry applied:" in text


def test_compare_symplectic_eights_row_reordered_and_shrunk(tmp_path):
    order, shifts = (2, 0, 1), (64, 3, 0)
    a = write_curve(tmp_path, "a.txt", eights_row(3))
    moved = eights_row(3, order, shifts)
    b = write_curve(tmp_path, "b.txt", moved)
    code, text = run_cli("compare", a, b, "--symplectic")
    assert code == 0 and "EQUIVALENT" in text.splitlines()
    # shrink loop 0 by 0.8 about the centre of its slot
    centre = np.array([3.0 * order[0], 0.0])
    shrunk = ClosedCurve((centre + 0.8 * (moved.loops[0] - centre),) + moved.loops[1:])
    c = write_curve(tmp_path, "c.txt", shrunk)
    code, text = run_cli("compare", a, c, "--symplectic")
    assert code == 1 and "INEQUIVALENT" in text.splitlines()


def test_compare_incomparable_types(tmp_path):
    a = write_curve(tmp_path, "a.txt", circle_curve(n=128))
    b = write_curve(tmp_path, "b.txt", gerono_curve(n=256))
    code, text = run_cli("compare", a, b, "--symplectic")
    assert code == 3
    assert "INCOMPARABLE" in text


def test_compare_scaled_copy_inequivalent(tmp_path):
    circ = circle_curve(n=128)
    a = write_curve(tmp_path, "a.txt", circ)
    b = write_curve(tmp_path, "b.txt", transform_curve(circ, lambda p: 2.0 * p))
    code, text = run_cli("compare", a, b, "--labelled")
    assert code == 1
    assert "INEQUIVALENT" in text


def test_compare_requires_a_mode():
    with pytest.raises(SystemExit) as err:
        main(["compare", "a.txt", "b.txt"])
    assert err.value.code == 2


# --- symmetry -------------------------------------------------------------


def test_symmetry_trefoil(tmp_path):
    path = write_curve(tmp_path, "trefoil.txt", trefoil_curve())
    code, text = run_cli("symmetry", path)
    assert code == 0
    assert "group order: 3" in text


def test_symmetry_circle_trivial(tmp_path):
    path = write_curve(tmp_path, "circle.txt", circle_curve(n=96))
    code, text = run_cli("symmetry", path)
    assert code == 0
    assert "group order: 1" in text
    assert "none (trivial)" in text


@pytest.mark.filterwarnings("error")
def test_twelve_disjoint_circles_analyze_and_refuse_to_list_g(tmp_path, capsys):
    # G is all 12! loop orders: the canonical code makes none of its 11
    # swaps, and listing G is refused from its order alone
    path = write_curve(tmp_path, "circles12.curve", circles_row(12))
    start = time.perf_counter()
    code, text, _ = run_captured(capsys, ["analyze", path])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "canonical: n0f13o1|.:0.1|.:2.1|" in text
    for argv in (["symmetry", path], ["compare", path, path, "--symplectic"]):
        start = time.perf_counter()
        code, text, err = run_captured(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, text) == (2, "")
        assert err.count("error:") == 1 and "exceeds the budget" in err and "Traceback" not in err


def circles_grid_1600():
    """1600 congruent disjoint 16-sample circles on a 40 x 40 grid, 3 apart."""
    t = 2 * np.pi * np.arange(16) / 16
    ring = np.column_stack([np.cos(t), np.sin(t)])
    return ClosedCurve(tuple(ring + (3.0 * (i % 40), 3.0 * (i // 40)) for i in range(1600)))


@pytest.mark.parametrize("digits", [None, 640, 0], ids=["default", "least", "unlimited"])
def test_huge_group_is_refused_by_its_power_of_ten(tmp_path, capsys, digits):
    # |G| = 1600! has 4434 digits, past the default int-to-string limit of
    # 4300: the refusal names the order by its power of ten, at any limit
    path = write_curve(tmp_path, "circles1600.curve", circles_grid_1600())
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(previous if digits is None else digits)
    try:
        for argv in (["symmetry", path], ["compare", path, path, "--symplectic"]):
            code, text, err = run_captured(capsys, argv)
            assert (code, text) == (2, "")
            assert err == ("error: symmetry group of about 10^4434 elements exceeds the budget "
                           "of 40320 elements\n")
    finally:
        sys.set_int_max_str_digits(previous)


def test_huge_group_is_refused_without_its_factorial(tmp_path, capsys, monkeypatch):
    # log10 |G| = log10 1600! comes from lgamma: refusing G takes no
    # factorial above 30!
    path = write_curve(tmp_path, "circles1600.curve", circles_grid_1600())
    args = []
    factorial = math.factorial

    def spy(k):
        args.append(k)
        return factorial(k)

    monkeypatch.setattr(math, "factorial", spy)
    code, text, err = run_captured(capsys, ["symmetry", path])
    assert (code, text) == (2, "") and "about 10^4434 elements" in err
    assert max(args, default=0) <= 30


# --- realize --------------------------------------------------------------


def test_realize_writes_matching_density(tmp_path):
    path = write_curve(tmp_path, "circle.txt", circle_curve(n=128))
    out = tmp_path / "density.txt"
    code, text = run_cli(
        "realize", path, "3.5", "--grid", "128", "--out", str(out)
    )
    assert code == 0
    assert "density:" in text
    arr = build_arrangement(circle_curve(n=128))
    achieved = integrate_density_over_faces(arr, load_density(out))
    assert abs(achieved[0] - 3.5) < 1e-9


def test_realize_builds_one_face_raster_and_reports_the_written_density(tmp_path, monkeypatch):
    curve = trefoil_curve(n=512)
    path = write_curve(tmp_path, "trefoil.txt", curve)
    out = tmp_path / "density.txt"
    arr = build_arrangement(curve)
    targets = 2.0 * face_areas(arr) + 1.0
    calls = []
    raster = arrangement._face_raster

    def counted(*args):
        calls.append(1)
        return raster(*args)

    monkeypatch.setattr(arrangement, "_face_raster", counted)
    code, text = run_cli("realize", path, *map(repr, targets.tolist()), "--grid", "64",
                         "--out", str(out))
    assert code == 0
    assert len(calls) == 1
    # the reported integrals are those of the file written
    written = integrate_density_over_faces(arr, load_density(out))
    reported = [line.split()[1] for line in text.splitlines() if "(target" in line]
    assert reported == [f"{v:.12g}" for v in written]


def test_realize_infeasible_target(tmp_path):
    path = write_curve(tmp_path, "circle.txt", circle_curve(n=128))
    out = tmp_path / "density.txt"
    code, text = run_cli(
        "realize", path, "0.5", "--grid", "128", "--out", str(out)
    )
    assert code == 1
    assert "infeasible:" in text
    assert not out.exists()


def test_realize_leaking_bump_is_infeasible(tmp_path):
    curve = petal_curve(LEAKING_PETAL)
    path = write_curve(tmp_path, "petal.txt", curve)
    out = tmp_path / "density.txt"
    targets = 2.0 * face_areas(build_arrangement(curve)) + 1.0
    code, text = run_cli("realize", path, *map(repr, targets.tolist()), "--out", str(out))
    assert code == 1
    assert text.startswith("infeasible: ") and "face 1" in text
    assert not out.exists()


def test_realize_rejects_tiny_grid(tmp_path):
    path = write_curve(tmp_path, "circle.txt", circle_curve(n=96))
    with pytest.raises(SystemExit) as err:
        main(["realize", path, "3.5", "--grid", "8", "--out", "x.txt"])
    assert err.value.code == 2


# --- moser ----------------------------------------------------------------


def test_moser_writes_map(tmp_path):
    p0, p1 = write_dipole_pair(tmp_path)
    out = tmp_path / "flow.txt"
    code, text = run_cli("moser", p0, p1, "--steps", "8", "--out", str(out))
    assert code == 0
    assert "support defect:" in text
    flow = load_map(out)
    assert flow.nx == 64 and flow.ny == 64


def test_moser_mismatched_grids(tmp_path):
    p0, _ = write_dipole_pair(tmp_path)
    other = tmp_path / "other.txt"
    save_density(make_density(0.0, 1.0, 0.0, 1.0, np.ones((48, 48))), other)
    code, _ = run_cli("moser", p0, str(other), "--steps", "8", "--out", "x.txt")
    assert code == 2


def test_moser_negative_grid_count(tmp_path):
    p0, _ = write_dipole_pair(tmp_path)
    bad = tmp_path / "negative.txt"
    bad.write_text("density v1\n0 1 0 1 -2 -3\n" + "1 " * 6 + "\n")
    code, _ = run_cli("moser", p0, str(bad), "--steps", "8", "--out", str(tmp_path / "x.txt"))
    assert code == 4


def test_moser_density_dipping_to_zero_exits_2(tmp_path, capsys):
    f0, f1 = dipping_pair()
    p0, p1 = tmp_path / "f0.density", tmp_path / "f1.density"
    save_density(f0, p0)
    save_density(f1, p1)
    out = tmp_path / "flow.map"
    code, text = run_cli("moser", str(p0), str(p1), "--out", str(out))
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: interpolated density hit zero") and "refine the grid" in err
    assert not out.exists()


def huge_values():
    v = np.ones((8, 8))
    v[2:5, 3] = 1.7e308  # the spline's slopes overflow
    return v


def overflow_row():
    v = np.ones((8, 8))
    v[-1, 3] = 3e306  # the last node's cubic overflows
    return v


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [huge_values, overflow_row], ids=["huge-values", "overflow-row"])
def test_moser_overflowing_density_exits_2(tmp_path, capsys, values):
    path = tmp_path / "f.density"
    save_density(make_density(0.0, 1.0, 0.0, 1.0, values()), path)
    out = tmp_path / "flow.map"
    code, text = run_cli("moser", str(path), str(path), "--out", str(out))
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


# --- moduli-dim -----------------------------------------------------------


def write_spec(tmp_path, body):
    path = tmp_path / "spec.txt"
    path.write_text("spec v1\n" + body)
    return str(path)


def test_moduli_dim_e24_plane(tmp_path):
    path = write_spec(tmp_path, "r 1\nsurface plane\nsingular E24\n")
    code, text = run_cli("moduli-dim", path)
    assert code == 0
    assert "dimension: 4" in text


def test_moduli_dim_bounded_surface(tmp_path):
    path = write_spec(tmp_path, "r 2\nsurface bounded\n")
    code, text = run_cli("moduli-dim", path)
    assert code == 0
    assert "faces: 2 - 1 = 1" in text
    assert "dimension: 1" in text


def test_moduli_dim_unknown_singularity(tmp_path):
    path = write_spec(tmp_path, "r 1\nsingular Q99\n")
    code, _ = run_cli("moduli-dim", path)
    assert code == 4


def test_moduli_dim_missing_face_count(tmp_path):
    path = write_spec(tmp_path, "surface plane\n")
    code, _ = run_cli("moduli-dim", path)
    assert code == 4


@pytest.mark.parametrize("text, message", [
    ("spec v2\nr 1\n", "expected header 'spec v1'"),
    ("spec v1\nr one\n", "bad face count 'one'"),
    ("spec v1\nr 1\nsurface torus\n", "unknown surface 'torus'"),
    ("spec v1\nr 1\ngenus 2\n", "unknown spec line 'genus 2'"),
    ("spec v1\nr -1\n", "face count must be non-negative"),
    ("spec v1\nr 0\nsurface bounded\n", "always bounds at least one face"),
], ids=["header", "face-count", "surface", "key", "negative-r", "bounded-r0"])
def test_moduli_dim_refuses_a_bad_spec_file(tmp_path, capsys, text, message):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    code, out, err = run_captured(capsys, ["moduli-dim", str(path)])
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


# --- input files ----------------------------------------------------------


def plain_inputs():
    """Per format: (loader, plain text, function giving the comparable values)."""
    rng = np.random.default_rng(3)
    curve = gerono_curve(n=16)
    density = make_density(0.0, 1.0, -1.0, 2.0, 1.0 + rng.random((5, 4)))
    dispmap = GridMap(0.0, 1.0, -1.0, 2.0, *(0.01 * rng.standard_normal((2, 5, 4))))
    return {
        "curve": (load_curve, serialize_curve(curve), lambda c: [p.tolist() for p in c.loops]),
        "density": (load_density, serialize_density(density),
                    lambda d: (d.x0, d.x1, d.y0, d.y1, d.values.tolist(), d.support_box)),
        "dispmap": (load_map, serialize_map(dispmap),
                    lambda m: (m.x0, m.x1, m.y0, m.y1, m.disp_x.tolist(), m.disp_y.tolist())),
        "spec": (_parse_spec_file, "spec v1\nr 2\nsurface bounded\nsingular E12\n", lambda s: s),
    }


def with_comments(text):
    """The text with full-line, indented and inline comments and blank lines added."""
    out = ["# leading comment", ""]
    for k, line in enumerate(text.splitlines()):
        out.append(f"{line}  # inline {k}")
        if k % 2:
            out += ["   ", "\t# indented comment"]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("fmt", ["curve", "density", "dispmap", "spec"])
def test_comments_and_blank_lines_are_skipped(tmp_path, fmt):
    load, text, values = plain_inputs()[fmt]
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text(text)
    commented.write_text(with_comments(text))
    assert values(load(commented)) == values(load(plain))


def undecodable(tmp_path, fmt):
    """A file of the format with a Latin-1 byte in a comment line."""
    _, text, _ = plain_inputs()[fmt]
    header, rest = text.split("\n", 1)
    path = tmp_path / f"latin1.{fmt}"
    path.write_bytes(f"{header}\n# caf\xe9\n{rest}".encode("latin-1"))
    return str(path)


@pytest.mark.parametrize(
    "fmt, argv",
    [
        ("curve", ["analyze", "{}"]),
        ("density", ["moser", "{}", "{}", "--out", "{out}"]),
        ("spec", ["moduli-dim", "{}"]),
    ],
)
def test_undecodable_input_exits_4(tmp_path, capsys, fmt, argv):
    path = undecodable(tmp_path, fmt)
    out = tmp_path / "out.map"
    code, text = run_cli(*(a.format(path, out=out) for a in argv))
    assert code == 4
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not UTF-8 text") and err.count("\n") == 1
    assert not out.exists()


def test_undecodable_map_file_names_the_file(tmp_path):
    path = undecodable(tmp_path, "dispmap")
    with pytest.raises(FormatError, match="latin1.dispmap: not UTF-8"):
        load_map(path)


# --- numeric options ------------------------------------------------------

NUMERIC_OPTIONS = {
    "--area-tol": ["compare", "{curve}", "{curve}", "--labelled", "--area-tol", "{v}"],
    "--angle-tol": ["render", "{curve}", "--svg", "{out}", "--angle-tol", "{v}"],
    "--sep-tol": ["render", "{curve}", "--svg", "{out}", "--sep-tol", "{v}"],
    "--base-scale": ["realize", "{curve}", "2", "2", "--grid", "32", "--base-scale", "{v}",
                     "--out", "{out}"],
    "targets": ["realize", "{curve}", "{v}", "1", "--grid", "32", "--out", "{out}"],
    "--grid": ["realize", "{curve}", "2", "2", "--grid", "{v}", "--out", "{out}"],
    "--steps": ["moser", "{density}", "{density}", "--steps", "{v}", "--out", "{out}"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("option", list(NUMERIC_OPTIONS))
def test_numeric_options_must_be_finite_and_positive(tmp_path, capsys, option, value):
    curve = write_curve(tmp_path, "eight.txt", gerono_curve(n=64))
    density = tmp_path / "unit.density"
    save_density(make_density(0.0, 1.0, 0.0, 1.0, np.ones((8, 8))), density)
    out = tmp_path / "out.file"
    argv = [a.format(curve=curve, density=density, out=out, v=value)
            for a in NUMERIC_OPTIONS[option]]
    code, text, err = run_captured(capsys, argv)
    assert code == 2
    assert text == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("option, value", [("--grid", "100000"), ("--steps", "1000000000")])
def test_resource_budget_exits_2_at_once(tmp_path, capsys, option, value):
    curve = write_curve(tmp_path, "eight.txt", gerono_curve(n=64))
    density = tmp_path / "unit.density"
    save_density(make_density(0.0, 1.0, 0.0, 1.0, np.ones((8, 8))), density)
    out = tmp_path / "out.file"
    argv = [a.format(curve=curve, density=density, out=out, v=value)
            for a in NUMERIC_OPTIONS[option]]
    code, text, err = run_captured(capsys, argv)
    assert (code, text) == (2, "")
    assert err.count("error:") == 1 and "exceed" in err and "Traceback" not in err
    assert not out.exists()


def test_analyze_tiny_curve_exits_2(tmp_path, capsys):
    eight = gerono_curve(n=64).loops[0]
    path = tmp_path / "tiny.curve"
    path.write_text("curve v1\nloop 64\n" + "".join(f"{x!r} {y!r}\n" for x, y in (1e-20 * eight).tolist()))
    code, text, err = run_captured(capsys, ["analyze", str(path)])
    assert (code, text) == (2, "")
    assert err.count("error:") == 1 and "extent" in err and "Traceback" not in err


@pytest.mark.parametrize("w", [3e-5, 1e-5])
def test_thin_face_exits_2_naming_the_face(tmp_path, capsys, w):
    # generic, but no label point lies 0.002*sqrt(area) inside the band
    band = write_curve(tmp_path, "band.curve", thin_band_curve(w))
    eight = write_curve(tmp_path, "eight.curve", gerono_curve(n=256))
    for argv in (["analyze", band], ["compare", eight, band, "--labelled"],
                 ["compare", band, eight, "--symplectic"]):
        code, text, err = run_captured(capsys, argv)
        assert (code, text) == (2, "")
        assert err.count("error:") == 1 and "narrower than the label search" in err


def test_sharp_fold_is_two_cusps_not_a_crossing(tmp_path, capsys):
    # segments 0 and 2 cross within 1.5 samples: one passage, whose
    # records merge into one germ; the turns that fold it are reported
    path = write_curve(tmp_path, "fold.curve", sharp_fold_curve())
    code, text, err = run_captured(capsys, ["analyze", path])
    assert (code, err) == (2, "")
    assert "generic: no\nviolations: 2\n" in text
    assert [line.split(":")[0].strip() for line in text.splitlines() if "cusp-proxy" in line] == [
        "cusp-proxy at (1, 0)", "cusp-proxy at (0.95, 0.1)"]


# --- render and wiring ----------------------------------------------------


def test_render_writes_svg(tmp_path):
    path = write_curve(tmp_path, "trefoil.txt", trefoil_curve())
    svg = tmp_path / "trefoil.svg"
    code, _ = run_cli("render", path, "--svg", str(svg))
    assert code == 0
    assert "<svg" in svg.read_text()


def run_captured(capsys, argv):
    """Exit code, stdout and stderr of one `main` call, argparse exits included."""
    out = io.StringIO()
    try:
        code = main(list(argv), out=out)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, out.getvalue() + captured.out, captured.err


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    curve = write_curve(tmp_path, "trefoil.txt", trefoil_curve())
    spec = write_spec(tmp_path, "r 2\n")
    unwritten = str(tmp_path / "x.density")
    calls = [
        ["analyze", curve],
        ["symmetry", curve],
        ["compare", curve, curve],  # no mode: argparse exits 2
        ["moduli-dim", spec],
        ["realize", curve, "3.5", "--grid", "8", "--out", unwritten],  # bad type: exit 2
        ["analyze", curve],
        ["--help"],
        ["compare", "--help"],
    ]
    assert cli._build_parser() is cli._build_parser()
    cached = [run_captured(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run_captured(capsys, argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 2, 0, 0, 0]
    assert not Path(unwritten).exists()


COLD_START = """
import io, sys
import symplane, symplane.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

curve, spec, density, work = sys.argv[1:]
calls = [
    ["analyze", curve],
    ["compare", curve, curve, "--labelled"],
    ["compare", curve, curve, "--symplectic"],
    ["symmetry", curve],
    ["realize", curve, "3.5", "--grid", "32", "--out", work + "/circle.density"],
    ["render", curve, "--svg", work + "/circle.svg"],
    ["moduli-dim", spec],
]
for argv in calls:
    assert symplane.cli.main(argv, out=io.StringIO()) == 0, argv
assert not scipy_modules(), scipy_modules()
moser = ["moser", density, density, "--steps", "4", "--out", work + "/flow.map"]
assert symplane.cli.main(moser, out=io.StringIO()) == 0
assert "scipy.interpolate" in sys.modules
"""


def test_cold_start_loads_no_scipy_until_moser(tmp_path):
    # a fresh interpreter: only the Moser flow's spline may load scipy
    curve = write_curve(tmp_path, "circle.txt", circle_curve(n=96))
    spec = write_spec(tmp_path, "r 2\nsurface bounded\n")
    density = tmp_path / "flat.density"
    save_density(make_density(-1.0, 1.0, -1.0, 1.0, np.ones((8, 8))), density)
    src = Path(symplane.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, curve, spec, str(density), str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr


def test_module_invocation_subprocess(tmp_path):
    path = write_curve(tmp_path, "circle.txt", circle_curve(n=96))
    proc = subprocess.run(
        [sys.executable, "-m", "symplane.cli", "analyze", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "generic: yes" in proc.stdout
