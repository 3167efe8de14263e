"""Shows that every output check rejects a deliberately wrong output.

    python3 bench/selftest.py

Runs each command once on a small input, confirms that the check
accepts the real output, then feeds it altered copies (a wrong count, a
wrong verdict, a moved area, a density with mass taken out, a map that
leaks) and confirms each is rejected. Exits 1 if any wrong output passes.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks as C  # noqa: E402
import inputs as I  # noqa: E402
from symplane.cli import main  # noqa: E402

WORK = BENCH / "out" / "selftest"
failures = []


def run(*argv):
    out = io.StringIO()
    code = main([str(a) for a in argv], out=out)
    return code, out.getvalue()


def accepts(name, fn, *args):
    try:
        fn(*args)
    except C.CheckFailed as exc:
        failures.append(f"{name}: real output rejected ({exc})")


def rejects(name, fn, *args):
    try:
        fn(*args)
    except (C.CheckFailed, KeyError, ValueError, IndexError):
        return
    failures.append(f"{name}: wrong output accepted")


def swap_line(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


def grid_text(tag, domain, values):
    """density (values (nx, ny)) or dispmap (values (nx, ny, 2)) file text."""
    x0, x1, y0, y1 = domain
    nx, ny = values.shape[:2]
    rows = [f"{tag} v1", f"{x0!r} {x1!r} {y0!r} {y1!r} {nx} {ny}"]
    flat = values.reshape(nx, ny, -1)
    for j in range(ny):
        rows.append(" ".join(" ".join(repr(float(v)) for v in flat[i, j]) for i in range(nx)))
    return "\n".join(rows) + "\n"


def main_selftest():
    WORK.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)

    # analyze, and the s^2 covariance of a scaled copy
    pts = I.trefoil_points(256)
    path, scaled = WORK / "t.curve", WORK / "t-scaled.curve"
    I.write_curve(path, [pts])
    I.write_curve(scaled, [1.5 * pts])
    bounds = I.face_area_bounds([pts], -3.3, 3.3, -3.3, 3.3, 513, 513)
    code, text = run("analyze", path)
    accepts("analyze", C.check_analyze, code, text, 3, bounds)
    rejects("analyze exit", C.check_analyze, 2, text, 3, bounds)
    rejects("analyze double points", C.check_analyze, code,
            swap_line(text, "double points: 3", "double points: 4"), 3, bounds)
    rejects("analyze Euler", C.check_analyze, code, swap_line(text, "faces: 5", "faces: 6"), 3, bounds)
    rejects("analyze face count", C.check_analyze, code,
            swap_line(text, "bounded faces: 4", "bounded faces: 5"), 3, bounds)
    rejects("analyze area sign", C.check_analyze, code, swap_line(text, "  1: ", "  1: -"), 3, bounds)
    first = C.block(text, "areas")[0].split()[1]
    rejects("analyze area sum", C.check_analyze, code,
            swap_line(text, f"  1: {first}\n", f"  1: {1.5 * float(first)!r}\n"), 3, bounds)
    areas = C.check_analyze(code, text, 3, bounds)
    code, stext = run("analyze", scaled)
    big = C.check_analyze(code, stext, 3, (2.25 * bounds[0], 2.25 * bounds[1]))
    accepts("scaled areas", C.check_scaled_areas, areas, big, 1.5)
    wrong = big.copy()
    wrong[0] *= 1.0 + 1e-6
    rejects("scaled areas", C.check_scaled_areas, areas, wrong, 1.5)
    rejects("scaled factor", C.check_scaled_areas, areas, big, 1.4)

    # compare: verdicts, exit codes, face maps, discrepancy bound
    turned = WORK / "t-turned.curve"
    I.write_curve(turned, [pts @ I.rotation(2.0 * np.pi / 3.0).T])
    code, text = run("compare", path, turned, "--symplectic")
    accepts("compare", C.check_verdict, code, text, "EQUIVALENT", 4, areas.max())
    rejects("compare verdict", C.check_verdict, code, swap_line(text, "EQUIVALENT", "INEQUIVALENT"), "EQUIVALENT", 4)
    rejects("compare exit", C.check_verdict, 1, text, "EQUIVALENT", 4)
    pairs = C.fields(text)["face map"]
    bad_map = " ".join(p.split("->")[0] + "->1" for p in pairs.split())
    rejects("compare face map", C.check_verdict, code, swap_line(text, pairs, bad_map), "EQUIVALENT", 4)
    disc = C.fields(text)["max area discrepancy"]
    rejects("compare discrepancy", C.check_verdict, code,
            swap_line(text, f"max area discrepancy: {disc}", "max area discrepancy: 0.5"),
            "EQUIVALENT", 4, areas.max())
    code, text = run("compare", path, scaled, "--labelled")
    accepts("compare inequivalent", C.check_verdict, code, text, "INEQUIVALENT", 4)
    rejects("compare inequivalent", C.check_verdict, 0, swap_line(text, "INEQUIVALENT", "EQUIVALENT"),
            "INEQUIVALENT", 4)

    # symmetry: group order, element list
    code, text = run("symmetry", path)
    accepts("symmetry", C.check_symmetry, code, text, 4, 3, 3, None)
    rejects("symmetry order", C.check_symmetry, code, swap_line(text, "group order: 3", "group order: 6"), 4, 3, 3, None)
    rejects("symmetry elements", C.check_symmetry, code, text.rsplit("  faces", 1)[0], 4, 3, 3, None)
    rejects("symmetry divides", C.check_symmetry, code, text, 4, 3, None, 4)
    rejects("symmetry marked", C.check_symmetry, code, swap_line(text, "marked vertices: 3", "marked vertices: 2"),
            4, 3, 3, None)

    # realize: targets, positivity, unit outside the bbox, excess mass
    (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
    targets = list(60.0 + 10.0 * rng.random(4))
    out = WORK / "t.density"
    code, text = run("realize", path, *targets, "--grid", 96, "--out", out)
    density = out.read_text()
    domain, vals = I.read_grid(density, "density", 1)
    vals = vals[:, :, 0]

    def realize_check(code, text, density_text):
        C.check_realize(code, text, targets, density_text, (x0, x1, y0, y1),
                        lambda dom, nx, ny: I.face_area_bounds([pts], *dom, nx, ny))

    accepts("realize", realize_check, code, text, density)
    first = C.block(text, "face integrals")[0].split()[1]
    rejects("realize integral", realize_check, code, swap_line(text, f"1: {first} ", f"1: {float(first) + 1} "), density)
    negative = vals.copy()
    negative[vals.shape[0] // 2, vals.shape[1] // 2] = -1.0
    rejects("realize positive", realize_check, code, text, grid_text("density", domain, negative))
    corner = vals.copy()
    corner[0, 0] = 1.5
    rejects("realize unit outside", realize_check, code, text, grid_text("density", domain, corner))
    thin = 1.0 + 0.9 * (vals - 1.0)
    rejects("realize excess mass", realize_check, code, text, grid_text("density", domain, thin))

    # moser: horizontal, monotone rows, row mass, support defect
    domain, f0, f1, support = I.dip_bump_pair(rng, 48)
    p0, p1, out = WORK / "f0.density", WORK / "f1.density", WORK / "f.map"
    I.write_density(p0, domain, f0)
    I.write_density(p1, domain, f1)
    code, text = run("moser", p0, p1, "--steps", 32, "--out", out)
    mapping = out.read_text()
    mdomain, disp = I.read_grid(mapping, "dispmap", 2)
    accepts("moser", C.check_moser, code, text, mapping, f0, f1, support)
    tilted = disp.copy()
    tilted[5, 5, 1] = 1e-3
    rejects("moser horizontal", C.check_moser, code, text, grid_text("dispmap", mdomain, tilted), f0, f1, support)
    folded = disp.copy()
    folded[20, 24, 0] += 0.5
    rejects("moser monotone", C.check_moser, code, text, grid_text("dispmap", mdomain, folded), f0, f1, support)
    still = np.zeros_like(disp)
    rejects("moser row mass", C.check_moser, code, text, grid_text("dispmap", mdomain, still), f0, f1, support)
    leaky = disp.copy()
    leaky[1, 1, 0] = 1e-6
    rejects("moser support", C.check_moser, code, text, grid_text("dispmap", mdomain, leaky), f0, f1, support)
    rejects("moser exit", C.check_moser, 4, text, mapping, f0, f1, support)

    if failures:
        print("\n".join(failures))
        return 1
    print("selftest: every check accepts the real output and rejects each wrong one")
    return 0


if __name__ == "__main__":
    sys.exit(main_selftest())
