"""Rewrite the golden CLI corpus and print which calls changed.

    python tests/golden/regen.py

Writes each input file of `_inputs()` into tests/golden/inputs only when it
is missing, so committed inputs never move (their generation uses
np.sin and np.exp, whose last bits may vary by platform). Then runs
every call of CALLS as tests/test_golden.py does and rewrites
manifest.json. A changed call must be listed, with its reason, in
CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TESTS = HERE.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

import numpy as np  # noqa: E402
from conftest import (  # noqa: E402
    circle_curve,
    circles_row,
    conveyor_pair,
    cusp_curve,
    dip_bump_pair,
    dipping_pair,
    eights_row,
    gerono_curve,
    sharp_fold_curve,
    tangent_circles_curve,
    thin_band_curve,
    trefoil_curve,
    trifolium_curve,
)
from test_golden import INPUTS, MANIFEST, platform_key, run_corpus  # noqa: E402

from symplane.curves import ClosedCurve, serialize_curve, transform_curve  # noqa: E402
from symplane.forms import make_density, serialize_density  # noqa: E402

# calls that write full-precision results of np.exp or of a LAPACK solve
PLATFORM_REASONS = {
    "realize": "the bump profile's np.exp takes a CPU-dependent SIMD path",
    "moser": "the flow's CubicSpline solves through LAPACK",
}
PLATFORM_RTOL = 1e-9


def _turned(curve, theta):
    c, s = np.cos(theta), np.sin(theta)
    return transform_curve(curve, lambda p: p @ np.array([[c, -s], [s, c]]).T)


def _bump_pair(n=16, a=0.5, radius=0.7):
    """Unit densities plus one bump each, at x = 0.8 and x = 2.4."""
    x0, x1, y0, y1 = -0.5, 3.7, -1.2, 1.2
    X, Y = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n), indexing="ij")

    def bump(cx):
        r2 = ((X - cx) ** 2 + Y**2) / radius**2
        out = np.zeros_like(X)
        out[r2 < 1.0] = np.exp(1.0 - 1.0 / (1.0 - r2[r2 < 1.0]))
        return make_density(x0, x1, y0, y1, 1.0 + a * out)

    return bump(0.8), bump(2.4)


def _inputs():
    """File name -> text (or bytes) of every input file."""
    eight = gerono_curve(n=128)
    row = eights_row(3)
    moved = eights_row(3, (2, 0, 1), (64, 3, 0))
    centre = np.array([6.0, 0.0])  # loop 0 of `moved` sits in slot 2
    shrunk = ClosedCurve((centre + 0.8 * (moved.loops[0] - centre),) + moved.loops[1:])
    near = ClosedCurve(circle_curve(n=96).loops + circle_curve(n=96, center=(2.003, 0.0)).loops)
    holed = ClosedCurve((circle_curve(n=128, radius=3.0).loops[0], eight.loops[0]))
    overflow = circle_curve(n=16).loops[0].tolist()
    overflow[5] = [1e308, 1e308]
    repeated = circle_curve(n=16).loops[0].tolist()
    repeated[5] = repeated[4]
    row5 = eights_row(5)
    bump0, bump1 = _bump_pair()
    dip0, dip1 = dipping_pair()
    rows0, rows1 = dip_bump_pair(np.random.default_rng(3), 24)
    conveyor0, conveyor1 = conveyor_pair(0.17, nx=64, ny=4)  # every row repeats, none blank
    edge = np.ones((8, 8))
    edge[5:, 3] = 1e5, 1e5, 1e-300  # a tiny last node beside large values, on one row
    huge = np.ones((8, 8))
    huge[2:5, 3] = 1.7e308  # the spline's slopes overflow
    overflow_row = np.ones((8, 8))
    overflow_row[-1, 3] = 3e306  # the last node's cubic overflows
    curves = {
        "circle": circle_curve(n=64),
        "eight": eight,
        "eight-sheared": transform_curve(eight, lambda p: p @ np.array([[1.0, 0.3], [0.0, 1.0]]).T),
        "eight-scaled": transform_curve(eight, lambda p: 1.2 * p),
        "mirror": transform_curve(eight, lambda p: p * (-1.0, 1.0)),
        "trefoil": trefoil_curve(n=256),
        "trefoil-turned": _turned(trefoil_curve(n=256), 2 * np.pi / 3),
        "row3": row,
        "row3-moved": moved,
        "row3-shrunk": shrunk,
        "row5": row5,
        "row5-reordered": ClosedCurve(row5.loops[::-1]),
        "holed": holed,
        # the loops in reverse order, each starting a third of its samples later
        "holed-reversed": ClosedCurve(tuple(np.roll(loop, len(loop) // 3 + 1, axis=0)
                                            for loop in holed.loops[::-1])),
        "near": near,
        "cusp": cusp_curve(),
        "sharp-fold": sharp_fold_curve(),
        "tangent-circles": tangent_circles_curve(),
        "trifolium": trifolium_curve(),
        "thin-band": thin_band_curve(3e-5),
        "circles12": circles_row(12),
        # 12 concentric rings of radii 1 + 0.05 i: G is trivial
        "rings12": ClosedCurve(tuple(circle_curve(n=64, radius=1.0 + 0.05 * i).loops[0]
                                     for i in range(12))),
    }
    files = {f"{name}.curve": serialize_curve(c) for name, c in curves.items()}
    # written by hand: a ClosedCurve refuses this sample
    files["overflow.curve"] = "curve v1\nloop 16\n" + "".join(f"{x!r} {y!r}\n" for x, y in overflow)
    # loop 0 repeats a sample and loop 1 is too short: the first error is loop 0's
    files["loop-errors.curve"] = (
        "curve v1\nloop 16\n" + "".join(f"{x!r} {y!r}\n" for x, y in repeated)
        + "loop 5\n" + "".join(f"{x!r} {y!r}\n" for x, y in repeated[:5])
    )
    files["malformed.curve"] = "curve v1\nnot a number\n"
    files["short.curve"] = "curve v1\nloop 3\n0 0\n1 0\n"
    files["latin1.curve"] = b"curve v1\n# caf\xe9\n" + serialize_curve(eight).split("\n", 1)[1].encode()
    densities = {"bump0": bump0, "bump1": bump1, "dip0": dip0, "dip1": dip1,
                 "rows0": rows0, "rows1": rows1,
                 "conveyor0": conveyor0, "conveyor1": conveyor1,
                 "edge": make_density(0.0, 1.0, 0.0, 1.0, edge),
                 "huge": make_density(0.0, 1.0, 0.0, 1.0, huge),
                 "overflow-row": make_density(0.0, 1.0, 0.0, 1.0, overflow_row),
                 "coarse": make_density(0.0, 1.0, 0.0, 1.0, np.ones((8, 8)))}
    for name, d in densities.items():
        files[f"{name}.density"] = serialize_density(d)
    files["commented.density"] = "# the bump at x = 0.8\n" + serialize_density(bump0)
    ones = " ".join(["1.0"] * 4) + "\n"
    files["neginf.density"] = "density v1\n-inf 1.0 0.0 1.0 4 4\n" + ones * 4
    files["wide.density"] = "density v1\n-1e308 1e308 0.0 1.0 4 4\n" + ones * 4
    files["flat.density"] = "density v1\n0.0 0.0 0.0 1.0 4 4\n" + ones * 4
    files["negcount.density"] = "density v1\n0 1 0 1 -2 -3\n" + ones
    files["zero.density"] = "density v1\n0.0 1.0 0.0 1.0 4 4\n" + ones * 3 + "1.0 0.0 1.0 1.0\n"
    files["e24.spec"] = "spec v1\nr 3\nsingular E24\n"
    files["bounded.spec"] = "spec v1\n# a two-face curve on a bounded surface\nr 2\nsurface bounded\n"
    files["unknown.spec"] = "spec v1\nr 2\nsingular Z99\n"
    files["no-r.spec"] = "spec v1\nsurface plane\n"
    return files


CALLS = [
    # analyze
    ("analyze-circle", ["analyze", "circle.curve"]),
    ("analyze-eight-svg", ["analyze", "eight.curve", "--svg", "eight.svg"]),
    ("analyze-trefoil", ["analyze", "trefoil.curve"]),
    ("analyze-holed", ["analyze", "holed.curve"]),
    ("analyze-holed-reversed", ["analyze", "holed-reversed.curve"]),
    ("analyze-near-sep-tol", ["analyze", "near.curve", "--sep-tol", "0.01"]),
    ("analyze-cusp", ["analyze", "cusp.curve"]),
    ("analyze-sharp-fold", ["analyze", "sharp-fold.curve"]),
    ("analyze-thin-band", ["analyze", "thin-band.curve"]),
    ("analyze-missing", ["analyze", "missing.curve"]),
    ("analyze-malformed", ["analyze", "malformed.curve"]),
    ("analyze-short", ["analyze", "short.curve"]),
    ("analyze-latin1", ["analyze", "latin1.curve"]),
    ("analyze-overflow", ["analyze", "overflow.curve"]),
    ("analyze-loop-errors", ["analyze", "loop-errors.curve"]),
    ("analyze-angle-tol-nan", ["analyze", "eight.curve", "--angle-tol", "nan"]),
    ("analyze-angle-tol-inf", ["analyze", "eight.curve", "--angle-tol", "inf"]),
    ("analyze-angle-tol-zero", ["analyze", "eight.curve", "--angle-tol", "0"]),
    ("analyze-sep-tol-nan", ["analyze", "eight.curve", "--sep-tol", "nan"]),
    ("analyze-circles12", ["analyze", "circles12.curve"]),
    ("analyze-rings12", ["analyze", "rings12.curve"]),
    # the crossing angles and merged strand germs of non-generic crossings
    ("analyze-tangent-circles", ["analyze", "tangent-circles.curve"]),
    ("analyze-eight-angle-tol-large", ["analyze", "eight.curve", "--angle-tol", "1.5"]),
    ("analyze-trifolium", ["analyze", "trifolium.curve"]),
    # compare
    ("compare-labelled-equivalent", ["compare", "eight.curve", "eight-sheared.curve", "--labelled"]),
    ("compare-labelled-inequivalent", ["compare", "eight.curve", "eight-scaled.curve", "--labelled"]),
    ("compare-labelled-row5-reordered",
     ["compare", "row5.curve", "row5-reordered.curve", "--labelled"]),
    ("compare-labelled-incomparable", ["compare", "eight.curve", "circle.curve", "--labelled"]),
    ("compare-symplectic-turned", ["compare", "trefoil.curve", "trefoil-turned.curve", "--symplectic"]),
    ("compare-symplectic-moved", ["compare", "row3.curve", "row3-moved.curve", "--symplectic"]),
    ("compare-symplectic-shrunk", ["compare", "row3.curve", "row3-shrunk.curve", "--symplectic"]),
    ("compare-symplectic-row5-reordered",
     ["compare", "row5.curve", "row5-reordered.curve", "--symplectic"]),
    ("compare-labelled-holed-reversed",
     ["compare", "holed.curve", "holed-reversed.curve", "--labelled"]),
    ("compare-symplectic-holed-reversed",
     ["compare", "holed.curve", "holed-reversed.curve", "--symplectic"]),
    ("compare-symplectic-circles12",
     ["compare", "circles12.curve", "circles12.curve", "--symplectic"]),
    ("compare-symplectic-incomparable", ["compare", "eight.curve", "trefoil.curve", "--symplectic"]),
    ("compare-not-generic", ["compare", "cusp.curve", "eight.curve", "--labelled"]),
    ("compare-no-mode", ["compare", "eight.curve", "eight.curve"]),
    ("compare-labelled-area-tol-nan",
     ["compare", "eight.curve", "eight.curve", "--labelled", "--area-tol", "nan"]),
    ("compare-symplectic-area-tol-nan",
     ["compare", "eight.curve", "eight.curve", "--symplectic", "--area-tol", "nan"]),
    ("compare-labelled-area-tol-inf",
     ["compare", "eight.curve", "eight-scaled.curve", "--labelled", "--area-tol", "inf"]),
    ("compare-area-tol-negative",
     ["compare", "eight.curve", "eight.curve", "--labelled", "--area-tol", "-1"]),
    # symmetry
    ("symmetry-trefoil", ["symmetry", "trefoil.curve"]),
    ("symmetry-circle", ["symmetry", "circle.curve"]),
    ("symmetry-row5", ["symmetry", "row5.curve"]),
    ("symmetry-mirror", ["symmetry", "mirror.curve"]),
    ("symmetry-holed", ["symmetry", "holed.curve"]),
    ("symmetry-circles12", ["symmetry", "circles12.curve"]),
    # realize
    ("realize-eight", ["realize", "eight.curve", "2", "2", "--grid", "64", "--out", "eight.density"]),
    ("realize-eight-base-scale",
     ["realize", "eight.curve", "1.3", "1.3", "--grid", "64", "--base-scale", "0.5",
      "--out", "scaled.density"]),
    ("realize-infeasible", ["realize", "eight.curve", "0.01", "0.01", "--grid", "64",
                            "--out", "infeasible.density"]),
    ("realize-target-count", ["realize", "eight.curve", "2", "--grid", "64", "--out", "count.density"]),
    ("realize-target-nan", ["realize", "eight.curve", "nan", "1", "--grid", "64", "--out", "nan.density"]),
    ("realize-target-inf", ["realize", "eight.curve", "inf", "1", "--grid", "64", "--out", "inf.density"]),
    ("realize-grid-too-small", ["realize", "eight.curve", "2", "2", "--grid", "16", "--out", "tiny.density"]),
    ("realize-not-generic", ["realize", "cusp.curve", "2", "--grid", "64", "--out", "cusp.density"]),
    # moser
    ("moser-bump", ["moser", "bump0.density", "bump1.density", "--steps", "8", "--out", "bump.map"]),
    ("moser-commented", ["moser", "commented.density", "bump1.density", "--steps", "4",
                         "--out", "commented.map"]),
    ("moser-dip", ["moser", "dip0.density", "dip1.density", "--out", "dip.map"]),
    ("moser-still-rows", ["moser", "rows0.density", "rows1.density", "--steps", "8",
                          "--out", "rows.map"]),
    ("moser-conveyor", ["moser", "conveyor0.density", "conveyor1.density", "--steps", "8",
                        "--out", "conveyor.map"]),
    ("moser-identical", ["moser", "bump1.density", "bump1.density", "--steps", "4",
                         "--out", "same.map"]),
    ("moser-edge-row", ["moser", "edge.density", "edge.density", "--steps", "8",
                        "--out", "edge.map"]),
    ("moser-huge-values", ["moser", "huge.density", "huge.density", "--out", "huge.map"]),
    ("moser-overflow-row", ["moser", "overflow-row.density", "overflow-row.density",
                            "--out", "overflow-row.map"]),
    ("moser-mismatched-grids", ["moser", "bump0.density", "coarse.density", "--out", "mismatch.map"]),
    ("moser-negative-count", ["moser", "bump0.density", "negcount.density", "--out", "negcount.map"]),
    ("moser-neginf-domain", ["moser", "neginf.density", "neginf.density", "--out", "neginf.map"]),
    ("moser-wide-domain", ["moser", "wide.density", "wide.density", "--out", "wide.map"]),
    ("moser-flat-domain", ["moser", "flat.density", "flat.density", "--out", "flat.map"]),
    ("moser-zero-value", ["moser", "zero.density", "zero.density", "--out", "zero.map"]),
    ("moser-steps-too-few", ["moser", "bump0.density", "bump1.density", "--steps", "3",
                             "--out", "few.map"]),
    # moduli-dim
    ("moduli-dim-e24", ["moduli-dim", "e24.spec"]),
    ("moduli-dim-bounded", ["moduli-dim", "bounded.spec"]),
    ("moduli-dim-unknown", ["moduli-dim", "unknown.spec"]),
    ("moduli-dim-no-r", ["moduli-dim", "no-r.spec"]),
    # render
    ("render-eight", ["render", "eight.curve", "--svg", "render-eight.svg"]),
    ("render-holed", ["render", "holed.curve", "--svg", "render-holed.svg"]),
    ("render-not-generic", ["render", "cusp.curve", "--svg", "cusp.svg"]),
]


def main():
    INPUTS.mkdir(exist_ok=True)
    for name, content in _inputs().items():
        path = INPUTS / name
        if not path.exists():
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
    old = {}
    if MANIFEST.exists():
        old = {c["name"]: c for c in json.loads(MANIFEST.read_text(encoding="utf-8"))["calls"]}
    os.environ["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal
    calls = [{"name": name, "argv": argv} for name, argv in CALLS]
    with tempfile.TemporaryDirectory() as work:
        results = run_corpus(work, calls)
    for call, result in zip(calls, results):
        call.update(result)
        if reason := PLATFORM_REASONS.get(call["argv"][0]):
            if any(h is not None for h in result["files"].values()):
                call["tolerance"] = {"rtol": PLATFORM_RTOL, "reason": reason}
        before = old.get(call["name"])
        if before is None:
            print(f"new: {call['name']}")
        elif before != call:
            print(f"changed: {call['name']}")
    for name in old.keys() - {c["name"] for c in calls}:
        print(f"removed: {name}")
    manifest = {"platform": platform_key(), "calls": calls}
    MANIFEST.write_text(json.dumps(manifest, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
