"""Acceptance gate: eight end-to-end criteria, one report line each.

Each test prints "criterion N: PASS (...)" before its asserts resolve,
so a -s run reads as a checklist. Tolerances and runtime bounds are
fixed; the randomized criteria use frozen seeds.
"""

from __future__ import annotations

import io
import time
from itertools import permutations

import numpy as np
from conftest import conveyor_pair, gerono_curve, generic_trig_loops, trefoil_curve

from symplane.arrangement import (
    build_arrangement,
    face_areas,
    integrate_density_over_faces,
)
from symplane.cli import main
from symplane.curves import (
    ClosedCurve,
    check_generic,
    resample,
    save_curve,
    transform_curve,
)
from symplane.diagram import symmetry_group
from symplane.forms import (
    make_density,
    moser_interpolation,
    primitive_diffeo,
    pullback,
    realize_area_vector,
    unit_density,
)
from symplane.moduli import (
    CATALOG,
    CurveSpec,
    Surface,
    Verdict,
    moduli_dimension,
    singularity_by_name,
    symplectically_equivalent,
)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# --- 1: trefoil symmetry --------------------------------------------------


def test_criterion_1_trefoil_symmetry():
    start = time.perf_counter()
    arr = build_arrangement(trefoil_curve(n=512))
    group = symmetry_group(arr)
    elapsed = time.perf_counter() - start
    ok = arr.r == 4 and group.degree == 4 and group.order == 3 and elapsed < 1.0
    report(1, ok, f"r={arr.r}, |G|={group.order} in S{group.degree}, {elapsed:.2f}s")


# --- 2: face-count law ----------------------------------------------------


def test_criterion_2_face_count_law():
    start = time.perf_counter()
    checked = 0
    for curve, rep in generic_trig_loops(seed=1021, count=100, n=256):
        arr = build_arrangement(curve, rep)
        # A crossingless loop carries one nominal cell-complex vertex on
        # its single closed edge; double points supply the rest.
        v = len(arr.vertices) + sum(1 for per in arr.passages if not per)
        e = len(arr.half_edges) // 2
        f = len(arr.faces)
        assert arr.r == len(rep.double_points) + 1
        assert v - e + f == 2
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 100 and elapsed < 60.0
    report(2, ok, f"{checked} curves, exact, {elapsed:.1f}s")


# --- 3: symplectic invariance of the area vector --------------------------


def random_unit_jacobian(rng):
    """A random area-preserving affine map built from shears and rotations.

    Shear strength stays below 0.5: a crossing angle shrinks by at most
    the squared condition number (about 7x for the worst composition),
    so images of 0.1-transversal crossings stay above the 0.01 guard.
    """
    th = rng.uniform(0.0, 2.0 * np.pi)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    shx = np.array([[1.0, rng.uniform(-0.5, 0.5)], [0.0, 1.0]])
    shy = np.array([[1.0, 0.0], [rng.uniform(-0.5, 0.5), 1.0]])
    mat = (rot, shx, shy, rot @ shx @ shy)[rng.integers(0, 4)]
    shift = rng.uniform(-1.0, 1.0, size=2)
    return mat, shift


def max_turning(curve):
    pts = curve.loops[0]
    d = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    ang = np.arctan2(d[:, 1], d[:, 0])
    turn = np.abs((np.diff(np.append(ang, ang[0])) + np.pi) % (2 * np.pi) - np.pi)
    return float(np.max(turn))


def petal_loops(seed, count, n=256):
    """Generic lobed loops with mild curvature and varied crossing counts.

    Large low-frequency lobes produce 1 to 8 double points while keeping
    discrete turning under 0.35, so a shear's curvature gain (up to 4.3x)
    cannot push the image past the cusp guard.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(2, 4))
        a = rng.uniform(1.3, 2.4)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        b = rng.uniform(-0.25, 0.25)
        t = 2.0 * np.pi * np.arange(n) / n
        x = np.sin(t) + a * np.sin(k * t + ph1) + b * np.cos((k + 1) * t)
        y = np.cos(t) - a * np.cos(k * t + ph2) + b * np.sin((k + 1) * t)
        curve = resample(ClosedCurve((np.column_stack([x, y]),)), n)
        if check_generic(curve).is_generic and max_turning(curve) <= 0.35:
            out.append(curve)
    return out


def test_criterion_3_symplectic_invariance(tmp_path):
    rng = np.random.default_rng(40317)
    worst = 0.0
    pairs = 0
    for curve in petal_loops(seed=977, count=25):
        path_a = tmp_path / "a.txt"
        save_curve(curve, path_a)
        for _ in range(10):
            mat, shift = random_unit_jacobian(rng)
            # 512 samples on the image: shears raise curvature peaks, so
            # the finer sampling keeps discrete turning angles below the
            # cusp guard while also tightening the polygon areas.
            image = resample(
                transform_curve(curve, lambda p: p @ mat.T + shift), 512
            )
            path_b = tmp_path / "b.txt"
            save_curve(image, path_b)
            out = io.StringIO()
            code = main(
                ["compare", str(path_a), str(path_b), "--labelled",
                 "--area-tol", "1e-3", "--angle-tol", "0.01"],
                out=out,
            )
            assert code == 0, out.getvalue()
            text = out.getvalue()
            disc = float(text.split("max area discrepancy: ")[1].split("\n")[0])
            worst = max(worst, disc)
            pairs += 1
    ok = pairs == 250
    report(3, ok, f"{pairs} pairs exit 0, worst discrepancy {worst:.2e}")


# --- 4: cone surjectivity -------------------------------------------------


def test_criterion_4_cone_surjectivity():
    rng = np.random.default_rng(5881)
    worst_rel = 0.0
    worst_time = 0.0
    cases = []
    for curve in (gerono_curve(n=256), trefoil_curve(n=512)):
        arr = build_arrangement(curve)
        base = face_areas(arr)
        for _ in range(3):
            target = base + rng.uniform(0.1, 1.5, size=arr.r)
            cases.append((arr, target))
    for arr, target in cases:
        start = time.perf_counter()
        density, _ = realize_area_vector(arr, target, grid_n=256)
        achieved = integrate_density_over_faces(arr, density)
        elapsed = time.perf_counter() - start
        rel = float(np.max(np.abs(achieved - target)) / np.max(target))
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
    ok = worst_rel <= 1e-3 and worst_time < 5.0
    report(4, ok, f"{len(cases)} cases, rel err {worst_rel:.1e}, "
                  f"slowest {worst_time:.2f}s")


# --- 5: primitive map round trip ------------------------------------------


def two_bump_density(n):
    """Smooth positive density, exactly 1 outside two mollifier bumps."""
    xs = np.linspace(-2.0, 2.0, n)
    ys = np.linspace(-2.0, 2.0, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = np.ones_like(X)
    for amp, radius, cx, cy in ((0.3, 1.3, -0.4, 0.3), (0.2, 1.0, 0.7, -0.5)):
        r2 = ((X - cx) ** 2 + (Y - cy) ** 2) / radius**2
        inside = r2 < 1.0
        vals[inside] += amp * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return make_density(-2.0, 2.0, -2.0, 2.0, vals)


def roundtrip_defect(n):
    omega = two_bump_density(n)
    psi = primitive_diffeo(omega)
    back = pullback(psi, unit_density(-2.0, 2.0, -2.0, 2.0, n, n))
    return float(np.max(np.abs(back.values - omega.values)))


def test_criterion_5_primitive_roundtrip():
    coarse = roundtrip_defect(128)
    fine = roundtrip_defect(512)
    ratio = coarse / fine
    ok = fine <= 1e-4 and ratio >= 4.0
    report(5, ok, f"defect {fine:.2e} at 512^2, ratio 128->512 {ratio:.1f}x")


# --- 6: interpolation flow contract ---------------------------------------


def flow_defect(f0, f1, steps):
    rho = moser_interpolation(f0, f1, steps=steps)
    back = pullback(rho, f1)
    return float(np.max(np.abs(back.values - f0.values)))


def test_criterion_6_moser_contract():
    results = []
    ok = True
    for eps in (0.16, 0.17):
        f0, f1 = conveyor_pair(eps)
        d64 = flow_defect(f0, f1, 64)
        d128 = flow_defect(f0, f1, 128)
        ratio = d64 / d128
        results.append(f"eps={eps}: {d64:.2e} at 64 steps, x{ratio:.1f}")
        ok = ok and d64 <= 1e-3 and ratio >= 3.0
    report(6, ok, "; ".join(results))


# --- 7: moduli dimensions -------------------------------------------------


def test_criterion_7_moduli_dimensions():
    e24 = moduli_dimension(
        CurveSpec(r=1, unstable_points=(singularity_by_name("E24"),))
    )
    dims = tuple(CATALOG[name].dimension for name in ("A2", "E12", "W18", "E24"))
    bounded_ok = all(
        moduli_dimension(CurveSpec(r=r, surface=Surface.BOUNDED_SURFACE)) == r - 1
        for r in (1, 2, 5)
    )
    ok = e24 == 4 and dims == (0, 1, 2, 3) and bounded_ok
    report(7, ok, f"E24+injective={e24}, catalog={dims}, bounded r->r-1")


# --- 8: orbit classification ----------------------------------------------


def test_criterion_8_orbit_classification(trefoil512):
    arr = build_arrangement(trefoil512)
    group = symmetry_group(arr)
    allowed = set(map(tuple, group.face_perms.tolist()))
    g = next(p for p in allowed if p != tuple(range(4)))
    center = next(j for j in range(4) if g[j] == j)
    petals = [j for j in range(4) if j != center]

    areas = np.empty(4)
    areas[center] = 0.5
    for value, j in zip((1.1, 2.3, 3.7), petals):
        areas[j] = value

    def relabelled(sigma):
        out = np.empty(4)
        for j in range(4):
            out[sigma[j]] = areas[j]
        return out

    def decide(other):
        return symplectically_equivalent(
            arr, arr, areas_a=areas, areas_b=other
        ).verdict

    three_cycle_ok = decide(relabelled(g)) is Verdict.EQUIVALENT

    swap = list(range(4))
    swap[petals[0]], swap[petals[1]] = swap[petals[1]], swap[petals[0]]
    transposition_ok = decide(relabelled(tuple(swap))) is Verdict.INEQUIVALENT

    oracle_ok = True
    for sigma in permutations(range(4)):
        verdict = decide(relabelled(sigma))
        expected = (
            Verdict.EQUIVALENT if sigma in allowed else Verdict.INEQUIVALENT
        )
        if verdict is not expected:
            oracle_ok = False
            break

    ok = three_cycle_ok and transposition_ok and oracle_ok
    report(8, ok, "3-cycle equivalent, transposition inequivalent, "
                  "24/24 oracle agreement")
