"""Output checks: properties each command's report must have.

Every expected value is computed by the benchmark from the inputs it
generated (crossings found by its own sweep, face areas bounded by its
own raster, row masses by its own trapezoid sums), never read from a
stored copy of an earlier run. A check raises CheckFailed with a reason;
``selftest.py`` feeds each check a deliberately wrong output to show
that it does.
"""

from __future__ import annotations

import numpy as np

from inputs import read_grid

EXIT_FOR = {"EQUIVALENT": 0, "INEQUIVALENT": 1}
AREA_TOL = 1e-3
SCALE_RTOL = 1e-9  # uniform scaling multiplies polygon areas exactly, up to roundoff
REALIZE_RTOL = 1e-6  # realize's own drift guard is 1e-9 of the largest target
DEFECT_TOL = 1e-9  # displacement allowed outside the supports of a zero-row-integral pair
# Row mass conservation is checked with the benchmark's own trapezoid
# primitives and linear interpolation, an O(h^2) scheme independent of
# the program's splines. Measured residuals are 3e-5 to 1e-3 of the row
# mass; a map that leaves the bump in place misses by about 0.1.
ROW_MASS_RTOL = 5e-3


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def fields(text):
    """First value of every unindented 'key: value' line."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            out.setdefault(key, value)
    return out


def block(text, header):
    """Indented lines following the line 'header:'."""
    lines = text.splitlines()
    try:
        start = lines.index(f"{header}:") + 1
    except ValueError:
        raise CheckFailed(f"report has no '{header}:' block") from None
    out = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        out.append(line.strip())
    return out


def check_analyze(code, text, crossings, area_bounds):
    """Single loop with `crossings` double points: face-count law, Euler sum,
    and a total face area within the benchmark's raster `area_bounds`.

    Returns the labelled areas for later covariance checks.
    """
    expect(code == 0, f"analyze exit {code}")
    f = fields(text)
    expect(f.get("generic") == "yes", "curve not certified generic")
    expect(int(f["double points"]) == crossings,
           f"{f['double points']} double points, sweep finds {crossings}")
    v, e, faces = (int(w) for w in f["vertices"].replace("edges:", "").replace("faces:", "").split())
    expect(v == crossings, f"{v} vertices for {crossings} crossings")
    expect(v - e + faces == 2, f"V - E + F = {v - e + faces}, not 2")
    r = int(f["bounded faces"])
    expect(r == crossings + 1 and faces == r + 1, f"r = {r} for {crossings} double points")
    areas = np.array([float(line.split(": ")[1]) for line in block(text, "areas")])
    expect(len(areas) == r and np.all(areas > 0), "area list is not r positive values")
    lo, hi = area_bounds
    expect(lo <= areas.sum() <= hi, f"total face area {areas.sum():.6g} outside [{lo:.6g}, {hi:.6g}]")
    return areas


def check_scaled_areas(areas, scaled, factor):
    """Each area of an s-scaled copy is s^2 times the original's, label by label."""
    expect(len(areas) == len(scaled), "scaled copy has another face count")
    err = np.max(np.abs(scaled - factor**2 * areas))
    expect(err <= SCALE_RTOL * factor**2 * np.max(areas),
           f"scaled areas off by {err:.3g} from s^2 times the original")


def check_verdict(code, text, verdict, r, max_area=None):
    """Verdict line and exit code; the face map is a bijection of 1..r.

    With `max_area`, the discrepancy must also lie within AREA_TOL of it,
    the CLI's default relative tolerance.
    """
    lines = text.splitlines()
    expect(len(lines) > 3 and lines[3] == verdict, f"verdict {lines[3:4]}, expected {verdict}")
    expect(code == EXIT_FOR[verdict], f"exit {code} for {verdict}")
    pairs = fields(text)["face map"].split()
    expect(sorted(int(p.split("->")[0]) for p in pairs) == list(range(1, r + 1))
           and sorted(int(p.split("->")[1]) for p in pairs) == list(range(1, r + 1)),
           "face map is not a bijection of the bounded faces")
    if max_area is not None:
        disc = float(fields(text)["max area discrepancy"])
        expect(disc <= AREA_TOL * max_area, f"discrepancy {disc:.3g} over {AREA_TOL} of {max_area:.3g}")


def check_symmetry(code, text, r, marked, order=None, divides=None):
    """Group order equal to `order`, or dividing `divides`; one line per element."""
    expect(code == 0, f"symmetry exit {code}")
    f = fields(text)
    expect(int(f["bounded faces"]) == r, f"{f['bounded faces']} bounded faces, expected {r}")
    expect(int(f["marked vertices"]) == marked, f"{f['marked vertices']} marked vertices")
    g = int(f["group order"])
    expect(len(block(text, "elements")) == g, "element list length differs from group order")
    if order is not None:
        expect(g == order, f"group order {g}, expected {order}")
    if divides is not None:
        expect(divides % g == 0, f"group order {g} does not divide {divides}")


def check_realize(code, text, targets, density_text, bbox, area_bounds):
    """Realized density: targets hit, positive, 1 outside the bbox, excess mass.

    `area_bounds(domain, nx, ny)` bounds the curve's total face area from
    the benchmark's own raster on the density's grid. The bumps sit
    inside faces, so the mass above 1 equals the sum of targets minus the
    face area counted on cell centers, which the same raster bounds.
    """
    expect(code == 0, f"realize exit {code}")
    got = [line.split() for line in block(text, "face integrals")]
    expect(len(got) == len(targets), f"{len(got)} face integrals for {len(targets)} targets")
    scale = max(targets)
    for row, t in zip(got, targets):
        expect(abs(float(row[1]) - t) <= REALIZE_RTOL * scale, f"face integral {row[1]} for target {t}")
    domain, vals = read_grid(density_text, "density", 1)
    vals = vals[:, :, 0]
    nx, ny = vals.shape
    expect(np.all(vals > 0), "realized density is not positive")
    x0, x1, y0, y1 = domain
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    bx0, bx1, by0, by1 = bbox
    outside = (xs[:, None] < bx0) | (xs[:, None] > bx1) | (ys[None, :] < by0) | (ys[None, :] > by1)
    expect(np.all(vals[outside] == 1.0), "density differs from 1 outside the curve's bounding box")
    cell = 0.25 * (vals[:-1, :-1] + vals[1:, :-1] + vals[:-1, 1:] + vals[1:, 1:])
    face_area = float(sum(targets)) - float(np.sum(cell - 1.0)) * (xs[1] - xs[0]) * (ys[1] - ys[0])
    lo, hi = area_bounds(domain, nx, ny)
    slack = 1e-9 * float(sum(targets))
    expect(lo - slack <= face_area <= hi + slack,
           f"targets minus excess mass {face_area:.6g} outside the rastered face area [{lo:.6g}, {hi:.6g}]")


def check_moser(code, text, map_text, f0, f1, support=None):
    """Horizontal, row-monotone map that carries f0's row mass onto f1's.

    With `support` (x0, x1, y0, y1), every node outside the box must stay
    put: the pair's row integrals vanish, so the flow leaks nothing.
    """
    expect(code == 0, f"moser exit {code}")
    domain, disp = read_grid(map_text, "dispmap", 2)
    expect(disp.shape[:2] == f0.shape, "map grid differs from the density grid")
    expect(np.all(disp[:, :, 1] == 0.0), "map is not horizontal")
    x0, x1, y0, y1 = domain
    nx, ny = f0.shape
    xs = np.linspace(x0, x1, nx)
    image = xs[:, None] + disp[:, :, 0]
    expect(np.all(np.diff(image, axis=0) > 0), "map is not strictly increasing along a row")
    hx = xs[1] - xs[0]
    mass0 = np.concatenate([np.zeros((1, ny)), np.cumsum(0.5 * hx * (f0[1:] + f0[:-1]), axis=0)])
    mass1 = np.concatenate([np.zeros((1, ny)), np.cumsum(0.5 * hx * (f1[1:] + f1[:-1]), axis=0)])
    moved = np.column_stack([np.interp(image[:, j], xs, mass1[:, j]) for j in range(ny)])
    resid = float(np.max(np.abs(moved - mass0)))
    expect(resid <= ROW_MASS_RTOL * float(np.max(mass0[-1])),
           f"row mass residual {resid:.3g} of row mass {np.max(mass0[-1]):.3g}")
    if support is not None:
        sx0, sx1, sy0, sy1 = support
        ys = np.linspace(y0, y1, ny)
        outside = (xs[:, None] < sx0) | (xs[:, None] > sx1) | (ys[None, :] < sy0) | (ys[None, :] > sy1)
        leak = float(np.max(np.abs(disp[:, :, 0][outside])))
        expect(leak <= DEFECT_TOL, f"support defect {leak:.3g}")
        reported = float(fields(text)["support defect"])
        expect(reported <= DEFECT_TOL, f"reported support defect {reported:.3g}")
    return resid / float(np.max(mass0[-1]))
