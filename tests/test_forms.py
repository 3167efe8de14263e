"""Density grids, pullbacks, the primitive map, realization, Moser flow."""

from __future__ import annotations

import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.integrate import cumulative_trapezoid
from conftest import (
    LEAKING_PETAL,
    circle_curve,
    conveyor_pair,
    dip_bump_pair,
    dipping_pair,
    eights_row,
    gerono_curve,
    holed_curve,
    petal_curve,
    trefoil_curve,
)
import oracles
from oracles import moser_interpolation_2d

from symplane import arrangement, forms
from symplane.arrangement import build_arrangement, face_areas, integrate_density_over_faces
from symplane.errors import FormatError, RealizationError, ValidationError
from symplane.forms import (
    MAX_GRID_NODES,
    Density,
    Grid,
    GridMap,
    _distinct_rows,
    _parse_grid,
    _row_integral,
    _serialize_grid,
    density_for_curve,
    load_density,
    load_map,
    make_density,
    moser_interpolation,
    parse_density,
    parse_map,
    primitive_diffeo,
    pullback,
    realize_area_vector,
    save_density,
    save_map,
    serialize_density,
    serialize_map,
    support_defect,
    union_box,
    unit_density,
)


def bump_values(n, L, bumps):
    """Ones plus peak-1 mollifier bumps given as (amp, R, cx, cy)."""
    xs = np.linspace(-L, L, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = np.ones((n, n))
    for amp, R, cx, cy in bumps:
        r2 = ((gx - cx) ** 2 + (gy - cy) ** 2) / (R * R)
        prof = np.zeros_like(r2)
        inside = r2 < 1
        prof[inside] = np.exp(1 - 1 / (1 - r2[inside]))
        vals += amp * prof
    return vals


def grid_map(dom, nx, ny, disp):
    """GridMap over dom = (x0, x1, y0, y1) whose displacement at node (x, y) is disp(x, y)."""
    x0, x1, y0, y1 = dom
    gx, gy = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny), indexing="ij")
    return GridMap(x0, x1, y0, y1, *disp(gx, gy))


def rotation(theta):
    """Displacement of the turn by theta about the origin."""
    c, s = np.cos(theta), np.sin(theta)
    return lambda x, y: (c * x - s * y - x, s * x + c * y - y)


def shear(a):
    """Displacement of (x, y) -> (x + a sin y, y), whose Jacobian determinant is 1."""
    return lambda x, y: (a * np.sin(y), np.zeros_like(y))


def smooth_bump_density(n=128, L=2.0):
    # same profile the acceptance round trip uses, at module-test resolution
    return make_density(-L, L, -L, L, bump_values(n, L, [(0.3, 1.3, -0.4, 0.3), (0.2, 1.0, 0.7, -0.5)]))


def zero_row_pair(n=128, a=0.5, R=0.7):
    """f0 = 1 and f1 with a dip and a bump sharing every horizontal line.

    Both discs sit in x > 0: the flow primitive integrates f0 - f1 from
    x = 0, so an anchor between the discs would leave the field nonzero
    far to either side even though every full row integral vanishes.
    """
    xs = np.linspace(-0.5, 3.7, n)
    gx, gy = np.meshgrid(xs, np.linspace(-2.1, 2.1, n), indexing="ij")
    vals = np.ones((n, n))
    for amp, cx in ((-a, 0.8), (a, 2.4)):
        r2 = ((gx - cx) ** 2 + gy**2) / (R * R)
        prof = np.zeros_like(r2)
        inside = r2 < 1
        prof[inside] = np.exp(1 - 1 / (1 - r2[inside]))
        vals += amp * prof
    return (
        make_density(-0.5, 3.7, -2.1, 2.1, np.ones((n, n))),
        make_density(-0.5, 3.7, -2.1, 2.1, vals),
    )


# --- Density type ---------------------------------------------------------


def assert_reference_box(d):
    """d's derived support box equals, bound by bound and in repr, the box
    the reference infer_support_box gives for its domain and values."""
    ref = oracles.infer_support_box(d.x0, d.x1, d.y0, d.y1, d.nx, d.ny, d.values)
    assert list(map(repr, d.support_box)) == list(map(repr, ref))


def test_density_box_holds_stray_values():
    # a value off 1 in a corner: the box reaches it, one node beyond
    vals = np.ones((8, 8))
    vals[0, 0] = 2.0
    d = Density(0, 1, 0, 1, 8, 8, vals)
    assert_reference_box(d)
    assert d.support_box == (0.0, d.xs[1], 0.0, d.ys[1])


def _box_bounds(rng, nodes):
    """A random bound for boxes on an axis with these nodes: on a node, next
    to one, anywhere from half a span below to half a span above, or nan or
    infinite."""
    span = nodes[-1] - nodes[0]
    node = rng.choice(nodes)
    kind = rng.integers(6)
    if kind == 0:
        return float(node)
    if kind == 1:
        return float(np.nextafter(node, rng.choice([-np.inf, np.inf])))
    if kind == 2:
        return float(rng.choice([np.nan, -np.inf, np.inf]))
    return float(rng.uniform(nodes[0] - span / 2, nodes[-1] + span / 2))


def _random_box(rng, grid):
    """Bounds of a random box: inside, straddling an edge, degenerate, inverted or with nan."""
    bx0, bx1 = (_box_bounds(rng, grid.xs) for _ in range(2))
    by0, by1 = (_box_bounds(rng, grid.ys) for _ in range(2))
    kind = rng.integers(4)
    if kind == 0:
        bx0, bx1 = sorted((bx0, bx1))
        by0, by1 = sorted((by0, by1))
    elif kind == 1:
        bx1, by1 = bx0, by0
    return bx0, bx1, by0, by1


@pytest.mark.parametrize(
    "domain, nx, ny",
    [((-1.0, 2.0, 0.5, 1.5), 9, 6), ((0, 1, 0, 1), 2, 3), ((-3.0, -0.0, 1e-3, 2e-3), 17, 5)],
)
def test_density_checks_exactly_the_nodes_outside_its_box(domain, nx, ny):
    # support_defect takes its maximum on four slabs found by searchsorted:
    # together they must be the outside mask, for any box, and the maximum
    # the mask's
    rng = np.random.default_rng(nx * ny)
    grid = Grid(*domain, nx, ny)
    gm = GridMap(*domain, rng.normal(size=(nx, ny)), rng.normal(size=(nx, ny)))
    for _ in range(400):
        box = _random_box(rng, grid)
        covered = np.zeros((nx, ny), bool)
        for slab in grid.outside_slabs(box):
            covered[slab] = True
        assert np.array_equal(covered, oracles.outside(grid, box)), box
        assert support_defect(gm, box) == oracles.support_defect(gm, box), box
    # and a density whose values are off 1 at random nodes inside a random
    # box derives the reference box, with every node outside it at 1
    for _ in range(200):
        vals = np.ones((nx, ny))
        inside = ~oracles.outside(grid, _random_box(rng, grid))
        vals[inside] = rng.choice([1.0, 2.0, 0.5], size=int(inside.sum()))
        d = Density(*domain, nx, ny, vals)
        assert_reference_box(d)
        assert np.all(d.values[oracles.outside(grid, d.support_box)] == 1.0)


def test_density_rejects_nonpositive_values():
    vals = np.ones((8, 8))
    vals[3, 3] = 0.0
    with pytest.raises(ValidationError):
        make_density(0, 1, 0, 1, vals)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Density(0, 1, 0, 1, 4, 4, np.ones((4, 5))), ValidationError,
     r"values shape \(4, 5\) does not match grid \(4, 4\)"),
    (lambda: Density(0, 1, 0, 1, 4, 4, np.full((4, 4), np.nan)), ValidationError,
     "density values must be finite"),
    (lambda: parse_density("density v1\n"), FormatError, "missing domain line"),
    (lambda: parse_map("dispmap v1\n0 1 0 one 4 4\n" + "0 " * 32), FormatError, "bad domain line"),
    (lambda: GridMap(0, 1, 0, 1, np.zeros((4, 4)), np.zeros((4, 5))), ValidationError,
     "displacement grids must share a 2d shape"),
    (lambda: moser_interpolation(*[make_density(0, 1, 0, 1, np.ones((3, 5)))] * 2), ValidationError,
     "grid too coarse for spline field evaluation"),
], ids=["density-shape", "density-finite", "missing-domain", "bad-domain",
        "map-shapes", "moser-coarse"])
def test_grid_inputs_are_refused_with_their_reason(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_support_box_inference():
    d = smooth_bump_density(n=64)
    sx0, sx1, sy0, sy1 = d.support_box
    # the mollifier tails underflow to zero a little inside the stated radius
    assert -1.8 < sx0 < -1.5 and 1.5 < sx1 < 1.8
    flat = unit_density(0, 1, 0, 1, 16, 16)
    sx0, sx1, sy0, sy1 = flat.support_box
    assert sx0 == sx1 and sy0 == sy1


def realized(curve, n):
    """The density realizing twice each face area plus 1 on an n^2 grid."""
    arr = build_arrangement(curve)
    return realize_area_vector(arr, 2.0 * face_areas(arr) + 1.0, grid_n=n)[0]


DERIVED_BOXES = {
    "ones-4x4": lambda: [Density(0, 1, 0, 1, 4, 4, np.ones((4, 4)))],
    "smooth-bump": lambda: [smooth_bump_density(n=n) for n in (16, 64, 128)],
    "dip-bump": lambda: [d for seed in range(4) for n in (16, 33, 64)
                         for d in dip_bump_pair(np.random.default_rng(seed), n)],
    "conveyors": lambda: [*conveyor_pair(0.17, nx=64, ny=4), *conveyor_pair(0.16, nx=576)],
    "pullbacks": lambda: [
        pullback(grid_map((-3, 3, -3, 3), 96, 96, shear(0.3)), smooth_bump_density(n=64)),
        pullback(grid_map((-3, 3, -3, 3), 96, 96, rotation(0.3)), smooth_bump_density(n=64)),
        pullback(grid_map((-3, 3, -3, 3), 96, 96, lambda x, y: (x, np.zeros_like(y))),
                 unit_density(-2, 2, -2, 2, 64, 64)),
    ],
    **{f"realize-{name}-{n}": (lambda curve=curve, n=n: [realized(curve(), n)])
       for name, curve in [("trefoil", trefoil_curve), ("gerono", gerono_curve),
                           ("holed", holed_curve), ("eights3", lambda: eights_row(3))]
       for n in (64, 193, 256)},
}


@pytest.mark.parametrize("build", DERIVED_BOXES.values(), ids=DERIVED_BOXES.keys())
def test_derived_box_is_the_reference_box(build):
    densities = build()
    assert densities
    for d in densities:
        assert_reference_box(d)
        assert np.all(d.values[oracles.outside(d, d.support_box)] == 1.0)


@pytest.mark.parametrize(
    "domain, nx, ny",
    [((-1.0, 2.0, 0.5, 1.5), 5, 7), ((0, 3, -2, 1), 4, None), ((-3.0, 3.0, -1.0, 1.0), np.int64(6), 3)],
)
def test_unit_density_box_is_the_inferred_one(domain, nx, ny):
    d = unit_density(*domain, nx, ny)
    assert_reference_box(d)
    ref = make_density(*domain, np.ones((nx, nx if ny is None else ny)))
    assert (d.nx, d.ny, type(d.nx), type(d.ny)) == (ref.nx, ref.ny, type(ref.nx), type(ref.ny))
    assert np.array_equal(d.values, ref.values) and not d.values.flags.writeable


def test_value_at_nodes_and_outside():
    d = smooth_bump_density(n=64)
    pts = np.column_stack([d.xs[7] * np.ones(3), d.ys[[3, 9, 40]]])
    assert np.allclose(d.value_at(pts), d.values[7, [3, 9, 40]], rtol=0, atol=1e-12)
    assert d.value_at([(99.0, 0.0)])[0] == 1.0


def test_density_file_round_trip(tmp_path):
    d = smooth_bump_density(n=48)
    path = tmp_path / "d.txt"
    save_density(d, path)
    back = load_density(path)
    assert back.same_grid(d)
    assert np.array_equal(back.values, d.values)
    assert back.support_box == d.support_box


@pytest.mark.parametrize(
    "text",
    [
        "densty v1\n0 1 0 1 4 4\n" + "1 " * 16,
        "density v1\n0 1 0 1 4\n" + "1 " * 16,
        "density v1\n0 1 0 1 4 4\n" + "1 " * 15,
        "density v1\n0 1 0 1 4 4\n" + "1 " * 15 + "frog",
    ],
)
def test_parse_density_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_density(text)


@pytest.mark.parametrize("parse, tag, per_node", [(parse_density, "density", 1),
                                                   (parse_map, "dispmap", 2)])
def test_grid_header_rejects_negative_counts(parse, tag, per_node):
    # (-2) * (-3) nodes would pass the value count check
    with pytest.raises(FormatError, match="negative grid count"):
        parse(f"{tag} v1\n0 1 0 1 -2 -3\n" + "1 " * (6 * per_node))
    # too few nodes per axis is still a validation failure
    for nx, ny in ((0, 3), (1, 3)):
        with pytest.raises(ValidationError):
            parse(f"{tag} v1\n0 1 0 1 {nx} {ny}\n" + "1 " * (nx * ny * per_node))


GOLDEN_DENSITIES = sorted((Path(__file__).parent / "golden" / "inputs").glob("*.density"))
ROWS_4 = "1.0 2.0 3.0 4.0"
READER_CASES = {
    **{f"golden-{p.stem}": (p.read_text(encoding="utf-8"), "density", 1) for p in GOLDEN_DENSITIES},
    "conveyor-64x4": (serialize_density(conveyor_pair(0.17, nx=64, ny=4)[1]), "density", 1),
    "conveyor-map-64x4": (serialize_map(moser_interpolation(*conveyor_pair(0.17, nx=64, ny=4),
                                                            steps=4)), "dispmap", 2),
    # the first bad token is on line 5, after repeated lines; later
    # lines repeat it and carry an earlier-placed bad token
    "bad-after-repeats": ("density v1\n0 1 0 1 4 6\n" + f"{ROWS_4}\n" * 2
                          + "1.0 2.0 x 4.0\n" + f"{ROWS_4}\n" + "y 1.0 1.0 1.0\n"
                          + "1.0 2.0 x 4.0\n", "density", 1),
    "bad-on-repeated-line": ("density v1\n0 1 0 1 4 4\n" + "1.0 z 1.0 1.0\n" + f"{ROWS_4}\n"
                             + "1.0 z 1.0 1.0\n" + "w 1.0 1.0 1.0\n", "density", 1),
    # the count is checked before any value is converted
    "count-before-bad": ("density v1\n0 1 0 1 4 4\n" + f"{ROWS_4}\n" * 2
                         + "1.0 frog 1.0\n" + f"{ROWS_4}\n", "density", 1),
    "uneven-lines": ("dispmap v1\n0 1 0 1 3 2\n" + "0.5 -0.0 1e-300\n0.0 0.0\n"
                     + "0.0 0.0 # one\n0.0\n0.0 0.0 # two\n0.0 7.0\n", "dispmap", 2),
    "commented-repeats": ("# repeated rows\ndensity v1\n0 1 0 1 4 3\n" + f"{ROWS_4} # a\n"
                          + f"  {ROWS_4}  # b\n" + f"{ROWS_4}\n", "density", 1),
    "python-float-tokens": ("density v1\n0 1 0 1 4 2\n1_0 -0 nan 1e400\n-0 1_0 -1e400 -nan\n",
                            "density", 1),
    "no-nodes": ("density v1\n0 1 0 1 0 4\n", "density", 1),
    "empty-line-count": ("density v1\n0 1 0 1 2 2\n# no values\n", "density", 1),
}


@pytest.mark.parametrize("text, tag, per_node", READER_CASES.values(), ids=READER_CASES.keys())
def test_grid_reader_matches_per_token_oracle(text, tag, per_node):
    # each distinct line is split and converted once: the arrays keep
    # their bits and a bad file keeps its error text
    noun = "density" if tag == "density" else "displacement"
    try:
        want = oracles._parse_grid(text, tag, per_node, noun)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _parse_grid(text, tag, per_node, noun)
        assert str(got.value) == str(exc)
        return
    domain, values = _parse_grid(text, tag, per_node, noun)
    assert domain == want[0]
    assert values.dtype == want[1].dtype and values.shape == want[1].shape
    assert np.array_equal(values.view(np.int64), want[1].view(np.int64))


BAD_DOMAINS = [
    (0.0, 0.0, 0.0, 1.0),
    (0.0, 1.0, 1.0, 1.0),
    (1.0, 0.0, 0.0, 1.0),
    (0.0, 1.0, 1.0, 0.0),
    (np.nan, 1.0, 0.0, 1.0),
    (0.0, 1.0, 0.0, np.nan),
    (-np.inf, 1.0, 0.0, 1.0),
    (0.0, np.inf, 0.0, 1.0),
    (0.0, 1.0, -np.inf, np.inf),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("load, tag, per_node", [(load_density, "density", 1),
                                                 (load_map, "dispmap", 2)])
@pytest.mark.parametrize("domain", BAD_DOMAINS)
def test_grid_files_share_one_domain_rule(tmp_path, load, tag, per_node, domain):
    path = tmp_path / f"bad.{tag}"
    path.write_text(f"{tag} v1\n{' '.join(map(repr, domain))} 4 4\n" + "1.0 " * (16 * per_node))
    with pytest.raises(ValidationError, match="needs finite x0 < x1 and y0 < y1"):
        load(path)


GRID_BUILDERS = [
    lambda dom: make_density(*dom, np.ones((4, 4))),
    lambda dom: unit_density(*dom, 4),
    lambda dom: Density(*dom, 4, 4, np.ones((4, 4))),
    lambda dom: Grid(*dom, 4, 4),
    lambda dom: GridMap(*dom, np.zeros((4, 4)), np.zeros((4, 4))),
    lambda dom: Density(*dom, 4, 4, np.full((4, 4), 2.0)).support_box,
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", GRID_BUILDERS)
@pytest.mark.parametrize("domain", BAD_DOMAINS)
def test_grid_builders_check_the_domain_first(build, domain):
    with pytest.raises(ValidationError, match="needs finite x0 < x1 and y0 < y1"):
        build(domain)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build", GRID_BUILDERS)
@pytest.mark.parametrize("domain", [(-1e308, 1e308, 0.0, 1.0), (0.0, 1.0, -1e308, 1e308)],
                         ids=["x", "y"])
def test_grid_builders_refuse_a_width_that_overflows(build, domain):
    # finite bounds whose difference is inf: no spacing, node or cell exists
    with pytest.raises(ValidationError, match="too wide"):
        build(domain)


def test_density_and_map_share_one_grid_layout():
    d = smooth_bump_density(n=16)
    gm = primitive_diffeo(d)
    assert gm.same_grid(d) and d.same_grid(gm)
    assert np.array_equal(gm.xs, d.xs) and np.array_equal(gm.ys, d.ys)
    assert (gm.hx, gm.hy) == (d.hx, d.hy)
    assert np.array_equal(oracles.outside(gm, d.support_box), ~_inside(d, d.support_box))
    # maps are compared by identity, not by their grid fields
    assert GridMap(gm.x0, gm.x1, gm.y0, gm.y1, gm.disp_x, gm.disp_y) != gm


def _inside(grid, box):
    bx0, bx1, by0, by1 = box
    gx, gy = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return (bx0 <= gx) & (gx <= bx1) & (by0 <= gy) & (gy <= by1)


# --- pullback -------------------------------------------------------------


def test_pullback_identity_returns_same_values():
    d = smooth_bump_density(n=64)
    still = grid_map((d.x0, d.x1, d.y0, d.y1), 64, 64, lambda x, y: (np.zeros_like(x), np.zeros_like(y)))
    back = pullback(still, d)
    assert np.max(np.abs(back.values - d.values)) < 1e-12


def test_pullback_axis_stretch_gives_constant_two():
    # the map's grid reaches past the density's, so no central difference
    # meets the clamp at its rim; the sampled displacement x and its
    # central differences round in the last bits, so 2 is not exact
    stretch = grid_map((-3, 3, -3, 3), 96, 96, lambda x, y: (x, np.zeros_like(y)))
    pb = pullback(stretch, unit_density(-2, 2, -2, 2, 64, 64))
    assert np.max(np.abs(pb.values - 2.0)) < 1e-12


def test_pullback_shear_keeps_unit_density():
    pb = pullback(grid_map((-2, 2, -2, 2), 64, 64, shear(0.3)), unit_density(-2, 2, -2, 2, 64, 64))
    assert np.max(np.abs(pb.values - 1.0)) < 1e-9


def test_pullback_rejects_orientation_reversal():
    # a grid map that folds the plane has negative determinant somewhere
    xs = np.linspace(-1, 1, 16)
    fold = GridMap(-1, 1, -1, 1, np.tile(-2 * xs[:, None], (1, 16)), np.zeros((16, 16)))
    with pytest.raises(ValidationError):
        pullback(fold, unit_density(-1, 1, -1, 1, 16, 16))


def test_pullback_functoriality_sampled_density():
    # resampling the intermediate density and the composite costs O(h^2),
    # not exactness; the maps' grids reach past the density's, so no
    # central difference meets the clamp at a map grid's rim
    turn, sh = rotation(0.3), shear(0.2)

    def composite(x, y):  # the turn after the shear
        u = x + sh(x, y)[0]
        du, dv = turn(u, y)
        return u + du - x, dv

    om = smooth_bump_density(n=192)
    dom = (-3.0, 3.0, -3.0, 3.0)
    direct = pullback(grid_map(dom, 288, 288, composite), om)
    staged = pullback(grid_map(dom, 288, 288, sh), pullback(grid_map(dom, 288, 288, turn), om))
    assert np.max(np.abs(direct.values - staged.values)) < 5e-3


def test_pullback_scales_linearly():
    om = smooth_bump_density(n=96)
    scaled = Density(om.x0, om.x1, om.y0, om.y1, om.nx, om.ny, 2.5 * om.values)
    sh = grid_map((om.x0, om.x1, om.y0, om.y1), 96, 96, shear(0.3))
    a = pullback(sh, scaled).values
    b = 2.5 * pullback(sh, om).values
    # compare away from the rim: outside the grid the extension is 1, not 2.5
    assert np.allclose(a[10:-10, 10:-10], b[10:-10, 10:-10], rtol=1e-12, atol=0)


# --- primitive map --------------------------------------------------------


def test_primitive_diffeo_of_unit_density_is_identity():
    psi = primitive_diffeo(unit_density(-2, 2, -2, 2, 64, 64))
    assert np.max(np.abs(psi.disp_x)) < 1e-10
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(40, 2))
    assert np.max(np.abs(psi.evaluate(pts) - pts)) < 1e-10


def test_primitive_diffeo_of_constant_two_doubles_x():
    two = Density(-1, 1, -1, 1, 32, 32, 2 * np.ones((32, 32)))
    psi = primitive_diffeo(two)
    pts = np.column_stack([np.linspace(-0.9, 0.9, 11), np.linspace(-0.5, 0.5, 11)])
    mapped = psi.evaluate(pts)
    assert np.max(np.abs(mapped[:, 0] - 2 * pts[:, 0])) < 1e-12
    assert np.array_equal(mapped[:, 1], pts[:, 1])


def test_primitive_round_trip_at_module_resolution():
    om = smooth_bump_density(n=128)
    back = pullback(primitive_diffeo(om), unit_density(-2, 2, -2, 2, 128, 128))
    assert np.max(np.abs(back.values - om.values)) < 2e-3


def test_primitive_anchor_away_from_origin():
    # grid strictly right of x = 0: the anchored integral crosses f = 1 territory
    vals = np.ones((32, 32))
    om = Density(1.0, 3.0, -1.0, 1.0, 32, 32, vals)
    psi = primitive_diffeo(om)
    pts = np.array([(1.5, 0.2), (2.5, -0.3)])
    assert np.max(np.abs(psi.evaluate(pts) - pts)) < 1e-10


@pytest.mark.parametrize("branch", ["straddle", "left", "right"])
def test_row_integral_matches_scipy_oracle(branch):
    # the numpy trapezoid must give scipy's cumulative_trapezoid bit for
    # bit, so every primitive map and flow stays byte-identical; the
    # branch places x = 0 inside, right of, or left of the grid
    rng = np.random.default_rng(["straddle", "left", "right"].index(branch))
    shapes = [(2, 1), (576, 8), (1024, 7)]
    shapes += [(int(rng.integers(2, 1025)), int(rng.integers(1, 8))) for _ in range(31)]
    for k, shape in enumerate(shapes):
        values = rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)
        hx = 10.0 ** rng.uniform(-3.0, 1.0)
        span = hx * (shape[0] - 1)
        if branch == "straddle":
            # zero on the first node, on the last node, or between nodes
            x0 = (0.0, -span, -rng.uniform(0.0, span))[k % 3]
            x1 = 0.0 if k % 3 == 1 else x0 + span
        elif branch == "left":
            x1 = -rng.uniform(hx, 10.0)
            x0 = x1 - span
        else:
            x0 = rng.uniform(hx, 10.0)
            x1 = x0 + span
        slope = rng.uniform(-2.0, 2.0)
        G, G0 = _row_integral(values, hx, x0, x1, slope)
        ref_G, ref_G0 = oracles.row_integral(values, hx, x0, x1, slope)
        assert G.dtype == ref_G.dtype and G0.dtype == ref_G0.dtype
        assert np.array_equal(G, ref_G), (shape, hx)
        assert np.array_equal(G0, ref_G0), (shape, hx, x0, x1)


# --- sampled maps and files -----------------------------------------------


def test_map_file_round_trip(tmp_path):
    gm = grid_map((-1, 1, -1, 1), 12, 12, rotation(0.5))
    path = tmp_path / "m.txt"
    save_map(gm, path)
    back = load_map(path)
    assert np.array_equal(back.disp_x, gm.disp_x)
    assert np.array_equal(back.disp_y, gm.disp_y)
    assert (back.x0, back.x1, back.y0, back.y1) == (gm.x0, gm.x1, gm.y0, gm.y1)


def test_serializers_match_per_value_oracle():
    rng = np.random.default_rng(8)
    vals = np.exp(rng.uniform(-700.0, 700.0, size=(37, 23)))
    vals[3, 4] = 5e-324
    vals[0, 0] = 1.0
    vals[1, 0], vals[2, 0] = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    vals[:, 5] = 1.0  # a row of background only
    for d in (smooth_bump_density(n=96), make_density(-1.0, 2.0, 0.5, 1.5, vals)):
        assert serialize_density(d) == oracles.serialize_density(d)
    disp = rng.standard_normal((2, 19, 31)) * np.exp(rng.uniform(-300.0, 300.0, size=(2, 19, 31)))
    disp[0, 2, 5] = -0.0
    disp[1, 7, 1] = 0.0
    disp[:, :, 9] = 0.0  # a row of background only
    f0, f1 = zero_row_pair(n=32)
    c0, c1 = conveyor_pair(0.17, nx=64, ny=4)  # every row repeats, none blank
    for gm in (
        grid_map((-1, 1, -1, 1), 12, 17, rotation(0.5)),
        GridMap(-1.0, 1.0, 0.0, 3.0, disp[0], disp[1]),
        moser_interpolation(f0, f1, steps=8),
        moser_interpolation(c0, c1, steps=8),
    ):
        assert serialize_map(gm) == oracles.serialize_map(gm)
    realized, _ = realize_area_vector(build_arrangement(gerono_curve(n=128)), [2.0, 2.0], grid_n=64)
    for d in (c0, c1, realized):
        assert serialize_density(d) == oracles.serialize_density(d)


@pytest.mark.parametrize("tag, background", [("density", 1.0), ("dispmap", 0.0)])
def test_grid_writer_matches_repr_everywhere_oracle(tag, background):
    # each value next to a background in bits, and rows of background only
    special = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324, 1e300]
    rows = np.full((4, 9), background)
    rows[1, 1:8] = special
    rows[2, ::2] = special[::-1][:5]
    grid = Grid(-1.0, 2.0, 0.5, 1.5, 9, 4)
    assert _serialize_grid(tag, grid, rows, background) == oracles._serialize_grid(tag, grid, rows)


# --- resource budget ------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_grid_budget_is_checked_before_any_node_array(gerono256):
    Grid(0.0, 1.0, 0.0, 1.0, 4096, 4096)  # the largest grid in use stays legal
    side = 100_000  # 8e10 bytes a node array: reaching one would fail here
    assert side * side > MAX_GRID_NODES
    arr = build_arrangement(gerono256)
    builds = [
        lambda: Grid(0.0, 1.0, 0.0, 1.0, MAX_GRID_NODES // 2 + 1, 2),
        lambda: unit_density(0.0, 1.0, 0.0, 1.0, side),
        lambda: realize_area_vector(arr, [1.0, 2.0], grid_n=side),
    ]
    start = time.perf_counter()
    for build in builds:
        with pytest.raises(ValidationError, match="exceeds the budget"):
            build()
    assert time.perf_counter() - start < 0.1


@pytest.mark.filterwarnings("error")
def test_flow_budget_is_checked_before_the_flow():
    f0, f1 = zero_row_pair(n=32)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="exceed the budget"):
        moser_interpolation(f0, f1, steps=10**9)
    assert time.perf_counter() - start < 0.1


# --- realize_area_vector --------------------------------------------------


def test_realize_noop_when_target_matches():
    arr = build_arrangement(circle_curve(n=128))
    base = density_for_curve(arr.curve, n=96)
    current = integrate_density_over_faces(arr, base)
    out, _ = realize_area_vector(arr, current, base=base)
    assert np.array_equal(out.values, base.values)


def test_realize_circle_target():
    arr = build_arrangement(circle_curve(n=128))
    out, _ = realize_area_vector(arr, [2 * np.pi], grid_n=128)
    got = integrate_density_over_faces(arr, out)
    assert abs(got[0] - 2 * np.pi) < 1e-3 * 2 * np.pi


def test_realize_trefoil_bumps_one_face_only(trefoil512):
    arr = build_arrangement(trefoil512)
    base = density_for_curve(arr.curve, n=192)
    current = integrate_density_over_faces(arr, base)
    target = current.copy()
    target[0] += 1.0
    out, _ = realize_area_vector(arr, target, base=base)
    got = integrate_density_over_faces(arr, out)
    assert abs(got[0] - current[0] - 1.0) < 1e-6
    assert np.max(np.abs(got[1:] - current[1:])) < 1e-6


def test_realize_random_cone_targets_reproduce_tightly(gerono256):
    arr = build_arrangement(gerono256)
    base = density_for_curve(arr.curve, n=160)
    current = integrate_density_over_faces(arr, base)
    rng = np.random.default_rng(2024)
    for _ in range(5):
        target = current + rng.uniform(0.0, 2.0, size=arr.r)
        out, _ = realize_area_vector(arr, target, base=base)
        got = integrate_density_over_faces(arr, out)
        assert np.max(np.abs(got - target)) < 1e-9 * max(1.0, target.max())


def test_realize_rejects_shrinking_target_without_base_scale():
    arr = build_arrangement(circle_curve(n=128))
    base = density_for_curve(arr.curve, n=128)
    current = integrate_density_over_faces(arr, base)
    with pytest.raises(RealizationError):
        realize_area_vector(arr, current - 0.2, base=base)


def test_realize_base_scale_makes_room():
    arr = build_arrangement(circle_curve(n=128))
    base = density_for_curve(arr.curve, n=128)
    current = integrate_density_over_faces(arr, base)
    target = current - 0.2
    out, _ = realize_area_vector(arr, target, base=base, base_scale=0.2)
    got = integrate_density_over_faces(arr, out)
    assert np.max(np.abs(got - target)) < 1e-9


def test_realize_reports_bump_leaking_into_another_face():
    # face 1's bump reaches into face 2's cells on the default 256^2 grid,
    # so the drift check fails for a grid reason, not a construction bug
    arr = build_arrangement(petal_curve(LEAKING_PETAL))
    target = 2.0 * face_areas(arr) + 1.0
    with pytest.raises(RealizationError, match="face 1 .*refine the grid"):
        realize_area_vector(arr, target)


def test_realize_rejects_wrong_target_length(gerono256):
    arr = build_arrangement(gerono256)
    with pytest.raises(ValidationError):
        realize_area_vector(arr, [1.0, 2.0, 3.0], grid_n=64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "target, base_scale",
    [([1.0, 2.0, 3.0], 1.0), ([1.0, -2.0], 1.0), ([1.0, 2.0], 1.5), ([np.nan, 2.0], 1.0),
     ([1.0, np.inf], 1.0)],
    ids=["length", "sign", "base_scale", "nan", "inf"],
)
def test_realize_validates_before_building_the_base(gerono256, target, base_scale):
    # a 4096^2 default base would take over 0.1 s just to allocate
    arr = build_arrangement(gerono256)
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        realize_area_vector(arr, target, base_scale=base_scale, grid_n=4096)
    assert time.perf_counter() - start < 0.1


def test_realize_builds_one_face_raster(monkeypatch, trefoil512):
    arr = build_arrangement(trefoil512)
    calls = []
    raster = arrangement._face_raster

    def counted(*args):
        calls.append(1)
        return raster(*args)

    monkeypatch.setattr(arrangement, "_face_raster", counted)
    realize_area_vector(arr, 2.0 * face_areas(arr) + 1.0, base_scale=0.5, grid_n=128)
    assert len(calls) == 1


def integrator_passes(monkeypatch, curve, n):
    """Full-grid passes and windowed calls of the face integrator in one
    realization."""
    arr = build_arrangement(curve)
    counts = [0, 0]
    made = arrangement.face_integrator

    def counted(*args):
        integrate = made(*args)

        def full_pass(vals):
            counts[0] += 1
            return integrate(vals)

        def on_window(*window_args):
            counts[1] += 1
            return integrate.on_window(*window_args)

        full_pass.on_window = on_window
        return full_pass

    monkeypatch.setattr(forms, "face_integrator", counted)
    realize_area_vector(arr, 2.0 * face_areas(arr) + 1.0, base_scale=0.5, grid_n=n)
    monkeypatch.undo()
    return tuple(counts)


def test_realize_cell_passes_do_not_grow_with_face_count(monkeypatch):
    # the base and the result are summed over the whole grid; each bump
    # is weighed on its window only, one windowed call per face
    one = integrator_passes(monkeypatch, circle_curve(n=128), 128)
    twelve = integrator_passes(monkeypatch, eights_row(6), 128)
    assert one == (2, 1)
    assert twelve == (2, 12)


def realize_peak(curve, n):
    """tracemalloc peak in bytes of realizing 2 x area + 1 on an n^2 grid."""
    arr = build_arrangement(curve)
    target = 2.0 * face_areas(arr) + 1.0
    tracemalloc.start()
    try:
        realize_area_vector(arr, target, grid_n=n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_realize_peak_per_node_stays_below_a_full_grid_temporary(trefoil512):
    # base, output and the integrator's node buffer are 8 bytes a node
    # each, its corner indices and labels about 5 more; one more float
    # array over the whole grid would pass the bound
    n = 512
    per_node = realize_peak(trefoil512, n) / (n * n)
    assert per_node < 33.0, per_node


def test_realize_memory_does_not_grow_with_face_count():
    # 12 faces peak like 2: bumps live on their disc windows, not the full grid
    many = realize_peak(eights_row(6), 1024)
    two = realize_peak(gerono_curve(), 1024)
    assert many < 80e6, many
    assert many < 1.2 * two, (many, two)


# --- Moser interpolation --------------------------------------------------


def test_moser_identity_pair_is_identity():
    f = smooth_bump_density(n=64)
    rho = moser_interpolation(f, f, steps=8)
    assert np.array_equal(rho.disp_x, np.zeros((64, 64)))


@pytest.mark.filterwarnings("error")
def test_moser_validates_inputs():
    f0, f1 = zero_row_pair(n=32)
    for steps in (3, 4.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="need at least 4 time steps"):
            moser_interpolation(f0, f1, steps=steps)
    other = unit_density(-2.5, 2.5, -2.5, 2.5, 48, 48)
    with pytest.raises(ValidationError):
        moser_interpolation(f0, other, steps=8)


def test_moser_contract_and_positive_jacobian():
    f0, f1 = zero_row_pair(n=128)
    rho = moser_interpolation(f0, f1, steps=64)
    back = pullback(rho, f1)
    assert np.max(np.abs(back.values - f0.values)) < 1e-2
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.2, 2.2, size=(200, 2))
    jac = rho.jacobian(pts)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    assert np.min(det) > 0


def test_moser_flat_to_bumped_tight_contract():
    """f0 = 1 against a bump/dip pair of compact polynomial profile.

    (1 - r^2)^4 discs keep the rim derivatives far milder than the
    mollifier profile, so 256^2 already puts the pullback defect at
    64 steps under half the 1e-3 budget.
    """
    n, a, R = 256, 0.3, 0.9
    xs = np.linspace(-0.5, 3.7, n)
    gx, gy = np.meshgrid(xs, np.linspace(-2.1, 2.1, n), indexing="ij")
    vals = np.ones((n, n))
    for amp, cx in ((-a, 0.8), (a, 2.4)):
        r2 = ((gx - cx) ** 2 + gy**2) / (R * R)
        vals += amp * np.where(r2 < 1, (1 - np.minimum(r2, 1)) ** 4, 0.0)
    f0 = make_density(-0.5, 3.7, -2.1, 2.1, np.ones((n, n)))
    f1 = make_density(-0.5, 3.7, -2.1, 2.1, vals)
    rho = moser_interpolation(f0, f1, steps=64)
    back = pullback(rho, f1)
    assert np.max(np.abs(back.values - f0.values)) <= 1e-3


def test_moser_step_doubling_cuts_defect():
    # conveyor pair: spatial floor ~1e-4, RK4 term dominates at 64 steps
    f0, f1 = conveyor_pair(eps=0.17)
    d64 = np.max(np.abs(pullback(moser_interpolation(f0, f1, steps=64), f1).values
                        - f0.values))
    d128 = np.max(np.abs(pullback(moser_interpolation(f0, f1, steps=128), f1).values
                         - f0.values))
    assert d64 / d128 >= 3.0
    assert d64 <= 1e-3


def test_moser_density_dipping_to_zero_is_a_validation_error():
    # both densities are valid and positive at the nodes; their spline
    # interpolants are not, which the input must fix, not the flow
    f0, f1 = dipping_pair()
    with pytest.raises(ValidationError, match="refine the grid or smooth the densities"):
        moser_interpolation(f0, f1, steps=64)


@pytest.mark.parametrize(
    "pair, steps",
    [
        (lambda: zero_row_pair(n=48), 16),
        (lambda: conveyor_pair(0.17, nx=576), 16),
        (lambda: (smooth_bump_density(64),) * 2, 8),
    ],
    ids=["zero-row-48", "conveyor-576", "identity-64"],
)
def test_moser_matches_2d_spline_oracle(pair, steps):
    # on a grid row the 2-D interpolating spline is the row's 1-D
    # not-a-knot spline, so the per-row flow reproduces the 2-D one
    f0, f1 = pair()
    rho = moser_interpolation(f0, f1, steps=steps)
    ref = moser_interpolation_2d(f0, f1, steps=steps)
    assert np.max(np.abs(rho.disp_x - ref.disp_x)) <= 1e-12
    assert np.array_equal(rho.disp_y, ref.disp_y)


@pytest.mark.parametrize(
    "pair",
    [lambda: conveyor_pair(0.16), lambda: conveyor_pair(0.17), lambda: zero_row_pair(n=128)],
    ids=["conveyor-0.16", "conveyor-0.17", "zero-row-128"],
)
def test_moser_conserves_row_mass(pair):
    # the flow moves mass along rows: the f1-mass left of a node's image
    # equals the f0-mass left of the node
    f0, f1 = pair()
    rho = moser_interpolation(f0, f1, steps=64)
    xs = f0.xs
    m0 = cumulative_trapezoid(f0.values, xs, axis=0, initial=0.0)
    m1 = cumulative_trapezoid(f1.values, xs, axis=0, initial=0.0)
    worst = max(
        np.max(np.abs(np.interp(xs + rho.disp_x[:, j], xs, m1[:, j]) - m0[:, j]))
        for j in range(f0.ny)
    )
    assert worst <= 1e-3


def gaussian_pair(rng, n, L=2.0):
    """Unit densities over [-L, L]^2 plus one Gaussian each, at seeded centres."""
    g = np.linspace(-L, L, n)
    gx, gy = np.meshgrid(g, g, indexing="ij")

    def dens(cx, cy):
        return make_density(-L, L, -L, L, 1.0 + np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / 0.25))

    return dens(*rng.uniform(-0.5, 0.5, 2)), dens(*rng.uniform(-0.5, 0.5, 2))


def shared_row_pair(row, at=(3,)):
    """8x8 densities that agree on the grid rows `at`, which read `row`, and differ on row 6."""
    v0 = np.ones((8, 8))
    v0[:, list(at)] = np.asarray(row)[:, None]
    v1 = v0.copy()
    v1[2:6, 6] = 1.5
    return make_density(0.0, 1.0, 0.0, 1.0, v0), make_density(0.0, 1.0, 0.0, 1.0, v1)


def repeated_rows_pair(ulp_apart=False, in_f1=False):
    """12x10 densities whose moving rows repeat, and not next to each other.

    Rows 1, 4 and 7 read one pair of profiles and rows 3 and 8 another,
    with still rows and a row of a third pair between them. With
    `ulp_apart`, row 9 reads the first pair but for one node of f0 (of
    f1 with `in_f1`) that is one ulp larger, so its cubics and its map
    differ from rows 1, 4 and 7.
    """
    xs = np.linspace(0.0, 1.0, 12)
    v0, v1 = np.ones((12, 10)), np.ones((12, 10))
    v0[:, [1, 4, 7]] = (1.0 + 0.3 * np.sin(np.pi * xs))[:, None]
    v1[:, [1, 4, 7]] = (1.0 + 0.4 * np.sin(2.0 * np.pi * xs) ** 2)[:, None]
    v0[:, [3, 8]] = (1.2 - 0.2 * xs)[:, None]
    v1[:, [3, 8]] = (1.0 + 0.2 * xs)[:, None]
    v1[:, 6] = 1.0 + 0.5 * np.exp(-((xs - 0.6) / 0.2) ** 2)
    if ulp_apart:
        v0[:, 9], v1[:, 9] = v0[:, 1], v1[:, 1]
        v = v1 if in_f1 else v0
        v[1, 9] = np.nextafter(v[1, 9], np.inf)
    return make_density(0.0, 1.0, 0.0, 1.0, v0), make_density(0.0, 1.0, 0.0, 1.0, v1)


def shared_f0_pair():
    """12x8 densities whose f0 reads one profile on every row and f1 three.

    Rows 0-2 are still, rows 3, 5 and 7 read one f1 profile and rows 4
    and 6 another: rows equal in f0 group by f1 as well.
    """
    xs = np.linspace(0.0, 1.0, 12)
    v0 = np.repeat((1.0 + 0.3 * np.sin(np.pi * xs))[:, None], 8, axis=1)
    v1 = v0.copy()
    v1[:, [3, 5, 7]] = (1.0 + 0.4 * np.sin(2.0 * np.pi * xs) ** 2)[:, None]
    v1[:, [4, 6]] = (1.0 + 0.2 * xs)[:, None]
    return make_density(0.0, 1.0, 0.0, 1.0, v0), make_density(0.0, 1.0, 0.0, 1.0, v1)


def far_rows_pair():
    """12x10 densities whose first and last rows are one moving pair, with other rows between."""
    xs = np.linspace(0.0, 1.0, 12)
    v0, v1 = np.ones((12, 10)), np.ones((12, 10))
    v0[:, [0, 9]] = (1.2 - 0.2 * xs)[:, None]
    v1[:, [0, 9]] = (1.0 + 0.2 * xs)[:, None]
    v0[:, 4] = 1.0 + 0.3 * np.sin(np.pi * xs)
    v1[:, 5] = 1.0 + 0.5 * np.exp(-((xs - 0.6) / 0.2) ** 2)
    return make_density(0.0, 1.0, 0.0, 1.0, v0), make_density(0.0, 1.0, 0.0, 1.0, v1)


def repeated_dipping_pair():
    """dipping_pair's well and walls on the non-adjacent grid rows 1, 3 and 6."""
    rows = [1, 3, 6]
    v0, v1 = np.ones((8, 8)), np.ones((8, 8))
    v0[3:5, rows] = 1e-4
    v0[2, rows] = v0[5, rows] = 50.0
    v1[3:5, rows] = 30.0
    return make_density(0.0, 1.0, 0.0, 1.0, v0), make_density(0.0, 1.0, 0.0, 1.0, v1)


def edge_rows_pair(n=48):
    """Unit densities that differ only on the first and last grid rows."""
    v1 = np.ones((n, n))
    v1[:, [0, -1]] += 0.3 * np.exp(-((np.linspace(-2.0, 2.0, n) - 0.4) ** 2))[:, None]
    return unit_density(-2.0, 2.0, -2.0, 2.0, n, n), make_density(-2.0, 2.0, -2.0, 2.0, v1)


def island_row_pair():
    """12x8 densities on a grid of unit spacing that differ on nodes 4-7 of row 2.

    The trapezoid integral of f0 - f1 over those nodes is zero, so the
    row's nodes left and right of them are still.
    """
    v0, v1 = np.ones((12, 8)), np.ones((12, 8))
    v0[4:8, 2] += [0.5, 0.0, 0.0, 0.25]
    v1[4:8, 2] += [0.0, 0.25, 0.5, 0.0]
    return make_density(0.0, 11.0, 0.0, 1.0, v0), make_density(0.0, 11.0, 0.0, 1.0, v1)


def unbalanced_bump_pair(n=96):
    """Unit f0 and f1 with one bump of mass on [-2.5, 2.5]^2: its rows do not balance."""
    f1 = make_density(-2.5, 2.5, -2.5, 2.5, bump_values(n, 2.5, [(0.5, 0.8, 0.0, 0.0)]))
    return unit_density(-2.5, 2.5, -2.5, 2.5, n, n), f1


@pytest.mark.parametrize(
    "pair, steps",
    [
        (lambda: dip_bump_pair(np.random.default_rng(16), 16), 8),
        (lambda: dip_bump_pair(np.random.default_rng(32), 32), 16),
        (lambda: dip_bump_pair(np.random.default_rng(128), 128), 64),
        (lambda: zero_row_pair(n=64), 16),
        (lambda: conveyor_pair(0.17, nx=576), 16),
        (lambda: (smooth_bump_density(64),) * 2, 8),
        (edge_rows_pair, 8),
        (lambda: shared_row_pair([1.0, 1.0, 2.5 * np.finfo(float).tiny] + [1.0] * 5), 8),
        (repeated_rows_pair, 8),
        (lambda: repeated_rows_pair(ulp_apart=True), 8),
        (lambda: conveyor_pair(0.16, nx=1152, ny=4), 16),
        # the last stage time is above 1
        (lambda: gaussian_pair(np.random.default_rng(6), 64), 9),
        # nodes cross many intervals per stage
        (lambda: conveyor_pair(0.17, nx=64, ny=4), 4),
        (lambda: conveyor_pair(0.17, nx=64, ny=4), 9),
        (island_row_pair, 7),
        (shared_f0_pair, 8),
        (far_rows_pair, 8),
        # every row still and every row equal
        (lambda: (conveyor_pair(0.17, nx=64, ny=4)[0],) * 2, 8),
        (lambda: repeated_rows_pair(ulp_apart=True, in_f1=True), 8),
        # the benchmark's conveyor shape and step count
        (lambda: conveyor_pair(0.16, nx=576), 64),
        # nodes start on x1, or are pushed past it: the clamp into the last interval
        (unbalanced_bump_pair, 16),
        (lambda: unbalanced_bump_pair()[::-1], 16),
    ],
    ids=["dip-bump-16", "dip-bump-32", "dip-bump-128", "zero-row-64", "conveyor-576",
         "identical-64", "edge-rows-48", "near-tiny-shared-row", "repeated-rows",
         "one-ulp-apart", "conveyor-1152x4", "gaussian-64-9-steps", "conveyor-64x4-4-steps",
         "conveyor-64x4-9-steps", "island-row", "shared-f0", "far-rows", "still-y-invariant",
         "one-ulp-apart-in-f1", "conveyor-576x8-64-steps", "unbalanced-bump",
         "unbalanced-bump-reversed"],
)
def test_moser_skips_still_rows_bit_for_bit(pair, steps):
    # rows with bit-equal f0 and f1 run once through every stage, still
    # nodes are not flowed, and cubics are gathered again only for nodes
    # that change interval; the map is the all-rows flow's to the bit,
    # signed zeros included
    f0, f1 = pair()
    rho = moser_interpolation(f0, f1, steps=steps)
    ref = oracles.moser_interpolation_all_rows(f0, f1, steps=steps)
    assert np.array_equal(rho.disp_x.view(np.int64), ref.disp_x.view(np.int64))
    assert np.array_equal(rho.disp_y.view(np.int64), ref.disp_y.view(np.int64))


SPLINE_PAIRS = {
    "dip-bump-16": lambda: dip_bump_pair(np.random.default_rng(16), 16),
    "dip-bump-32": lambda: dip_bump_pair(np.random.default_rng(32), 32),
    "dip-bump-128": lambda: dip_bump_pair(np.random.default_rng(128), 128),
    "conveyor-576": lambda: conveyor_pair(0.17, nx=576),
    "conveyor-1152x4": lambda: conveyor_pair(0.16, nx=1152, ny=4),
    "conveyor-64x4": lambda: conveyor_pair(0.17, nx=64, ny=4),
    "repeated-rows": repeated_rows_pair,
    "one-ulp-apart": lambda: repeated_rows_pair(ulp_apart=True),
    "gaussian-64": lambda: gaussian_pair(np.random.default_rng(6), 64),
}


def _scipy_lapack():
    """scipy's version and the LAPACK it was built with, for a failure message."""
    try:
        lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        return f"scipy {scipy.__version__} with LAPACK {lapack['name']} {lapack['version']}"
    except Exception:  # noqa: BLE001 - older scipy: the version alone
        return f"scipy {scipy.__version__}"


@pytest.mark.parametrize("pair", SPLINE_PAIRS.values(), ids=SPLINE_PAIRS.keys())
def test_spline_of_a_row_subset_keeps_its_bits(pair):
    # The flow builds its CubicSpline on the distinct rows only, which is
    # exact only if the banded solve treats each right-hand side on its
    # own: the coefficients of any subset of rows are those of all rows.
    from scipy.interpolate import CubicSpline

    f0, f1 = pair()
    G, G0 = _row_integral(f0.values - f1.values, f0.hx, f0.x0, f0.x1, 0.0)
    y = np.stack([G - G0[None, :], f0.values, f1.values], axis=1)
    full = CubicSpline(f0.xs, y, axis=0).c.view(np.int64)
    ny = f0.ny
    subsets = [
        _distinct_rows(f0.values.T, f1.values.T)[0],
        np.arange(0, ny, 2),
        np.sort(np.random.default_rng(ny).choice(ny, size=max(2, ny // 3), replace=False)),
        *([j] for j in range(ny)),
    ]
    for rows in subsets:
        part = CubicSpline(f0.xs, y[:, :, rows], axis=0).c.view(np.int64)
        assert np.array_equal(part, full[..., rows]), (
            f"the spline of rows {list(rows)[:8]} differs from the all-rows spline "
            f"in its last bits under {_scipy_lapack()}; the distinct-row flow needs "
            "each right-hand side of the solve to be treated on its own"
        )


def test_distinct_rows_group_by_bits_even_when_digests_collide(monkeypatch):
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [np.nan, 1.0], [np.nan, 1.0],
                     [1.0, 0.0], [0.0, 1.0]])
    other = np.array([[2.0, 2.0]] * 6 + [[3.0, 3.0]])
    reps, group = _distinct_rows(rows)
    assert reps.tolist() == [0, 1, 3, 5] and group.tolist() == [0, 1, 0, 2, 2, 3, 0]
    reps, group = _distinct_rows(rows, other)
    assert reps.tolist() == [0, 1, 3, 5, 6] and group.tolist() == [0, 1, 0, 2, 2, 3, 4]
    # with every digest equal, a row joins row 0 only if it has row 0's
    # bits, and stands alone otherwise: sharing is lost, never bits
    monkeypatch.setattr(forms, "_row_weights", lambda k, width: np.zeros(width, np.int64))
    reps, group = _distinct_rows(rows)
    assert reps.tolist() == [0, 1, 3, 4, 5] and group.tolist() == [0, 1, 0, 2, 3, 4, 0]


def alternating_row_pair(d=1e17):
    """8x8 densities whose row 3 differences alternate in sign, f0 - f1 = +-d.

    The row's trapezoid integral of f0 - f1 is zero at every node, so the
    row never moves. At 9 steps the last stage time is 2 ulps above 1,
    where (1 - t) * (1 + d) + t * 1 < 0: the flow must still check it.
    """
    v0, v1 = np.ones((8, 8)), np.ones((8, 8))
    v0[0::2, 3] += d
    v1[1::2, 3] += d
    return make_density(0.0, 1.0, 0.0, 1.0, v0), make_density(0.0, 1.0, 0.0, 1.0, v1)


def alternating_run_pair():
    """12x8 densities on a grid of unit spacing whose row 3 starts with an alternating run.

    On nodes 0-5 of the row f0 and f1 swap 1 and 1e-16, so the trapezoid
    integral of f0 - f1 is zero there and those nodes never move. At 9
    steps the last stage time is 2 ulps above 1, where
    (1 - t) * 1 + t * 1e-16 < 0: the flow must still check them. The run
    ends where f0 > f1, so the nodes right of it move away from it.
    """
    v0, v1 = np.ones((12, 8)), np.ones((12, 8))
    v0[0:6:2, 3] = 1e-16
    v1[1:6:2, 3] = 1e-16
    return make_density(0.0, 11.0, 0.0, 1.0, v0), make_density(0.0, 11.0, 0.0, 1.0, v1)


def huge_node_pair(x1):
    """12x8 densities over [0, x1] x [0, 1] whose row 3 moves at nodes 2-3 and reads 1e307 at node 8.

    f0 and f1 agree at the other nodes of the row; at unit spacing the
    nodes around the 1e307 node, and that node, are still.
    """
    v0, v1 = np.ones((12, 8)), np.ones((12, 8))
    v0[8, 3] = v1[8, 3] = 1e307
    v0[2, 3] = v1[3, 3] = 1.5
    return make_density(0.0, x1, 0.0, 1.0, v0), make_density(0.0, x1, 0.0, 1.0, v1)


@pytest.mark.parametrize(
    "pair, steps, message",
    [
        (dipping_pair, 8, None),
        (lambda: shared_row_pair([1.0] * 5 + [1e5, 1e5, 1e-300]), 8, None),
        (lambda: shared_row_pair([1.0, 1.0, 5e-324, 5e-324, 1.0, 1.0, 1.0, 1.0]), 8, None),
        (alternating_row_pair, 9, None),
        # the last node's cubic overflows: the oracle's map turns inf after
        # numpy warnings, the flow stops at the overflow itself
        (lambda: shared_row_pair([1.0] * 7 + [1e307]), 8,
         "density values overflow the flow's arithmetic; rescale the densities"),
        # the failing rows repeat on non-adjacent grid rows
        (repeated_dipping_pair, 8, None),
        (lambda: shared_row_pair([1.0] * 7 + [1e307], at=(1, 3, 5)), 8,
         "density values overflow the flow's arithmetic; rescale the densities"),
        # a moving row whose still-looking run is not still: A = 0, f0 != f1
        (alternating_run_pair, 9, None),
        # still nodes next to a 1e307 node of a moving row: at unit spacing
        # the cubics ring down to the moving nodes, on [0, 1] the nodes next
        # to the huge one overflow
        (lambda: huge_node_pair(11.0), 8, None),
        (lambda: huge_node_pair(1.0), 8,
         "density values overflow the flow's arithmetic; rescale the densities"),
    ],
    ids=["dipping", "tiny-last-node", "subnormal-nodes", "alternating-row", "huge-last-node",
         "dipping-rows", "huge-last-node-rows", "alternating-run", "huge-node-ringing",
         "huge-node-overflow"],
)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_moser_still_row_skip_keeps_the_zero_check(pair, steps, message):
    # the oracle's error, or `message` where the flow stops at an
    # overflow; either way the flow itself warns nothing
    f0, f1 = pair()
    with pytest.raises(ValidationError) as want:
        oracles.moser_interpolation_all_rows(f0, f1, steps=steps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as got:
            moser_interpolation(f0, f1, steps=steps)
    assert str(got.value) == (message or str(want.value))


ROW_MAP_PAIRS = [
    lambda n: gaussian_pair(np.random.default_rng(6), n),
    lambda n: dip_bump_pair(np.random.default_rng(6), n),
]


@pytest.mark.parametrize("pair", ROW_MAP_PAIRS, ids=["gaussian", "dip-bump"])
def test_moser_gap_to_exact_row_map_is_second_order(pair):
    # the flow integrates the trapezoid row integral of f0 - f1, so its
    # map is O(h^2) from F1^-1(F0(x)): each grid halving cuts the gap 4x
    gaps = []
    for n in (64, 128, 256):
        f0, f1 = pair(n)
        rho = moser_interpolation(f0, f1, steps=16)
        gaps.append(np.max(np.abs(rho.disp_x - oracles.moser_row_map(f0, f1))))
    assert gaps[0] / gaps[1] >= 3.5, gaps
    assert gaps[1] / gaps[2] >= 3.5, gaps


@pytest.mark.parametrize("pair", ROW_MAP_PAIRS, ids=["gaussian", "dip-bump"])
def test_moser_gap_to_exact_row_map_ignores_step_count(pair):
    # from 16 steps up the RK4 time error is far below the spatial gap
    f0, f1 = pair(64)
    exact = oracles.moser_row_map(f0, f1)
    gaps = [np.max(np.abs(moser_interpolation(f0, f1, steps=s).disp_x - exact))
            for s in (16, 32, 64, 128)]
    assert max(gaps) - min(gaps) <= 1e-5 * min(gaps), gaps


def test_moser_zero_row_integrals_keep_support():
    f0, f1 = zero_row_pair(n=128)
    rho = moser_interpolation(f0, f1, steps=16)
    box = union_box(f0.support_box, f1.support_box)
    assert support_defect(rho, box) < 1e-9


def test_moser_unbalanced_rows_leak_support():
    # a single bump has nonzero row integrals: the horizontal gauge
    # displaces points all the way to the right edge
    f0, f1 = unbalanced_bump_pair()
    rho = moser_interpolation(f0, f1, steps=16)
    box = union_box(f0.support_box, f1.support_box)
    assert support_defect(rho, box) > 1e-4
