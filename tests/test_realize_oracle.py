"""Realization against the full-grid code it replaced.

`forms.realize_area_vector` builds one face integrator per call and
evaluates each bump only on its disc's node window. It must return the
same density values, bit for bit, and raise the same errors with the
same messages as `oracles.realize_area_vector`, which keeps one
full-grid bump per face and integrates through a fresh face raster
each time. The face integrals it returns with the density must equal,
bit for bit, a separate `integrate_density_over_faces` of that density. Each bump's mass and leak test, read on its window by the
integrator's `on_window`, must equal `oracles.bump_masses`, which runs
the whole-grid integrator once per bump, and the `on_window` of
`oracles.face_integrator`, which keeps a cell-shaped window buffer.
"""

from __future__ import annotations

import numpy as np
import oracles
import pytest
from conftest import (
    LEAKING_PETAL,
    eights_row,
    generic_trig_loops,
    gerono_curve,
    holed_curve,
    petal_curve,
    trefoil_curve,
)

from symplane.arrangement import (
    build_arrangement,
    face_areas,
    face_integrator,
    integrate_density_over_faces,
)
from symplane.errors import RealizationError
from symplane.forms import (
    Density,
    _face_bumps,
    density_for_curve,
    make_density,
    realize_area_vector,
    unit_density,
)

GRIDS = (64, 193, 256)


@pytest.fixture(scope="module")
def realize_arrangements():
    named = [trefoil_curve(), gerono_curve(), holed_curve(), eights_row(3),
             petal_curve(LEAKING_PETAL)]
    loops = [c for c, _ in generic_trig_loops(seed=5, count=6)]
    return [build_arrangement(c) for c in named + loops]


def outcome(realize, arr, target, **kwargs):
    """What realize returns on success, (error type, message) on failure."""
    try:
        return realize(arr, target, **kwargs)
    except Exception as exc:  # noqa: BLE001  (the error itself is compared)
        return type(exc), str(exc)


def assert_same(arr, target, **kwargs):
    """The oracle's density values, or its error; the new code must agree.

    On success the integrals returned with the density must be, bit for
    bit, those of an independent integration of that density.
    """
    old = outcome(oracles.realize_area_vector, arr, target, **kwargs)
    new = outcome(realize_area_vector, arr, target, **kwargs)
    if isinstance(old, tuple):
        assert new == old
        return old
    density, achieved = new
    assert isinstance(density, Density) and np.array_equal(density.values, old.values)
    independent = integrate_density_over_faces(arr, density)
    assert achieved.dtype == independent.dtype and achieved.tobytes() == independent.tobytes()
    return old.values


def carved_integrals(arr, base, base_scale):
    """Face integrals of base after the oracle's carve by base_scale."""
    values = np.array(base.values)
    for prof in oracles._face_profiles(arr, base):
        values = values * (1.0 - (1.0 - base_scale) * prof)
    return integrate_density_over_faces(arr, make_density(base.x0, base.x1, base.y0, base.y1,
                                                          values))


@pytest.mark.parametrize("n", GRIDS)
def test_realize_matches_full_grid_oracle(realize_arrangements, n):
    rng = np.random.default_rng(n)
    outcomes = []
    for arr in realize_arrangements:
        unit = density_for_curve(arr.curve, n=n)
        # a user base that differs from 1 under every bump, so the windowed
        # carve and bump masses read real values
        varied = make_density(unit.x0, unit.x1, unit.y0, unit.y1,
                              rng.uniform(0.5, 2.0, size=(n, n)))
        for base in (None, varied):
            given = unit if base is None else base
            current = integrate_density_over_faces(arr, given)
            carved = carved_integrals(arr, given, 0.2)
            below = 0.5 * (current + carved)
            for target in (current + 1.0, current, below):
                for base_scale in (1.0, 0.2):
                    outcomes.append(assert_same(arr, target, base=base,
                                                base_scale=base_scale, grid_n=n))
    # both outcomes occur: densities and errors
    assert any(isinstance(o, np.ndarray) for o in outcomes)
    assert any(isinstance(o, tuple) for o in outcomes)


def test_leaking_petal_raises_the_leak_error_on_both_sides():
    arr = build_arrangement(petal_curve(LEAKING_PETAL))
    target = 2.0 * face_areas(arr) + 1.0
    kind, message = assert_same(arr, target)
    assert kind is RealizationError
    assert "face 1 puts mass into another face" in message


def hexed(weighed):
    """(mass, leaks) pairs with each mass as its exact bits."""
    return [(float(mass).hex(), leaks) for mass, leaks in weighed]


def window_and_full_grid(integrate, values, bumps):
    new = [integrate.on_window(bump * values[win], win, j) for j, (win, bump) in enumerate(bumps)]
    return hexed(new), hexed(oracles.bump_masses(integrate, values, bumps))


def unit_on(arr, nx, ny):
    """The unit density on a square grid over the curve's inflated box, or
    on test_face_raster's non-square grid, whose margins differ per side."""
    if nx == ny:
        return density_for_curve(arr.curve, n=nx)
    x0, x1, y0, y1 = arr.curve.bbox()
    return unit_density(x0 - 0.1, x1 + 0.3, y0 - 0.2, y1 + 0.1, nx, ny)


@pytest.mark.parametrize("nx, ny", [(n, n) for n in GRIDS] + [(97, 61)],
                         ids=[str(n) for n in GRIDS] + ["97x61"])
def test_window_masses_match_full_grid_loop(realize_arrangements, nx, ny):
    # nx != ny: a window's cell range reaches nx - 1 cells along x and
    # ny - 1 along y
    rng = np.random.default_rng(nx)
    leaks, reach = [], []
    for arr in realize_arrangements:
        unit = unit_on(arr, nx, ny)
        varied = make_density(unit.x0, unit.x1, unit.y0, unit.y1,
                              rng.uniform(0.5, 2.0, size=(nx, ny)))
        for base in (unit, varied):
            bumps = _face_bumps(arr, base)
            integrate = face_integrator(arr, base)
            full_pass = oracles.face_integrator(arr, base)
            for base_scale in (1.0, 0.2):
                values = np.array(base.values)
                for win, bump in bumps:
                    values[win] = values[win] * (1.0 - (1.0 - base_scale) * bump)
                new, old = window_and_full_grid(integrate, values, bumps)
                assert new == old
                assert new == hexed(full_pass.on_window(bump * values[win], win, j)
                                    for j, (win, bump) in enumerate(bumps))
                leaks += [leak for _, leak in new]
            # the far third of the grid along x, then along y, weighed for
            # every face: it reaches the cells of faces there
            for far in ((slice(nx - nx // 3, nx), slice(0, ny)),
                        (slice(0, nx), slice(ny - ny // 3, ny))):
                filled = [(far, np.ones(base.values[far].shape))] * arr.r
                new, old = window_and_full_grid(integrate, base.values, filled)
                assert new == old
                reach += [leak for _, leak in new]
    assert any(reach)
    # the leaking petal's face 1 bump reaches another face on the 256^2 grid
    assert any(leaks) == (nx == ny == 256)


def test_window_masses_at_the_grid_edge_and_on_underflow():
    arr = build_arrangement(trefoil_curve(n=256))
    n = 64
    base = density_for_curve(arr.curve, n=n)
    integrate = face_integrator(arr, base)
    ones = np.ones((n, n))
    rng = np.random.default_rng(3)
    windows = [
        (slice(0, 6), slice(0, 5)),
        (slice(58, n), slice(60, n)),
        (slice(0, n), slice(0, n)),
        (slice(20, 44), slice(0, n)),
    ]
    for win in windows:
        shape = (win[0].stop - win[0].start, win[1].stop - win[1].start)
        vals = rng.uniform(0.0, 1.0, size=shape) * (rng.uniform(size=shape) < 0.7)
        new, old = window_and_full_grid(integrate, ones, [(win, vals)] * arr.r)
        assert new == old

    # one tiny node in face 2: its cells are > 0, yet each face integral
    # underflows to 0 in the product with the cell area, so no face leaks
    xs, ys = base.xs, base.ys
    rx, ry = arr.bounded_faces[1].rep_point
    i, j = int(np.argmin(np.abs(xs - rx))), int(np.argmin(np.abs(ys - ry)))
    win = (slice(i - 1, i + 2), slice(j - 1, j + 2))
    tiny = np.zeros((3, 3))
    tiny[1, 1] = 2e-323
    nodes = np.zeros((n, n))
    nodes[win] = tiny
    assert np.any(oracles._cell_means(nodes) > 0)
    new, old = window_and_full_grid(integrate, ones, [(win, tiny)] * arr.r)
    assert new == old == [(0.0.hex(), False)] * arr.r
    # scaled up, the same node weighs on face 2 alone
    assert integrate.on_window(1e300 * tiny, win, 0)[1]
    assert integrate.on_window(1e300 * tiny, win, 1) == (integrate(1e300 * nodes)[1], False)
