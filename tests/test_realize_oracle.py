"""Realization against the full-grid code it replaced.

`forms.realize_area_vector` builds one face integrator per call and
evaluates each bump only on its disc's node window. It must return the
same density values, bit for bit, and raise the same errors with the
same messages as `oracles.realize_area_vector`, which keeps one
full-grid bump per face and integrates through a fresh face raster
each time.
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

from symplane.arrangement import build_arrangement, face_areas, integrate_density_over_faces
from symplane.errors import RealizationError
from symplane.forms import density_for_curve, make_density, realize_area_vector

GRIDS = (64, 193, 256)


@pytest.fixture(scope="module")
def realize_arrangements():
    named = [trefoil_curve(), gerono_curve(), holed_curve(), eights_row(3),
             petal_curve(LEAKING_PETAL)]
    loops = [c for c, _ in generic_trig_loops(seed=5, count=6)]
    return [build_arrangement(c) for c in named + loops]


def outcome(realize, arr, target, **kwargs):
    """Density values on success, (error type, message) on failure."""
    try:
        return realize(arr, target, **kwargs).values
    except Exception as exc:  # noqa: BLE001  (the error itself is compared)
        return type(exc), str(exc)


def assert_same(arr, target, **kwargs):
    old = outcome(oracles.realize_area_vector, arr, target, **kwargs)
    new = outcome(realize_area_vector, arr, target, **kwargs)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert isinstance(new, np.ndarray) and np.array_equal(new, old)
    return old


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
    target = 2.0 * face_areas(arr).values + 1.0
    kind, message = assert_same(arr, target)
    assert kind is RealizationError
    assert "face 1 puts mass into another face" in message
