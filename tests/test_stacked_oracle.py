"""Whole-curve passes against the per-loop and per-walk code they replaced.

`ClosedCurve` checks all its loops in one pass over their stacked
samples; `oracles.validate_loops` checked them loop by loop. Both must
report the same first error, loop by loop and check by check, on curves
of several loops with two seeded faults. `curves._check_cusps` flags the
sharp turns of all loops in one pass; `oracles.check_cusps` made one pass
per loop. `geometry.walk_moments` sums each walk's slice of one array of
shoelace terms; `oracles.polygon_moments` took each walk alone. All must
agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import oracles
import pytest
from conftest import (
    circle_curve,
    cusp_curve,
    eights_row,
    gerono_curve,
    random_trig_loop,
    trefoil_curve,
)

from symplane import curves
from symplane.curves import MAX_COORD, MIN_EXTENT, ClosedCurve
from symplane.errors import ValidationError
from symplane.geometry import walk_moments


def _short(rng, pts):
    return pts[: int(rng.integers(0, 8))]


def _huge(rng, pts):
    sign = rng.choice([-1.0, 1.0])
    pts[rng.integers(len(pts)), rng.integers(2)] = sign * rng.uniform(1.01, 1e3) * MAX_COORD
    return pts


def _tiny(rng, pts):
    centre = pts.mean(axis=0)
    extent = np.max(pts.max(axis=0) - pts.min(axis=0))
    return centre + (pts - centre) * (rng.uniform(0.01, 0.9) * MIN_EXTENT / extent)


def _repeated(rng, pts):
    i = int(rng.integers(len(pts)))
    pts[(i + 1) % len(pts)] = pts[i]
    return pts


def _nonfinite(rng, pts):
    pts[rng.integers(len(pts)), rng.integers(2)] = rng.choice([np.nan, np.inf, -np.inf])
    return pts


def _misshapen(rng, pts):
    return np.column_stack([pts, pts[:, :1]])


MUTATIONS = [_short, _huge, _tiny, _repeated, _nonfinite, _misshapen]


def _loops(rng):
    pool = [*eights_row(3).loops, *circle_curve(n=32, radius=2.0).loops,
            *trefoil_curve(n=64).loops, *random_trig_loop(rng, n=48).loops]
    picks = rng.choice(len(pool), size=int(rng.integers(2, 6)))
    return [np.array(pool[i]) for i in picks]


def _message(fn, loops):
    with pytest.raises(ValidationError) as err:
        fn(loops)
    return str(err.value)


KINDS = ("expected shape", "samples, need", "non-finite", "magnitude above", "extent", "repeated")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(6))
def test_stacked_checks_report_the_per_loop_first_error(seed):
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(60):
        loops = _loops(rng)
        for _ in range(2):
            k = int(rng.integers(len(loops)))
            mutate = MUTATIONS[rng.integers(len(MUTATIONS))]
            if loops[k].ndim == 2 and loops[k].shape[1] == 2 and len(loops[k]):
                with np.errstate(all="ignore"):  # shrinking a loop that holds inf
                    loops[k] = mutate(rng, loops[k])
        new = _message(lambda ls: ClosedCurve(tuple(ls)), loops)
        assert new == _message(oracles.validate_loops, loops)
        seen.update(kind for kind in KINDS if kind in new)
    assert seen == set(KINDS)


def test_first_error_keeps_loop_order():
    # loop 0 repeats a sample, loop 1 is short: loop 0's error comes first
    pts = circle_curve(n=16).loops[0].copy()
    pts[5] = pts[4]
    assert _message(lambda ls: ClosedCurve(tuple(ls)), [pts, pts[:5]]) == \
        "loop 0: repeated consecutive sample"
    # loop 0 is short, loop 1 misshapen or empty
    for bad in (np.zeros((9, 3)), np.zeros((0, 2)), np.zeros(()), np.zeros(0)):
        assert _message(lambda ls: ClosedCurve(tuple(ls)), [pts[:5], bad]) == \
            "loop 0: 5 samples, need at least 8"
        assert _message(lambda ls: ClosedCurve(tuple(ls)), [pts, bad]) == \
            _message(oracles.validate_loops, [pts, bad])


@pytest.mark.parametrize("seed", range(4))
def test_single_pass_cusps_match_per_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    pool = [cusp_curve().loops[0], gerono_curve(n=64).loops[0],
            circle_curve(n=16, radius=0.5).loops[0] + 5.0, random_trig_loop(rng, n=32).loops[0]]
    for _ in range(10):
        picks = [0, *rng.choice(len(pool), size=int(rng.integers(1, 5)))]
        curve = ClosedCurve(tuple(pool[i] for i in rng.permutation(picks)))
        new, old = [], []
        curves._check_cusps(curve, new)
        oracles.check_cusps(curve, old)
        assert len(new) == len(old) >= 2
        for a, b in zip(new, old):
            assert (a.kind, a.branches, a.detail) == (b.kind, b.branches, b.detail)
            assert a.point.tobytes() == b.point.tobytes()


def test_walk_moments_match_per_walk_oracle():
    # 2,000 random closed walks of 3 to 3,000 points, of scales 1e-6 to
    # 1e6, laid end to end; plus degenerate walks of zero area
    rng = np.random.default_rng(11)
    walks = []
    for _ in range(2000):
        m = int(rng.choice([rng.integers(3, 12), rng.integers(12, 300), rng.integers(300, 3000)]))
        pts = rng.standard_normal((m, 2)) * 10.0 ** rng.uniform(-6, 6) + rng.uniform(-50, 50, 2)
        walks.append(np.vstack([pts, pts[:1]]))
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    walks[7] = walks[1500] = line
    closed = np.concatenate(walks)
    stops = np.cumsum([len(w) for w in walks]).tolist()
    for (area, centroid), walk in zip(walk_moments(closed, stops), walks):
        ref_area, ref_centroid = oracles.polygon_moments(walk[:-1], walk[1:])
        assert np.float64(area).tobytes() == np.float64(ref_area).tobytes()
        assert centroid.tobytes() == ref_centroid.tobytes()
