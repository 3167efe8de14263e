"""The three workloads: seeded input files plus one round of CLI calls each.

A round is a fixed list of operations; a run repeats whole rounds, so
every run attempts the same mix whatever its length. Each operation
carries the check its output must pass. Every workload runs all six
commands: the ones outside its focus run on small inputs, so that each
command's latency is reported on every workload while the focus layer
still does most of the work.

- classify: petal loops (n = 256) with area-preserving images and
  scaled copies, and rotated trefoils; arrangement build and face
  labelling dominate.
- scale: single loops at n = 2048 and 4096, and rows of k = 4, 5, 6
  congruent figure-eights; the all-pairs genericity broad phase and the
  k! * 2^k diagram enumeration dominate.
- transport: realize on trefoils and a figure-eight on a 256 x 256
  grid, and moser at 64 steps on a 128 x 128 dip/bump pair and a
  576 x 8 conveyor pair; face integration, the RK4 flow and density
  file I/O dominate.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks as C
import inputs as I

WORKLOADS = ("classify", "scale", "transport")
COMMANDS = ("analyze", "compare_labelled", "compare_symplectic", "symmetry", "realize", "moser")


@dataclass
class Op:
    command: str  # one of COMMANDS, the metric the call's time goes to
    argv: list
    check: Callable[[int, str], None]


class Builder:
    """Writes input files into one directory and collects operations."""

    def __init__(self, directory, rng):
        self.dir = directory
        self.rng = rng
        self.ops = []
        self.curves = []  # every curve file, for the traced run's memory pass
        self.areas = {}  # labelled areas from the latest analyze of each file

    def curve(self, name, loops):
        path = self.dir / f"{name}.curve"
        I.write_curve(path, loops)
        self.curves.append(str(path))
        return str(path)

    def add(self, command, argv, check):
        self.ops.append(Op(command, [str(a) for a in argv], check))

    def analyze(self, path, pts, scaled_from=None, factor=None):
        """analyze a single loop; with `scaled_from`, also check s^2 covariance."""
        m = len(I.crossings(pts))
        (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
        pad = 0.05 * max(x1 - x0, y1 - y0)
        bounds = I.face_area_bounds([pts], x0 - pad, x1 + pad, y0 - pad, y1 + pad, 513, 513)

        def check(code, text):
            areas = C.check_analyze(code, text, m, bounds)
            self.areas[path] = areas
            if scaled_from is not None:
                C.expect(scaled_from in self.areas, "original was not analyzed this round")
                C.check_scaled_areas(self.areas[scaled_from], areas, factor)

        self.add("analyze", ["analyze", path], check)

    def compare(self, a, b, mode, verdict, r, angle_tol=None, area_of=None):
        """compare a b; with `area_of`, bound an EQUIVALENT discrepancy by that file's areas."""
        argv = ["compare", a, b, f"--{mode}"]
        if angle_tol is not None:
            argv += ["--angle-tol", angle_tol]

        def check(code, text):
            max_area = None
            if area_of is not None:
                C.expect(area_of in self.areas, "reference curve was not analyzed this round")
                max_area = float(np.max(self.areas[area_of]))
            C.check_verdict(code, text, verdict, r, max_area)

        self.add(f"compare_{mode}", argv, check)

    def symmetry(self, path, r, marked, order=None, divides=None):
        self.add("symmetry", ["symmetry", path],
                 lambda code, text: C.check_symmetry(code, text, r, marked, order, divides))

    def realize(self, name, pts, grid):
        """realize seeded cone targets on one loop.

        Every target is at least 1.5 times an upper bound of the loop's
        whole face area, so it lies above any single face's base
        integral: the targets are feasible at base scale 1.
        """
        path = self.curve(name, [pts])
        r = len(I.crossings(pts)) + 1
        (x0, y0), (x1, y1) = pts.min(axis=0), pts.max(axis=0)
        pad = 0.25 * max(x1 - x0, y1 - y0)
        _, most = I.face_area_bounds([pts], x0 - pad, x1 + pad, y0 - pad, y1 + pad, grid, grid)
        targets = [float(v) for v in most * (1.0 + self.rng.uniform(0.5, 1.5, size=r))]
        out = self.dir / f"{name}.density"

        def check(code, text):
            density_text = out.read_text() if out.exists() else ""
            out.unlink(missing_ok=True)  # the next round must write its own
            C.check_realize(code, text, targets, density_text, (x0, x1, y0, y1),
                            lambda domain, nx, ny: I.face_area_bounds([pts], *domain, nx, ny))

        self.add("realize", ["realize", path, *(repr(t) for t in targets), "--grid", grid, "--out", out],
                 check)

    def moser(self, name, domain, f0, f1, steps, support=None):
        p0, p1 = self.dir / f"{name}-f0.density", self.dir / f"{name}-f1.density"
        I.write_density(p0, domain, f0)
        I.write_density(p1, domain, f1)
        out = self.dir / f"{name}.map"

        def check(code, text):
            map_text = out.read_text() if out.exists() else ""
            out.unlink(missing_ok=True)  # the next round must write its own
            C.check_moser(code, text, map_text, f0, f1, support)

        self.add("moser", ["moser", p0, p1, "--steps", steps, "--out", out], check)


def _placed(rng, pts):
    """pts under a seeded uniform scaling and translation.

    These leave the work of a call unchanged, where a rotation would
    not: it changes how many segment bounding boxes overlap in the
    genericity check and how many grid cells realize integrates.
    """
    return rng.uniform(0.8, 1.25) * pts + rng.uniform(-2.0, 2.0, size=2)


def _trefoil_pair(b, name, n):
    """An x-stretched trefoil and its rotation by 2 pi / 3, both moved.

    The stretch makes the three outer petals unequal, so matching the
    pair needs a non-trivial element of the trefoil's group of order 3.
    """
    base = I.trefoil_points(n, b.rng.uniform(1.1, 1.3))
    shift_a, shift_b = b.rng.uniform(-2.0, 2.0, size=(2, 2))
    pts = base + shift_a
    turned = base @ I.rotation(2.0 * np.pi / 3.0).T + shift_b
    return pts, b.curve(name, [pts]), b.curve(f"{name}-turned", [turned])


def _affine_image(b, name, pts, n):
    """An area-preserving affine image of pts, resampled at n and screened."""
    m = len(I.crossings(pts))
    for _ in range(100):
        mat, shift = I.unit_jacobian(b.rng)
        image = I.resample(pts @ mat.T + shift, n)
        hits = I.clear_crossings(image)
        if hits is not None and len(hits) == m:
            return b.curve(name, [image])
    raise RuntimeError("no screened affine image found")


# Each builder spreads every command's calls over its round, so that a
# spell of slower machine speed, which on a shared host lasts seconds,
# touches all commands of a run alike rather than one command's calls.


def _classify(b):
    for i, pts in enumerate(I.petals(b.rng, [1, 3, 3, 4, 4, 8])):
        m = len(I.crossings(pts))
        path = b.curve(f"petal{i}", [pts])
        factor = b.rng.uniform(1.2, 1.6)
        scaled = b.curve(f"petal{i}-scaled", [factor * pts])
        image = _affine_image(b, f"petal{i}-image", pts, 512)
        b.analyze(path, pts)
        b.analyze(scaled, factor * pts, scaled_from=path, factor=factor)
        b.compare(path, image, "labelled", "EQUIVALENT", m + 1, angle_tol=0.01, area_of=path)
        b.compare(path, scaled, "labelled", "INEQUIVALENT", m + 1)
        b.compare(path, image, "symplectic", "EQUIVALENT", m + 1, angle_tol=0.01)
        b.symmetry(path, m + 1, m, divides=2 * m)
        if i % 3 == 1:
            pts, path, turned = _trefoil_pair(b, f"trefoil{i}", 256)
            b.compare(path, turned, "symplectic", "EQUIVALENT", 4)
            b.symmetry(path, 4, 3, order=3)
            b.realize(f"light-realize{i}", _placed(b.rng, I.trefoil_points(256)), 64)
            domain, f0, f1, support = I.dip_bump_pair(b.rng, 32)
            b.moser(f"light-moser{i}", domain, f0, f1, 16, support)


def _scale(b):
    # Per command, most calls share one size, so that each median sits in
    # one cost cluster: analyze is mostly n = 2048, compare and symmetry
    # mostly k = 5. The n = 4096 loop sets the peak memory; the k = 6 row
    # runs symmetry only, as its compares cost 2-7 s each.
    loops = (("trefoil-4096", _placed(b.rng, I.trefoil_points(4096))),
             ("petal-2048", I.petals(b.rng, [4], 2048)[0]),
             ("trefoil0-2048", _placed(b.rng, I.trefoil_points(2048))),
             ("trefoil1-2048", _placed(b.rng, I.trefoil_points(2048))))
    for i, (name, pts) in enumerate(loops):
        b.analyze(b.curve(name, [pts]), pts)
        k = (5, 4, 5, 6)[i]
        row, reordered, rescaled = I.figure_eight_row(b.rng, k)
        path = b.curve(f"eights{i}-k{k}", row)
        if k == 6:
            b.symmetry(path, 2 * k, k, order=math.factorial(k))
            continue
        same = b.curve(f"eights{i}-k{k}-reordered", reordered)
        other = b.curve(f"eights{i}-k{k}-rescaled", rescaled)
        for copy in (path, same, other):
            b.symmetry(copy, 2 * k, k, order=math.factorial(k))
        for mode in ("labelled", "symplectic"):
            b.compare(path, same, mode, "EQUIVALENT", 2 * k)
            b.compare(path, other, mode, "INEQUIVALENT", 2 * k)
        b.realize(f"light-realize{i}", _placed(b.rng, I.trefoil_points(1024)), 96)
        domain, f0, f1 = I.conveyor_pair(b.rng.uniform(0.15, 0.17), 1152, ny=4)
        b.moser(f"light-moser{i}", domain, f0, f1, 16)


def _transport(b):
    realize = [("trefoil", I.trefoil_points(512))]
    realize += [(f"trefoil-stretched{i}", I.trefoil_points(512, b.rng.uniform(1.1, 1.3)))
                for i in range(2)]
    realize += [("eight", I.gerono_points(256))]
    moser = [("dip-bump", *I.dip_bump_pair(b.rng, 128))]
    moser += [(f"conveyor{i}", *I.conveyor_pair(b.rng.uniform(0.15, 0.17), 576), None)
              for i in range(2)]
    for i, (name, pts) in enumerate(realize):
        b.realize(name, _placed(b.rng, pts), 256)
        pts, path, turned = _trefoil_pair(b, f"light-trefoil{i}", 256)
        b.analyze(path, pts)
        b.compare(path, _affine_image(b, f"light-image{i}", pts, 512), "labelled", "EQUIVALENT", 4,
                  angle_tol=0.01, area_of=path)
        b.compare(path, turned, "symplectic", "EQUIVALENT", 4)
        b.symmetry(path, 4, 3, order=3)
        if i < len(moser):
            name, domain, f0, f1, support = moser[i]
            b.moser(name, domain, f0, f1, 64, support)


def _warmup(b):
    """One small call of every command, to load lazy state before timing."""
    pts, path, turned = _trefoil_pair(b, "warm-trefoil", 128)
    b.analyze(path, pts)
    b.compare(path, turned, "labelled", "EQUIVALENT", 4)
    b.compare(path, turned, "symplectic", "EQUIVALENT", 4)
    b.symmetry(path, 4, 3, order=3)
    b.realize("warm-realize", pts, 32)
    domain, f0, f1, support = I.dip_bump_pair(b.rng, 16)
    b.moser("warm-moser", domain, f0, f1, 4, support)


_BUILDERS = {"classify": _classify, "scale": _scale, "transport": _transport}


def build(workload, seed, directory):
    """Fresh input files for one workload; returns (round ops, warm-up ops, curve files)."""
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    main = Builder(directory, np.random.default_rng([seed % 2**63, WORKLOADS.index(workload)]))
    _BUILDERS[workload](main)
    warm = Builder(directory, np.random.default_rng(0))
    _warmup(warm)
    return main.ops, warm.ops, main.curves
