"""Combinatorial diagram of an arrangement: codes, matching, symmetry.

A traversal of the curve in parameter order induces a Gauss code: each
crossing appears twice, tagged with a sign (orientation of the two
strand tangents at the crossing) and a slot (first or second visit).
Together with which faces sit left and right of every arc, and which
face is unbounded, this pins the diagram as an oriented plane diagram:
two arrangements are isomorphic exactly when some orientation-preserving
choice of basepoints and loop order reads off identical data.

Only cyclic basepoint shifts are tried, never reversals, so all
comparisons respect the curve orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .arrangement import Arrangement
from .errors import InconsistencyError, ValidationError

# largest symmetry group that `symmetry_group` lists, checked from |G|
# before any element exists: 8! elements, a row of eight congruent loops
MAX_GROUP_ORDER = math.factorial(8)


@dataclass(frozen=True)
class GaussCode:
    """Raw traversal data, in arrangement numbering.

    occ: per loop, the visited (vertex index, strand index) pairs in
    parameter order; strand 0 is the chronologically earlier passage.
    arcs: per loop, (left face, right face) of the arc after each
    passage; a crossing-free loop has no occurrences and one arc.
    base_sign: per vertex, the orientation sign of (strand-0 tangent,
    strand-1 tangent).
    """

    occ: tuple[tuple[tuple[int, int], ...], ...]
    arcs: tuple[tuple[tuple[int, int], ...], ...]
    base_sign: tuple[int, ...]
    outer_face: int
    num_faces: int

    def __post_init__(self):
        counts: dict[int, int] = {}
        for loop in self.occ:
            for v, _ in loop:
                counts[v] = counts.get(v, 0) + 1
        if sorted(counts) != list(range(len(self.base_sign))) and counts:
            raise ValidationError("occurrences do not cover vertices 0..n-1")
        if any(c != 2 for c in counts.values()):
            raise ValidationError("every crossing must be visited exactly twice")

    def labelled_sequences(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Per loop: (crossing label, slot, sign) with labels 1.. by first visit."""
        label: dict[int, int] = {}
        out = []
        for loop in self.occ:
            row = []
            for v, strand in loop:
                if v not in label:
                    label[v] = len(label) + 1
                    slot = 0
                else:
                    slot = 1
                row.append((label[v], slot, self.base_sign[v]))
            out.append(tuple(row))
        return tuple(out)


@dataclass(frozen=True)
class FaceCorrespondence:
    """Bijection of canonical face labels (and crossings) from a to b."""

    faces: tuple[int, ...]  # faces[j-1] is the b-label matching a-label j
    vertices: tuple[int, ...]  # arrangement vertex index in b per vertex of a


@dataclass(frozen=True)
class SymmetryGroup:
    """Diagram automorphisms as paired face and crossing permutations.

    Face permutations act on canonical labels 1..r (stored 0-indexed:
    face_perms[k][j] is the image of label j+1, minus one). Crossing
    permutations act on arrangement vertex indices.
    """

    degree: int
    marked: int
    face_perms: tuple[tuple[int, ...], ...]
    vertex_perms: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]  # indices into the element list

    @property
    def order(self) -> int:
        return len(self.face_perms)

    def __iter__(self):
        return iter(zip(self.face_perms, self.vertex_perms))


def gauss_code(arr: Arrangement) -> GaussCode:
    """Extract the traversal code of an arrangement."""
    occ = []
    arcs = []
    for loop, per in enumerate(arr.passages):
        occ.append(tuple((vid, arr.vertices[vid].branches.index((loop, t))) for t, vid in per))
        row_arcs = []
        for he_idx in arr.loop_arcs[loop]:
            he = arr.half_edges[he_idx]
            row_arcs.append((he.face, arr.half_edges[he.twin].face))
        arcs.append(tuple(row_arcs))
    return GaussCode(
        occ=tuple(occ),
        arcs=tuple(arcs),
        base_sign=tuple(v.sign for v in arr.vertices),
        outer_face=arr.outer_face,
        num_faces=len(arr.faces),
    )


def canonical_code(gc: GaussCode) -> str:
    """Minimal serialization over basepoint shifts and loop orderings.

    The minimum is found by a depth-first search that drops every branch
    whose serial prefix is already above another's and every tied branch
    that an automorphism found so far maps onto a searched one, not by
    reading every candidate: k congruent loops cost O(k^3) chunk reads,
    not k!. Equal strings mean isomorphic oriented labelled plane
    diagrams; the outer face and the traversal orientation are preserved
    by every candidate, so a mirror image or a reversed loop will not
    collide.
    """
    return _minimal_readings(gc).serial


def isotopy_match(a: Arrangement, b: Arrangement) -> FaceCorrespondence | None:
    """One diagram isomorphism a -> b as a face-label bijection, if any."""
    return _match(a, b, _minimal_readings(gauss_code(a)), _minimal_readings(gauss_code(b)))


def symmetry_group(arr: Arrangement) -> SymmetryGroup:
    """All diagram automorphisms, as face and crossing permutations.

    An automorphism carries each candidate reading (orientation-preserving
    basepoint shifts and loop reorderings) to one with the same serial,
    and two readings with the same serial differ by one. The reading
    search records such pairs as it prunes ties, and they generate G; G
    is listed as their closure, after its order, known from the search,
    is checked against MAX_GROUP_ORDER (ValidationError above it). The
    closure must have that order, and the sorted element set is checked
    to be a group while its generators are found.
    """
    return _group(arr, _minimal_readings(gauss_code(arr)))


def compose_perms(g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
    """g after h: the image of i is g[h[i]]."""
    return tuple(map(g.__getitem__, h))


def perm_cycles(perm: tuple[int, ...]) -> str:
    """Cycle notation over 1-based labels, fixed points omitted; identity prints as 'id'."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i + 1)
            i = perm[i]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "id"


# internals


def _chunk(gc: GaussCode, loop, rot, vert_label, first_strand, face_label) -> str:
    """Read one loop from basepoint `rot` on, extending the label maps.

    Vertices and faces are numbered in order of first encounter; the
    maps are updated in place and the loop's chunk of the serial is
    returned.
    """
    occ = gc.occ[loop]
    arcs = gc.arcs[loop]
    m = len(occ)
    toks = []
    for k in range(max(m, len(arcs))):
        if m:
            v, strand = occ[(k + rot) % m]
            if v not in vert_label:
                vert_label[v] = len(vert_label)
                first_strand[v] = strand
                slot = "a"
            else:
                slot = "b"
            sign = gc.base_sign[v] if first_strand[v] == 0 else -gc.base_sign[v]
            tok = f"{vert_label[v]}{slot}{'+' if sign > 0 else '-'}"
        else:
            tok = "."
        lf, rf = arcs[(k + rot) % len(arcs)]
        for f in (lf, rf):
            if f not in face_label:
                face_label[f] = len(face_label)
        toks.append(f"{tok}:{face_label[lf]}.{face_label[rf]}")
    return ",".join(toks)


class Readings(NamedTuple):
    """What the reading search finds (see `_minimal_readings`)."""

    serial: str
    first: tuple[dict, dict]  # (faces, verts) of the first minimal reading
    automorphisms: tuple  # (reference, leaf): (key, faces, verts) readings with equal serials
    order: int  # |G|


def _minimal_readings(gc: GaussCode) -> Readings:
    """The minimal serial, the first reading that reaches it in (loop order,
    rotations) order, and diagram automorphisms that generate G.

    The serial of a reading is the header n{V}f{F}o{outer}| followed by
    the loop chunks joined by |. The search goes depth first over loop
    positions: position p takes each unused loop of the same shape as
    loop p at each basepoint rotation. All children of a node are read
    before any is entered, and a child is dropped when its serial prefix
    (with a trailing | as chunks follow) is above a sibling's prefix or
    above the best serial cut to the same length; ties go on. Sibling
    prefixes end in | and chunks hold none, so neither is a proper prefix
    of the other and the lower one beats every completion of the higher.
    The header is only known once the outer face has a label; until then
    nothing is dropped.

    Ties are pruned by the automorphisms they reveal (McKay 1981): the
    reference is the first leaf that reaches the best serial, and a later
    leaf with the same serial is its image under an automorphism, which
    maps (loop, basepoint) pairs as the two readings do. The search then
    jumps back to the node where the two readings part, since everything
    below that node on the new side is the image of what was searched on
    the reference side. A tied child is skipped when it lies in the orbit
    of an entered sibling under the automorphisms found so far that fix
    every pair of the node's prefix; its subtree is an image of the
    sibling's. Along the reference path each level's found orbit is the
    whole orbit of its stabilizer, so the automorphisms found there form
    a strong generating set: |G| is the product of those orbit lengths,
    and the first minimal reading in (loop order, rotations) order, which
    pruning may have skipped, is the least image of the reference, found
    level by level through their transversals. A row of k congruent loops
    costs about k^3/3 chunk reads and k - 1 automorphisms.
    """
    k = len(gc.occ)
    shape = [(len(gc.occ[i]), len(gc.arcs[i])) for i in range(k)]
    mods = [max(1, m) for m, _ in shape]
    fits = [[i for i in range(k) if shape[i] == shape[p]] for p in range(k)]
    head = f"n{len({v for occ in gc.occ for v, _ in occ})}f{gc.num_faces}o"
    outer = gc.outer_face
    best = ref = None  # ref: (key, faces, verts) of the first leaf at the best serial
    autos = []  # (reference, leaf) with equal serials
    maps = []  # pair maps of autos, made when orbits are first needed

    def pair_maps():
        maps.extend(_pair_map(a[0][0], a[1][0], mods) for a in autos[len(maps):])
        return maps

    def visit(order, rots, verts, strands, faces, body):
        """Search below one node; return the depth to jump back to, if any."""
        nonlocal best, ref
        depth = len(order)
        last = depth == k - 1
        kids = []
        for loop in fits[depth]:
            if loop in order:
                continue
            for rot in range(mods[loop]):
                v, s, f = dict(verts), dict(strands), dict(faces)
                text = body + _chunk(gc, loop, rot, v, s, f)
                key = (order + (loop,), rots + (rot,))
                if last:
                    serial = f"{head}{f[outer]}|{text}"
                    if best is None or serial < best:
                        best, ref = serial, (key, f, v)
                    elif serial == best:
                        autos.append((ref, (key, f, v)))
                        (ref_order, ref_rots), _, _ = ref
                        if (ref_order[:depth], ref_rots[:depth]) != (order, rots):
                            # jump back to the node where the two readings part
                            return next(j for j in range(depth)
                                        if (ref_order[j], ref_rots[j]) != (order[j], rots[j]))
                    continue
                text += "|"
                prefix = f"{head}{f[outer]}|{text}" if outer in f else None
                kids.append((prefix, key, v, s, f, text))
        low = min((kid[0] for kid in kids if kid[0] is not None), default=None)
        entered, covered, seen = [], set(), None
        for prefix, key, v, s, f, text in kids:
            if prefix is not None and (
                prefix > low or (best is not None and prefix > best[: len(prefix)])
            ):
                continue
            pair = (key[0][-1], key[1][-1])
            if autos:
                if seen != (len(autos), len(entered)):
                    seen = (len(autos), len(entered))
                    gens = [g for g in pair_maps() if _fixes(g, order, rots)]
                    covered = _orbit(entered, gens, mods)
                if pair in covered:
                    continue
            entered.append(pair)
            split = visit(*key, v, s, f, text)
            if split is not None and split < depth:
                return split
        return None

    visit((), (), {}, {}, {}, "")
    (ref_order, ref_rots), faces, verts = ref
    # one loop: every leaf is read in key order, so the reference is the
    # first minimal reading and each later minimal leaf one automorphism
    order = 1 + len(autos)
    if autos and k > 1:
        order = 1
        base = tuple(zip(ref_order, ref_rots))
        least = {(): (tuple(range(k)), (0,) * k)}  # least image prefixes, each with one g
        for d, point in enumerate(base):
            gens = [g for g in pair_maps() if _fixes(g, ref_order[:d], ref_rots[:d])]
            transversal = _orbit([point], gens, mods)
            order *= len(transversal)
            images = [(img + (_apply(h, y, mods),), _compose(h, u, mods))
                      for img, h in least.items() for y, u in transversal.items()]
            low = min(img[-1][0] for img, _ in images)
            least = {img: g for img, g in images if img[-1][0] == low}
        first = min(least, key=lambda img: [rot for _, rot in img])
        if first != base:
            faces, verts, strands = {}, {}, {}
            text = "|".join(_chunk(gc, loop, rot, verts, strands, faces) for loop, rot in first)
            if f"{head}{faces[outer]}|{text}" != best:
                raise InconsistencyError("least image of the reference reading is not minimal")
    return Readings(best, (faces, verts), tuple(autos), order)


def _pair_map(ref_key, key, mods):
    """The map of (loop, basepoint) pairs that carries reading ref_key to key:
    loop order_ref[j] -> order[j], rotation r -> r + rots[j] - rots_ref[j]."""
    perm, shift = [0] * len(mods), [0] * len(mods)
    for loop_a, rot_a, loop_b, rot_b in zip(*ref_key, *key):
        perm[loop_a] = loop_b
        shift[loop_a] = (rot_b - rot_a) % mods[loop_a]
    return tuple(perm), tuple(shift)


def _apply(g, pair, mods):
    loop, rot = pair
    return g[0][loop], (rot + g[1][loop]) % mods[loop]


def _compose(g, h, mods):
    """g after h, on (loop, basepoint) pairs."""
    perm, shift = h
    return (tuple(g[0][p] for p in perm),
            tuple((s + g[1][p]) % mods[p] for p, s in zip(perm, shift)))


def _fixes(g, order, rots):
    """Whether pair map g fixes every (loop, rotation) pair of a prefix."""
    perm, shift = g
    return all(perm[loop] == loop and shift[loop] == 0 for loop in order)


def _orbit(points, gens, mods):
    """The pairs reachable from points under gens, each with a map of the
    group they generate that carries the first point of its orbit to it."""
    ident = (tuple(range(len(mods))), (0,) * len(mods))
    reached = {}
    for point in points:
        if point in reached:
            continue
        reached[point] = ident
        frontier = [point]
        while frontier and gens:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = _apply(g, x, mods)
                    if y not in reached:
                        reached[y] = _compose(g, reached[x], mods)
                        nxt.append(y)
            frontier = nxt
    return reached


def _match(a: Arrangement, b: Arrangement, found_a: Readings, found_b: Readings):
    """The correspondence between the first minimal readings of a and b,
    given as `_minimal_readings` results, or None if the serials differ."""
    if found_a.serial != found_b.serial:
        return None
    return _correspondence(a, b, *found_a.first, *found_b.first)


def _group(arr: Arrangement, found: Readings) -> SymmetryGroup:
    """G as the closure of the automorphisms found for arr (see `symmetry_group`).

    Its order is known before any element is listed; above
    MAX_GROUP_ORDER this raises ValidationError instead.
    """
    if found.order > MAX_GROUP_ORDER:
        raise ValidationError(
            f"symmetry group of {found.order} elements exceeds the budget of "
            f"{MAX_GROUP_ORDER} elements"
        )
    ident = (tuple(range(arr.r)), tuple(range(len(arr.vertices))))
    elements, used = {ident}, []
    for (_, *reading), (_, *image) in found.automorphisms:
        corr = _correspondence(arr, arr, *reading, *image)
        h = (tuple(f - 1 for f in corr.faces), corr.vertices)
        if h in elements:
            continue
        used.append(h)
        frontier = list(elements)
        while frontier:
            nxt = []
            for g in frontier:
                for u in used:
                    prod = (compose_perms(g[0], u[0]), compose_perms(g[1], u[1]))
                    if prod not in elements:
                        elements.add(prod)
                        nxt.append(prod)
            frontier = nxt
    if len(elements) != found.order:
        raise InconsistencyError(
            f"automorphisms close to {len(elements)} elements, orbits give {found.order}"
        )
    elements = sorted(elements)
    generators = _checked_generators(elements)
    return SymmetryGroup(
        degree=arr.r,
        marked=len(arr.vertices),
        face_perms=tuple(e[0] for e in elements),
        vertex_perms=tuple(e[1] for e in elements),
        generators=generators,
    )


def _correspondence(a: Arrangement, b: Arrangement, face_a, vert_a, face_b, vert_b):
    """Turn two equal readings into a face-label and vertex bijection."""
    face_b_inv = {j: f for f, j in face_b.items()}
    vert_b_inv = {j: v for v, j in vert_b.items()}
    faces = [0] * a.r
    for fa in a.faces:
        if fa.is_outer:
            continue
        fb_idx = face_b_inv[face_a[fa.index]]
        fb = b.faces[fb_idx]
        if fb.is_outer:
            raise InconsistencyError("face correspondence sent a bounded face to the outer face")
        faces[fa.label - 1] = fb.label
    verts = tuple(vert_b_inv[vert_a[v.index]] for v in a.vertices)
    return FaceCorrespondence(faces=tuple(faces), vertices=verts)


def _checked_generators(elements):
    """Greedy generators of the sorted element list, checking the group axioms.

    Each element not yet generated becomes a generator, and the generated
    set is closed under right multiplication by the generators. Every
    product must be an element and the identity must be one. Then every
    element is generated and the set is closed under products with the
    generators, so it equals the group the generators span; a finite set
    of permutations closed under products also holds every inverse.
    """
    present = set(elements)
    n_f, n_v = (len(elements[0][0]), len(elements[0][1])) if elements else (0, 0)
    ident = (tuple(range(n_f)), tuple(range(n_v)))
    if ident not in present:
        raise InconsistencyError("automorphism set lacks the identity")
    generated = {ident}
    gens: list[int] = []
    for k, el in enumerate(elements):
        if el in generated:
            continue
        gens.append(k)
        frontier = list(generated)
        while frontier:
            nxt = []
            for g in frontier:
                for h_idx in gens:
                    h = elements[h_idx]
                    prod = (compose_perms(g[0], h[0]), compose_perms(g[1], h[1]))
                    if prod not in generated:
                        if prod not in present:
                            raise InconsistencyError(
                                "automorphism set not closed under composition"
                            )
                        generated.add(prod)
                        nxt.append(prod)
            frontier = nxt
    return tuple(gens)
