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

Loops that cross each other form a component, and each component lies
in one face of the others, its host. The faces and the components they
host form a rooted forest under the outer face, so a diagram of several
components is read component by component and the readings are
combined down that forest (`_minimal_readings`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from typing import NamedTuple

import numpy as np

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
    components: per loop, its component 0..c-1 (loops joined by crossings).
    hosts: per component, the face it lies in; the outer face at the top.
    """

    occ: tuple[tuple[tuple[int, int], ...], ...]
    arcs: tuple[tuple[tuple[int, int], ...], ...]
    base_sign: tuple[int, ...]
    outer_face: int
    num_faces: int
    components: tuple[int, ...]
    hosts: tuple[int, ...]

    def __post_init__(self):
        counts = Counter(v for loop in self.occ for v, _ in loop)
        if sorted(counts) != list(range(len(self.base_sign))):
            raise ValidationError("occurrences do not cover vertices 0..n-1")
        if any(c != 2 for c in counts.values()):
            raise ValidationError("every crossing must be visited exactly twice")
        if len(self.components) != len(self.occ) or set(self.components) != set(
                range(len(self.hosts))):
            raise ValidationError("components must number each loop's component 0..c-1, "
                                  "one host face each")
        if len(self.hosts) > 1:
            comp = {v: self.components[i] for i, loop in enumerate(self.occ) for v, _ in loop}
            if any(comp[v] != self.components[i]
                   for i, loop in enumerate(self.occ) for v, _ in loop):
                raise ValidationError("a crossing joins loops of two components")

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

    Row k of each read-only int array is element k, sorted, identity first.
    Face permutations act on canonical labels 1..r, 0-indexed (face_perms[k, j]
    is the image of label j+1, minus one), crossing ones on vertex indices.
    """

    face_perms: np.ndarray  # (|G|, r)
    vertex_perms: np.ndarray  # (|G|, V)
    generators: tuple[int, ...]  # indices into the element rows

    @property
    def order(self) -> int:
        return len(self.face_perms)

    @property
    def degree(self) -> int:
        return self.face_perms.shape[1]

    @property
    def marked(self) -> int:
        return self.vertex_perms.shape[1]


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
        components=arr.components,
        hosts=arr.hosts,
    )


def canonical_code(gc: GaussCode) -> str:
    """Canonical serialization over basepoint shifts and loop orderings.

    A diagram of one component gets its least serial, found by a
    depth-first search that drops every branch whose serial prefix is
    already above another's and every tied branch that an automorphism
    found so far maps onto a searched one. A diagram of several components
    searches each component once over its own loops and combines the
    results down the nesting forest of faces and the components they hold
    (rooted-tree isomorphism): the code is the serial of the reading that
    takes each component at its least reading, with the subtrees its faces
    hold after it, sorted by their own codes. It has the format of the
    least serial, and often equals it; where it does not, it is the
    serial of another reading of the same diagram. Chunk reads grow as 3k
    for a row of k congruent figure-eights, 2k for k disjoint circles or
    k nested rings and 2k + 2 for a ring holding k discs. Positions take
    loops by ascending shape, and components by code, so the code does not
    depend on the order in which the loops are given. Equal strings mean
    isomorphic oriented labelled plane diagrams; the outer face and the
    traversal orientation are preserved by every candidate, so a mirror
    image or a reversed loop will not collide.
    """
    return _minimal_readings(gc).serial


def isotopy_match(a: Arrangement, b: Arrangement) -> FaceCorrespondence | None:
    """One diagram isomorphism a -> b as a face-label bijection, if any."""
    return _match(a, b, _minimal_readings(gauss_code(a)), _minimal_readings(gauss_code(b)))


def symmetry_group(arr: Arrangement) -> SymmetryGroup:
    """All diagram automorphisms, as face and crossing permutation
    arrays (read-only; row k is element k, sorted, identity first).

    An automorphism carries each candidate reading (orientation-preserving
    basepoint shifts and loop reorderings) to one with the same serial,
    and two readings with the same serial differ by one. G is generated
    by the ties of each component's least code, with its held subtrees,
    and by the swaps of equal sibling subtrees (of a single loop: by the
    ties the reading search records as it prunes), and |G| is known from
    the search: the product of each component's tie count and m! for
    each run of m equal siblings. It is checked against MAX_GROUP_ORDER
    (ValidationError above it) before any element exists; then G is
    listed from the generators in whole cosets of one permutation array
    (Dimino's algorithm) and must have that order. The same coset routine
    then picks the greedy generators of the sorted rows and checks that
    they form a group.
    """
    return _group(arr, _minimal_readings(gauss_code(arr)))


def perm_cycles(perm: tuple[int, ...]) -> str:
    """Cycle notation over 1-based labels, fixed points omitted; identity prints as 'id'."""
    labels = _labels(len(perm))
    seen = [False] * len(perm)
    parts = []
    for start, image in enumerate(perm):
        if seen[start] or image == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(labels[i])
            i = perm[i]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "id"


@lru_cache(maxsize=64)
def _labels(n: int) -> tuple[str, ...]:
    """The strings '1' to str(n), the labels of perm_cycles."""
    return tuple(map(str, range(1, n + 1)))


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
    automorphisms: tuple  # pair maps (perm, shift) that generate G
    order: int  # |G|


def _minimal_readings(gc: GaussCode) -> Readings:
    """The canonical serial, the first reading that reaches it in (loop
    order, rotations) order, and diagram automorphisms that generate G.

    A reading lists (loop, basepoint) pairs; its serial is the header
    n{V}f{F}o{outer}| followed by the loop chunks joined by |. An
    automorphism is kept as a pair map (perm, shift): it sends pair
    (l, r) to (perm[l], r + shift[l]), and so each reading to one with the
    same serial.

    Each component is searched once over its own loops (`_search`), with
    its host face as outer face; its minimal readings are the images of
    the reference under the automorphisms found, which act freely on its
    (loop, basepoint) pairs, so they are the orbit of its first pair.
    Bottom-up over the nesting forest (Aho, Hopcroft and Ullman 1974), a
    component's code is the least, over its minimal readings, of its
    serial with the sorted codes of the components each of its faces
    holds attached, face by face in the reading's label order as
    [label(code)(code)...]. Equal codes mean isomorphic subtrees.

    The canonical reading reads each component at its least reading and
    then, face by face in label order, the subtrees its faces hold,
    sorted by code and, among equal codes, by their first loop; the top
    level is the outer face's. Its serial, in the format of `_search`, is
    the canonical code; a diagram of one component gets the least serial
    of its search. G is generated by each component's readings that tie
    for its least code, carried over to its subtree, and by swaps of
    adjacent subtrees with equal codes in one face: |G| is the product of
    the tie counts and of m! for each run of m equal siblings.

    The least image of the canonical reading in (loop order, rotations)
    order, the first minimal reading, is found bottom-up too: a subtree's
    is the least, over its component's tied readings, of that reading
    followed, face by face, by the least images of the subtrees the face
    holds, equal codes ordered by their first loop; subtrees hold
    disjoint loops, so each is best at its own least image. It is read
    again when it is not the canonical reading. A row of k congruent
    figure-eights costs 2k chunk reads in the searches and k more for the
    canonical reading; k nested rings or k disjoint circles cost 2k, and a
    ring holding k discs 2k + 2.
    """
    mods = [max(1, len(occ)) for occ in gc.occ]
    if len(gc.occ) == 1:
        # one loop: every leaf is read in key order, so the reference is the
        # first minimal reading and each later minimal leaf one automorphism;
        # the forest's bookkeeping below would double or triple its time
        serial, _, reading, auts = _search(gc, (0,), gc.outer_face, mods)
        return Readings(serial, reading, tuple(auts), 1 + len(auts))
    loops_of = [[] for _ in gc.hosts]
    for loop, comp in enumerate(gc.components):
        loops_of[comp].append(loop)
    found = [_search(gc, loops, host, mods) for loops, host in zip(loops_of, gc.hosts)]
    # each bounded face lies inside exactly one component, its owner
    owner = {f: c for c, (_, _, (faces, _), _) in enumerate(found)
             for f in faces if f != gc.hosts[c]}
    hosted = {}
    for c, host in enumerate(gc.hosts):
        hosted.setdefault(host, []).append(c)
    depth = {}  # components deeper in the forest are read first
    for c in range(len(gc.hosts)):
        path, x = [], c
        while x is not None and x not in depth:
            path.append(x)
            x = owner.get(gc.hosts[x])
        d = -1 if x is None else depth[x]
        for x in reversed(path):
            d += 1
            depth[x] = d
    code, walk, gens, order = {}, {}, [], 1

    def swaps(members):
        """Generators swapping adjacent equal subtrees of one face, and the
        count of the permutations they span."""
        count = 1
        ranked = sorted(members, key=lambda x: (code[x], walk[x][0][0]))
        for run in (list(g) for _, g in groupby(ranked, key=code.get)):
            count *= math.factorial(len(run))
            gens.extend(_pair_map(walk[x] + walk[y], walk[y] + walk[x], mods)
                        for x, y in zip(run, run[1:]))
        return count

    def arranged(members, readings):
        """The subtrees of one face at the given readings, in canonical
        order, equal codes ordered by the first loop of their reading."""
        return tuple(chain.from_iterable(readings[x] for x in sorted(
            members, key=lambda x: (code[x], readings[x][0][0]))))

    def subtree(own_reading, inside, readings):
        """A component's reading followed, face by face, by the subtrees
        each face holds at the given readings."""
        return own_reading + tuple(chain.from_iterable(arranged(xs, readings) for xs in inside))

    least = {}  # per component: the least image of its subtree's reading
    for c in sorted(depth, key=depth.get, reverse=True):
        serial, base, (faces, _), auts = found[c]
        own = [f for f in sorted(faces, key=faces.get) if f != gc.hosts[c]]
        nested = any(f in hosted for f in own)
        best, ties = None, []  # the least held codes; per tie, its own reading and held subtrees
        for g in _orbit([base[0]], auts, mods).values():
            inside, held = [], ()
            if nested:
                fmap = _face_map(gc, g, loops_of[c])
                inside = [hosted.get(fmap[f], ()) for f in own]
                held = tuple(tuple(sorted(code[x] for x in xs)) for xs in inside)
            if best is None or held < best:
                best, ties = held, []
            if held == best:
                ties.append((tuple(_apply(g, p, mods) for p in base), inside))
        readings = [subtree(*tie, walk) for tie in ties]
        walk[c] = readings[0]
        gens.extend(_pair_map(readings[0], other, mods) for other in readings[1:])
        order *= len(ties)
        code[c] = serial + "".join(f"[{faces[f]}" + "".join(f"({x})" for x in codes) + "]"
                                   for f, codes in zip(own, best) if codes)
        least[c] = min((subtree(*tie, least) for tie in ties),
                       key=lambda r: ([loop for loop, _ in r], [rot for _, rot in r]))
    for members in hosted.values():
        order *= swaps(members)
    base = arranged(hosted[gc.outer_face], walk)
    serial, faces, verts = _read(gc, base)
    first = arranged(hosted[gc.outer_face], least)
    return Readings(serial, _reread(gc, serial, first, base, (faces, verts)), tuple(gens), order)


def _search(gc: GaussCode, loops, outer, mods):
    """The least serial of the diagram the given loops draw, with `outer`
    as its outer face: (serial, reference reading as (loop, basepoint)
    pairs, its (faces, verts) label maps, pair maps of automorphisms).

    The search goes depth first over loop positions: position p takes
    each unused loop of the p-th least shape (occurrences, arcs) at each
    basepoint rotation, so the order in which the loops are given does
    not matter. All children of a node are read before any is entered,
    and a child is dropped when its serial prefix (with a trailing | as
    chunks follow) is above a sibling's prefix or above the best serial
    cut to the same length; ties go on. Sibling prefixes end in | and
    chunks hold none, so neither is a proper prefix of the other and the
    lower one beats every completion of the higher. The header is only
    known once the outer face has a label; until then nothing is dropped.

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
    a strong generating set. A row of k congruent loops in one search
    costs about k^3/3 chunk reads and k - 1 automorphisms;
    `_minimal_readings` gives each component a search of its own.
    """
    k = len(loops)
    shape = {i: (len(gc.occ[i]), len(gc.arcs[i])) for i in loops}
    fits = [[i for i in loops if shape[i] == s] for s in sorted(shape.values())]
    n_verts = len({v for i in loops for v, _ in gc.occ[i]})
    n_faces = len({f for i in loops for arc in gc.arcs[i] for f in arc})
    head = f"n{n_verts}f{n_faces}o"
    best = ref = None  # ref: (key, faces, verts) of the first leaf at the best serial
    autos = []  # (reference key, leaf key) with equal serials
    maps = []  # pair maps of autos, made when orbits are first needed

    def pair_maps():
        maps.extend(_pair_map(zip(*a), zip(*b), mods) for a, b in autos[len(maps):])
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
                        autos.append((ref[0], key))
                        ref_order, ref_rots = ref[0]
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
                    gens = [g for g in pair_maps() if _fixes(g, order)]
                    covered = _orbit(entered, gens, mods)
                if pair in covered:
                    continue
            entered.append(pair)
            split = visit(*key, v, s, f, text)
            if split is not None and split < depth:
                return split
        return None

    visit((), (), {}, {}, {}, "")
    key, faces, verts = ref
    return best, tuple(zip(*key)), (faces, verts), pair_maps()


def _read(gc: GaussCode, pairs):
    """Read every loop at its (loop, basepoint) pair, in turn: the serial
    and the (faces, verts) label maps."""
    verts, strands, faces = {}, {}, {}
    text = "|".join(_chunk(gc, loop, rot, verts, strands, faces) for loop, rot in pairs)
    return f"n{len(verts)}f{gc.num_faces}o{faces[gc.outer_face]}|{text}", faces, verts


def _reread(gc: GaussCode, serial, first, base, reading):
    """The (faces, verts) of reading `first`, which must read `serial`;
    `reading` holds those of `base`."""
    if first == base:
        return reading
    text, faces, verts = _read(gc, first)
    if text != serial:
        raise InconsistencyError("least image of the reference reading is not minimal")
    return faces, verts


def _pair_map(src, dst, mods):
    """The pair map that carries the (loop, basepoint) pairs of src to
    those of dst, in turn: loop a -> b, rotation r -> r + rot_b - rot_a;
    the identity on every loop src does not hold."""
    perm, shift = list(range(len(mods))), [0] * len(mods)
    for (loop_a, rot_a), (loop_b, rot_b) in zip(src, dst):
        perm[loop_a] = loop_b
        shift[loop_a] = (rot_b - rot_a) % mods[loop_a]
    return tuple(perm), tuple(shift)


def _identity(mods):
    return tuple(range(len(mods))), (0,) * len(mods)


def _face_map(gc: GaussCode, g, loops):
    """Where pair map g sends each face that the given loops touch."""
    perm, shift = g
    out = {}
    for loop in loops:
        arcs, image = gc.arcs[loop], gc.arcs[perm[loop]]
        for a, (lf, rf) in enumerate(arcs):
            out[lf], out[rf] = image[(a + shift[loop]) % len(image)]
    return out


def _apply(g, pair, mods):
    loop, rot = pair
    return g[0][loop], (rot + g[1][loop]) % mods[loop]


def _compose(g, h, mods):
    """g after h, on (loop, basepoint) pairs."""
    perm, shift = h
    return (tuple(g[0][p] for p in perm),
            tuple((s + g[1][p]) % mods[p] for p, s in zip(perm, shift)))


def _fixes(g, loops):
    """Whether pair map g fixes every basepoint of the given loops."""
    perm, shift = g
    return all(perm[loop] == loop and shift[loop] == 0 for loop in loops)


def _orbit(points, gens, mods):
    """The pairs reachable from points under gens, each with a map of the
    group they generate that carries the first point of its orbit to it."""
    ident = _identity(mods)
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
    """G listed from the automorphisms found for arr (see `symmetry_group`).

    Its order is known before any element is listed; above
    MAX_GROUP_ORDER this raises ValidationError instead. Each element is
    one row, the face permutation followed by r + the vertex permutation,
    so g after h is the gather g[h].
    """
    if found.order > MAX_GROUP_ORDER:
        raise ValidationError(
            f"symmetry group of {found.order} elements exceeds the budget of "
            f"{MAX_GROUP_ORDER} elements"
        )
    r, n = arr.r, arr.r + len(arr.vertices)
    autos = _automorphism_rows(arr, found.automorphisms)
    rows, _ = _cosets(np.asarray(autos, dtype=np.intp).reshape(-1, n))
    if len(rows) != found.order:
        raise InconsistencyError(
            f"automorphisms close to {len(rows)} elements, orbits give {found.order}"
        )
    rows = rows[np.lexsort(rows.T[::-1])]
    generators = _checked_generators(rows)
    rows[:, r:] -= r
    rows.setflags(write=False)
    return SymmetryGroup(rows[:, :r], rows[:, r:], generators)


def _automorphism_rows(arr: Arrangement, maps):
    """Pair maps as element rows of `_group`: under (perm, shift), arc j
    of loop l goes to arc j + shift[l] of loop perm[l], taking the faces
    on its two sides and the crossing it starts at along. A map that
    sends a face or a crossing to two places, a bounded face to the outer
    one, or a passage to one whose crossing turns the other way is no
    diagram automorphism and raises InconsistencyError."""
    r = arr.r
    # per loop and passage: the sign of its crossing seen from its strand
    turns = [[_turn(arr.vertices[v], loop, t) for t, v in per]
             for loop, per in enumerate(arr.passages)]
    rows = []
    for perm, shift in maps:
        row = [-1] * (r + len(arr.vertices))
        for loop, arcs in enumerate(arr.loop_arcs):
            image, passages = arr.loop_arcs[perm[loop]], arr.passages[perm[loop]]
            for j, he in enumerate(arcs):
                k = (j + shift[loop]) % len(image)
                for x, y in ((he, image[k]),
                             (arr.half_edges[he].twin, arr.half_edges[image[k]].twin)):
                    fa, fb = arr.faces[arr.half_edges[x].face], arr.faces[arr.half_edges[y].face]
                    if fa.is_outer != fb.is_outer or (
                            not fa.is_outer and row[fa.label - 1] not in (-1, fb.label - 1)):
                        raise InconsistencyError("pair map is not a diagram automorphism")
                    if not fa.is_outer:
                        row[fa.label - 1] = fb.label - 1
                if passages:
                    v, w = r + arr.passages[loop][j][1], r + passages[k][1]
                    if row[v] not in (-1, w) or turns[loop][j] != turns[perm[loop]][k]:
                        raise InconsistencyError("pair map is not a diagram automorphism")
                    row[v] = w
        rows.append(row)
    return rows


def _turn(vertex, loop, t):
    """The sign of a crossing seen from the strand of loop `loop` at t."""
    return vertex.sign if vertex.branches[0] == (loop, t) else -vertex.sign


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


def _checked_generators(rows):
    """Greedy generators of the element rows in their order, checking the
    group axioms.

    Each row not yet generated becomes a generator (`_cosets`), and every
    row generated must be one of the given rows, which must be distinct
    and hold the identity. Then the rows are exactly the group the
    generators span.
    """
    present = set(_keys(rows))
    if len(present) != len(rows):
        raise InconsistencyError("automorphism set repeats an element")
    if np.arange(rows.shape[1], dtype=rows.dtype).tobytes() not in present:
        raise InconsistencyError("automorphism set lacks the identity")
    return _cosets(rows, present)[1]


def _cosets(rows, present=None):
    """Dimino's listing of the group spanned by the rows, taken in order:
    (its elements, the indices of the rows that were needed).

    A row not yet listed joins the generators and extends the subgroup
    found so far, sub, by whole right cosets sub[:, x]: x is first the
    row, then each product of a coset representative with a generator
    that is not yet listed. The cosets listed are then closed under right
    multiplication by every generator, so they make up the group, and
    cosets of a permutation group never overlap, so no row is listed
    twice. A generator that is not a permutation raises
    InconsistencyError, and so, given `present` (a set of row keys), does
    a listed row outside it.
    """
    n = rows.shape[1]
    sub = np.arange(n, dtype=rows.dtype)[None]
    seen, perm = {sub.tobytes()}, set(range(n))
    gens, used = [], []

    def add_coset(x):
        block = sub[:, x]
        new = _keys(block)
        if present is not None and not present.issuperset(new):
            raise InconsistencyError("automorphism set not closed under composition")
        seen.update(new)
        blocks.append(block)
        reps.append(x)

    for i, key in enumerate(_keys(rows)):
        if key in seen:
            continue
        if set(rows[i].tolist()) != perm:
            raise InconsistencyError("automorphism is not a permutation")
        gens.append(rows[i])
        used.append(i)
        blocks, reps = [sub], []
        add_coset(rows[i])
        for x in reps:  # grows while it is read
            for g in gens:
                y = x[g]
                if y.tobytes() not in seen:
                    add_coset(y)
        sub = np.concatenate(blocks)
    return sub, tuple(used)


def _keys(rows):
    """The bytes of each row of a 2-D array, as hashable keys."""
    return np.ascontiguousarray(rows).view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist()
