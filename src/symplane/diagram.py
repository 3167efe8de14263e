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
        if [s for _, s in sorted(chain.from_iterable(self.occ))] != [0, 1] * len(self.base_sign):
            raise ValidationError("a crossing's two visits must take strands 0 and 1")
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


@dataclass(frozen=True, eq=False)
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
        occ.append(tuple((vid, 0 if arr.vertices[vid].first == (loop, t) else 1)
                         for t, vid in per))
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

    Each component gets the least serial of the readings that take first
    a loop on its outer face and then, each time, a loop that crosses one
    already read (`_search`): below the first loop no two choices tie, so
    each first (loop, basepoint) pair fixes one reading, and a first pair
    that an automorphism found so far maps onto a searched one is
    skipped. A diagram of several components combines its components'
    results down the nesting forest of faces and the components they hold
    (rooted-tree isomorphism): the code is the serial of the canonical
    reading, the first minimal reading in (loop order, rotations) order,
    read once. It takes each component at the least of its tied readings,
    with the subtrees its faces hold after it, sorted by their own codes.
    It has the format of the least serial over all readings, and often
    equals it; where it does not, as for some components of several loops,
    it is the serial of another reading of the same diagram. Chunk reads
    grow as 3k for a row of k congruent figure-eights, 2k for k disjoint
    circles or k nested rings, 2k + 2 for a ring holding k discs,
    2k^2 + 7k + 1 for a flower of k petals on a circle and 21k - 24 for a
    necklace of k circles. Neither the reading rule nor the order of
    components by code depends on the order of the loops, and no swap or
    |G| is derived. Equal strings mean isomorphic oriented labelled plane
    diagrams; the outer face and the traversal orientation are preserved
    by every candidate: a mirror image or a reversed loop will not collide.
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
    by the maps from each component's reading in the canonical reading,
    the first minimal one, to its other ties for its least code, with
    their held subtrees, and by the swaps of equal sibling subtrees (of a
    single loop: by the basepoints whose reading ties with the first least
    one). Only here are they and |G| derived from the forest: |G| is the
    product of each component's tie count and m! for each run of m equal
    siblings, checked against MAX_GROUP_ORDER (ValidationError above it,
    past 30 digits named by its power of ten) before any swap is made.
    Each generator is a pair map over the loops its two readings hold, so
    k - 1 swaps of k disjoint circles hold 2(k - 1) entries, and it is
    checked one way: its image of the canonical reading must read the
    canonical serial (InconsistencyError otherwise), and the two readings'
    label maps give its face and crossing permutations. Then G is listed
    from the generators in whole cosets of one permutation array (Dimino's
    algorithm) and must have that order; the same coset routine picks the
    greedy generators of the sorted rows and checks that they form a group.
    """
    gc = gauss_code(arr)
    return _group(arr, gc, _minimal_readings(gc))


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


def _chunk(gc: GaussCode, loop, rot, vert_label, face_label) -> str:
    """Read one loop from basepoint `rot` on, extending the label maps.

    Vertices and faces are numbered in order of first encounter; the
    maps are updated in place and the loop's chunk of the serial is
    returned. A crossing's two visits take strands 0 and 1, so each
    visit's strand and slot fix the crossing's sign in the reading.
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
                slot = "a"
            else:
                slot = "b"
            sign = gc.base_sign[v] if (strand == 0) == (slot == "a") else -gc.base_sign[v]
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
    """What the reading search finds (see `_minimal_readings`): the
    canonical serial, the canonical reading as (loop, basepoint) pairs
    with its label maps, and G as the forest holds it: tie maps and runs
    of equal siblings. A pair map {loop: (image loop, shift)} holds the
    loops its readings hold and fixes every other loop. |G| and the
    generators are derived only where G is listed (`_group`)."""

    serial: str
    reading: tuple  # (loop, basepoint) pairs of the canonical reading, the first minimal one
    first: tuple[dict, dict]  # its (faces, verts) label maps
    ties: tuple  # per component: pair maps from its reading to its other ties
    runs: tuple  # per run of equal sibling subtrees: their readings in canonical order
    mods: tuple  # per loop: its basepoint count

    @property
    def order(self) -> int:
        """|G|: each component's tie count times m! for each run of m."""
        return (math.prod(len(maps) + 1 for maps in self.ties)
                * math.prod(math.factorial(len(run)) for run in self.runs))

    @property
    def automorphisms(self) -> list:
        """Pair maps that generate G: the tie maps, then swaps of adjacent subtrees of each run."""
        return [*chain.from_iterable(self.ties),
                *(_pair_map(x + y, y + x, self.mods) for run in self.runs for x, y in zip(run, run[1:]))]


def _minimal_readings(gc: GaussCode) -> Readings:
    """The canonical serial, the canonical reading with its (faces, verts)
    label maps, and G as the forest holds it (`Readings`); the canonical
    reading is the first minimal reading in (loop order, rotations) order.

    A reading lists (loop, basepoint) pairs; its serial is the header
    n{V}f{F}o{outer}| followed by the loop chunks joined by |. An
    automorphism is kept as a pair map {l: (l', s)} over the loops its
    two readings hold: it sends pair (l, r) to (l', r + s), every other
    loop's pairs to themselves, and so each reading to one with the same
    serial.

    Each component is searched once over its own loops (`_search`), with
    its host face as outer face, loop after crossing loop from a first
    loop on that face; its minimal readings are the images of the
    reference under the automorphisms found, which act freely on its
    (loop, basepoint) pairs, so they are the orbit of its first pair.
    Bottom-up over the nesting forest (Aho, Hopcroft and Ullman 1974), a
    component's code is the least, over its minimal readings, of its
    serial with the sorted codes of the components each of its faces
    holds attached, face by face in the reading's label order as
    [label(code)(code)...]. Equal codes mean isomorphic subtrees.

    The minimal readings that reach that least are the component's ties.
    Each tie is followed, face by face in its label order, by the
    subtrees the face holds, sorted by code and, among equal codes, by
    their first loop, each at its own reading; the least of these in
    (loop order, rotations) order is the component's reading. Subtrees
    hold disjoint loops, so each is least at its own reading, and the
    outer face's subtrees, arranged so, make the canonical reading: the
    first minimal reading, read once. Its serial, in the format of
    `_search`, is the canonical code; a diagram of one component must
    read the least serial of its search. G is generated by the pair maps
    from each component's reading to its other ties and by swaps of
    adjacent subtrees with equal codes in one face; only the tie maps and
    runs are kept, and |G| and the swaps are derived where G is listed.

    A row of k congruent figure-eights costs 2k chunk reads in the
    searches and k more for the canonical reading; k nested rings or k
    disjoint circles cost 2k, and a ring holding k discs 2k + 2. Within
    one component the search costs O(k^2): 2k^2 + 6k reads for a flower
    of k petals on a circle and 20k - 24 for a necklace of k circles,
    k + 1 and k more for the canonical reading.
    """
    mods = tuple(max(1, len(occ)) for occ in gc.occ)
    if len(gc.occ) == 1:
        # one loop: every leaf is read in key order, so the reference is the
        # first minimal reading and each later minimal leaf one automorphism;
        # the forest's bookkeeping below would double or triple its time
        serial, pairs, maps, auts = _search(gc, (0,), gc.outer_face, mods)
        return Readings(serial, pairs, maps, (tuple(auts),), (), mods)
    loops_of = [[] for _ in gc.hosts]
    for loop, comp in enumerate(gc.components):
        loops_of[comp].append(loop)
    found = [_search(gc, loops, host, mods) for loops, host in zip(loops_of, gc.hosts)]
    hosted = {}
    for c, host in enumerate(gc.hosts):
        hosted.setdefault(host, []).append(c)
    own = {}  # per component: its faces other than its host, in its reference's label order
    down = list(hosted[gc.outer_face])  # each component after the one whose face holds it
    for c in down:  # grows while it is read
        faces = found[c][2][0]
        own[c] = [f for f in sorted(faces, key=faces.get) if f != gc.hosts[c]]
        down.extend(chain.from_iterable(hosted.get(f, ()) for f in own[c]))
    code, walk, tie_maps = {}, {}, []

    def ranked(members):
        """The subtrees of one face in canonical order, equal codes by first loop."""
        return sorted(members, key=lambda x: (code[x], walk[x][0][0]))

    def arranged(members):
        """The subtrees of one face at their readings, in canonical order."""
        return tuple(chain.from_iterable(walk[x] for x in ranked(members)))

    for c in reversed(down):
        serial, base, (faces, _), auts = found[c]
        nested = any(f in hosted for f in own[c])
        best, ties = None, []  # the least held codes; per tie, its own reading and held subtrees
        for g in _orbit([base[0]], auts, mods).values():
            inside, held = [], ()
            if nested:
                fmap = _face_map(gc, g, loops_of[c])
                inside = [hosted.get(fmap[f], ()) for f in own[c]]
                held = tuple(tuple(sorted(code[x] for x in xs)) for xs in inside)
            if best is None or held < best:
                best, ties = held, []
            if held == best:
                ties.append((tuple(_apply(g, p, mods) for p in base), inside))
        readings = sorted((mine + tuple(chain.from_iterable(map(arranged, inside)))
                           for mine, inside in ties),
                          key=lambda r: ([loop for loop, _ in r], [rot for _, rot in r]))
        walk[c] = readings[0]
        tie_maps.append(tuple(_pair_map(readings[0], other, mods) for other in readings[1:]))
        code[c] = serial + "".join(f"[{faces[f]}" + "".join(f"({x})" for x in codes) + "]"
                                   for f, codes in zip(own[c], best) if codes)
    runs = [tuple(walk[x] for x in run) for members in hosted.values()
            for run in (list(g) for _, g in groupby(ranked(members), key=code.get)) if len(run) > 1]
    pairs = arranged(hosted[gc.outer_face])
    serial, faces, verts = _read(gc, pairs)
    if len(gc.hosts) == 1 and serial != found[0][0]:
        raise InconsistencyError("first minimal reading does not read its search's serial")
    return Readings(serial, pairs, (faces, verts), tuple(tie_maps), tuple(runs), mods)


def _search(gc: GaussCode, loops, outer, mods):
    """The least serial of the connected diagram the given loops draw,
    with `outer` as its outer face, over the readings that take first a
    loop on the outer face and then, each time, a loop that crosses one
    already read: (serial, reference reading as (loop, basepoint) pairs,
    its (faces, verts) label maps, pair maps of automorphisms).

    Below the root no two children tie: a later loop passes each crossing
    it shares with the loops read, at least one, exactly once, and no
    other loop passes it, so sibling chunks differ in which labels they
    hold or where. Sibling prefixes end in | and chunks hold none, so the
    least child beats every completion of the others, and a root pair
    fixes its least reading (Weinberg 1966): the search reads all
    children of a node and follows the least, and drops the path once its
    prefix is above the best serial cut to its length.

    The roots are every (loop, basepoint) pair on the outer face; those
    whose first chunk is above the least are dropped. The reference is
    the first reading that reaches the best serial, and a later one with
    that serial is its image under an automorphism, which maps pairs as
    the two readings do; a smaller serial clears them. A root is skipped
    when it lies in the orbit of an entered root under the automorphisms
    found so far, since its reading is an image of that root's. The
    automorphisms found generate G, which acts freely on the roots, and
    for one loop every root is a leaf and none is skipped, so |G| is one
    more than their count. A flower of k petals on a circle costs O(k^2)
    chunk reads, and a necklace of k circles O(k).
    """
    k = len(loops)
    passers = {}  # per crossing: the loops that pass it
    for i in loops:
        for v, _ in gc.occ[i]:
            passers.setdefault(v, set()).add(i)
    crosses = {i: set().union(*(passers[v] for v, _ in gc.occ[i])) - {i} for i in loops}
    n_faces = len({f for i in loops for arc in gc.arcs[i] for f in arc})
    head = f"n{len(passers)}f{n_faces}o"
    best = ref = None  # ref: (pairs, faces, verts) of the first reading at the best serial
    auts = []  # pair maps from ref to each later reading at the best serial

    def children(text, pairs, verts, faces, candidates):
        """Each candidate loop read next at each basepoint, as nodes whose
        text is the serial so far, with a trailing | while loops are left."""
        tail = "" if len(pairs) == k - 1 else "|"
        out = []
        for loop in candidates:
            for rot in range(mods[loop]):
                v, f = dict(verts), dict(faces)
                chunk = _chunk(gc, loop, rot, v, f)
                out.append(((text or f"{head}{f[outer]}|") + chunk + tail, pairs + ((loop, rot),), v, f))
        return out

    def complete(node):
        """Follow the least child from a root to a full reading, unless its
        prefix rises above the best serial, and keep that reading."""
        nonlocal best, ref
        while len(node[1]) < k:
            if best is not None and node[0] > best[: len(node[0])]:
                return
            read = {loop for loop, _ in node[1]}
            node = min(children(*node, [i for i in loops if i not in read and crosses[i] & read]),
                       key=lambda kid: kid[0])
        text, pairs, verts, faces = node
        if best is None or text < best:
            best, ref = text, (pairs, faces, verts)
            auts.clear()
        elif text == best:
            auts.append(_pair_map(ref[0], pairs, mods))

    roots = children("", (), {}, {}, [i for i in loops if any(outer in arc for arc in gc.arcs[i])])
    low = min(text for text, *_ in roots)
    entered, covered = [], {}
    for node in roots:
        if node[0] == low and node[1][0] not in covered:
            entered.append(node[1][0])
            complete(node)
            if k > 1:
                covered = _orbit(entered, auts, mods)
    pairs, faces, verts = ref
    return best, pairs, (faces, verts), auts


def _read(gc: GaussCode, pairs):
    """Read every loop at its (loop, basepoint) pair, in turn: the serial
    and the (faces, verts) label maps."""
    verts, faces = {}, {}
    text = "|".join(_chunk(gc, loop, rot, verts, faces) for loop, rot in pairs)
    return f"n{len(verts)}f{gc.num_faces}o{faces[gc.outer_face]}|{text}", faces, verts


def _pair_map(src, dst, mods):
    """The pair map that carries the (loop, basepoint) pairs of src to
    those of dst, in turn, as {a: (b, rot_b - rot_a)} over the loops src
    holds: loop a -> b, rotation r -> r + rot_b - rot_a. Every other loop
    maps to itself at its own basepoints, so a map holds only the loops
    its readings do."""
    return {loop_a: (loop_b, (rot_b - rot_a) % mods[loop_a])
            for (loop_a, rot_a), (loop_b, rot_b) in zip(src, dst)}


def _face_map(gc: GaussCode, g, loops):
    """Where pair map g sends each face that the given loops touch."""
    out = {}
    for loop in loops:
        image, shift = g.get(loop, (loop, 0))
        arcs, image_arcs = gc.arcs[loop], gc.arcs[image]
        for a, (lf, rf) in enumerate(arcs):
            out[lf], out[rf] = image_arcs[(a + shift) % len(image_arcs)]
    return out


def _apply(g, pair, mods):
    loop, rot = pair
    image, shift = g.get(loop, (loop, 0))
    return image, (rot + shift) % mods[loop]


def _compose(g, h, mods):
    """g after h, on (loop, basepoint) pairs, over the loops either holds."""
    out = {}
    for loop in dict.fromkeys(chain(h, g)):
        mid, s = h.get(loop, (loop, 0))
        image, t = g.get(mid, (mid, 0))
        out[loop] = image, (s + t) % mods[loop]
    return out


def _orbit(points, gens, mods):
    """The pairs reachable from points under gens, each with a map of the
    group they generate that carries the first point of its orbit to it."""
    reached = {}
    for point in points:
        if point in reached:
            continue
        reached[point] = {}
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


def _group(arr: Arrangement, gc: GaussCode, found: Readings) -> SymmetryGroup:
    """G listed from the automorphisms found for arr, whose Gauss code is
    gc (see `symmetry_group`).

    Its order is known before any element is listed; above
    MAX_GROUP_ORDER this raises ValidationError instead. Each element is
    one row, the face permutation followed by r + the vertex permutation,
    so g after h is the gather g[h]; the generators' rows come from
    `_generator_rows`, which checks each one.
    """
    if (order := found.order) > MAX_GROUP_ORDER:
        # a long order by its power of ten: no int-to-string digit limit applies
        size = order if order < 10**30 else f"about 10^{round(math.log10(order))}"
        raise ValidationError(
            f"symmetry group of {size} elements exceeds the budget of "
            f"{MAX_GROUP_ORDER} elements"
        )
    r = arr.r
    rows, _ = _cosets(np.asarray(_generator_rows(arr, gc, found), dtype=np.intp)
                      .reshape(-1, r + len(arr.vertices)))
    if len(rows) != order:
        raise InconsistencyError(
            f"automorphisms close to {len(rows)} elements, orbits give {order}"
        )
    rows = rows[np.lexsort(rows.T[::-1])]
    generators = _checked_generators(rows)
    rows[:, r:] -= r
    rows.setflags(write=False)
    return SymmetryGroup(rows[:, :r], rows[:, r:], generators)


def _generator_rows(arr: Arrangement, gc: GaussCode, found: Readings):
    """The automorphisms found, as element rows of `_group`.

    Each pair map carries the canonical reading to an image reading, read
    in full; two readings of one serial differ by a diagram automorphism
    (Weinberg 1966), whose face and crossing bijections `_correspondence`
    takes from their label maps. An image that reads another serial is
    no diagram automorphism and raises InconsistencyError.
    """
    rows = []
    for g in found.automorphisms:
        serial, faces, verts = _read(gc, [_apply(g, p, found.mods) for p in found.reading])
        if serial != found.serial:
            raise InconsistencyError("pair map is not a diagram automorphism")
        corr = _correspondence(arr, arr, *found.first, faces, verts)
        rows.append([f - 1 for f in corr.faces] + [arr.r + v for v in corr.vertices])
    return rows


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
    verts = tuple(vert_b_inv[vert_a[v]] for v in range(len(a.vertices)))
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
