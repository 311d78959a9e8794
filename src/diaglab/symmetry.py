"""The diagonal group as explicit permutations of G^m, and its invariants.

Generators come in five types: per-coordinate right multiplications,
simultaneous left multiplication, automorphisms acting coordinatewise,
coordinate permutations, and the inversion twist
(g_1, ..., g_m) -> (g_1^-1, g_1^-1 g_2, ..., g_1^-1 g_m).

The order of the generated group D is n * |D_0|, D_0 the stabiliser of
vertex 0; it is compared against |G|^m * |Aut(G)| * (m+1)!.  D_0's
generators are Schreier generators over the transversal of right
translations t_p: x -> x*p, checked to be in D and transitive.  A generator
s needs one per orbit of the translations it conjugates into translations.
One deterministic Schreier-Sims chain (numpy arrays as permutations) of
D_0, with the m+1 minimal partitions as its first base points, gives |D_0|
and, from its first m+1 levels, the order of the group D_0 induces on the
partitions.  That is the group D induces, as the right translations are
checked to fix every minimal partition.  After the partitions the chain
acts on N[0], the closed neighbourhood of vertex 0, where the graph's
neighbourhood certificate holds (``diaggraph.neighbourhood_is_a_base``),
and on all n vertices under ``paranoid`` or where it fails.  The
certificate proves D_0 faithful on N[0], as D_0's generators are checked
to be automorphisms first.  Let h be an automorphism fixing N[0]
pointwise.  It maps the ball of radius 2 about 0, its distance-2 vertices
and the rest onto themselves, so it keeps the initial colours of the
refinement, and by induction each round's: a new colour is a function of
the old one and the multiset of neighbour colours, and h maps the
neighbours of v onto those of h(v).  (A hash collision only merges
classes.)  The colouring ends discrete, so h fixes the ball, and with it
N[v] for every v in N(0).  The right translation t_x, an automorphism
mapping 0 to x, carries this to every x: if h fixes N[x] pointwise,
t_x^-1 h t_x fixes N[0] pointwise.  Along paths from 0 in the connected
graph h then fixes every vertex, so h = 1.

Every map of all the vertices that acts coordinate by coordinate (the
translations, the Schreier generators, the left multiplications of the
primitivity test, the automorphisms, the inversion) is one
``semilattice.coordinatewise`` row; ``vertex_products`` is left to the
arrays of items.

Each generator is checked once to be a graph automorphism, on the whole
neighbour array (``diaggraph.check_automorphisms``), under ``paranoid`` or
where the graph's translation certificate fails.  Wherever
``DiagGraph.rooted`` reads the certificate, the right multiplications are
left to it, and each generator that normalises them, as
``stabiliser_and_normalisers`` finds, is checked at vertex 0 alone: it is
an automorphism iff, composed with a translation to fix 0, it maps the
neighbours of 0 onto themselves.  The orbits on the edges and the maximum
cliques are then counted from those through vertex 0 alone (the cliques as
the clique census lists them, with their number).  Every count reads the
group and the vertex codec of the graph.
Any d in D with d(0) = y is t_y times an element of D_0, so two items
through 0 share a D-orbit exactly when D_0 maps one onto a re-rooting
C*c^-1 of the other, c in C; every link is looked up in a dict of the
items through 0.
As D is the regular group of right translations times D_0, a set
through 0 is a block of D iff it is a subgroup of G^m that D_0 maps onto
itself, and by Higman's criterion the minimal block through 0 and v is
the subgroup that v's suborbit under D_0 generates: primitivity is read
from one such subgroup per suborbit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .diaggraph import DiagGraph, TaggedPerm, check_automorphisms, right_translations
from .errors import CapExceededError
from .groups import (
    GroupTable,
    automorphism_group,
    generating_sequence,
    is_elementary_abelian,
    is_simple_nonabelian,
)
from .partitions import Partition, components, induced_permutations, start_blocks
from .semilattice import VertexCodec, coordinatewise, diagonal_maps, vertex_products


def _perm_group_generators(perms: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Greedy generating subset of a closed permutation list: in sorted
    order, each permutation that the ones kept so far do not generate
    (membership by sifting through their stabiliser chain)."""
    if not perms:
        return []
    chain = StabilizerChain(len(perms[0]))
    gens: list[tuple[int, ...]] = []
    for p in sorted(perms):
        perm = np.asarray(p, dtype=chain.dtype)
        if chain._sift(perm, 0)[0] is None:
            continue
        gens.append(p)
        chain.add_generator(perm)
        if chain.order() == len(perms):
            break
    return gens


def diagonal_group_generators(
    g: GroupTable, codec: VertexCodec, aut: list[tuple[int, ...]]
) -> list[TaggedPerm]:
    """Explicit image arrays for a generating set of the diagonal group on
    the points of ``codec``, G^m, given ``aut = automorphism_group(g)``.

    Uses generating sequences of G and of Aut(G) rather than full element
    lists; identity permutations are dropped and duplicates removed.
    """
    mul, inv = g.mul_array, g.inv_array
    out = right_translations(g, codec)
    seen = {np.arange(codec.size, dtype=np.intp).tobytes()} | {p.image.tobytes() for p in out}

    def emit(tag: str, image: np.ndarray) -> None:
        perm = TaggedPerm(tag=tag, image=image)
        key = perm.image.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(perm)

    def in_each_coordinate(table) -> np.ndarray:
        return coordinatewise(codec, np.asarray(table)[None, None])[0]

    for x in generating_sequence(g):
        emit("diag-left-mult", in_each_coordinate(mul[inv[x]]))
    for alpha in _perm_group_generators(aut):
        emit("aut", in_each_coordinate(alpha))
    for tag, image in diagonal_maps(g, codec):
        emit(tag, image)
    return out


def diagonal_group_order_formula(g: GroupTable, m: int, aut: list[tuple[int, ...]]) -> int:
    """|G|^m * |Aut(G)| * (m+1)!, given ``aut = automorphism_group(g)``."""
    return g.order**m * len(aut) * factorial(m + 1)


class StabilizerChain:
    """Deterministic Schreier-Sims chain over numpy permutations, with the
    points of ``base`` as its first base points, in order; further base
    points are each the first point that a new strong generator moves.

    Level k works with its *effective* generator set: every strong generator
    stored at level k or deeper (all of those fix the bases above k, but may
    still move points of level k's orbit).  Adding a generator at one level
    therefore re-opens every shallower level; ``add_generator`` sweeps to a
    global fixpoint, and per-(level, generator) progress pointers keep the
    total work at one pass over each (orbit point, generator) pair.
    """

    def __init__(self, degree: int, base: Sequence[int] = ()):
        self.degree = degree
        self.dtype = np.int16 if degree <= 32000 else np.int32
        self.identity = np.arange(degree, dtype=self.dtype)
        self._identity_key = self.identity.tobytes()
        self.bases: list[int] = []
        self.eff: list[list[np.ndarray]] = []  # effective gens per level
        self.transversal: list[dict[int, np.ndarray]] = []
        self.inv_transversal: list[dict[int, np.ndarray]] = []
        self.orbit_order: list[list[int]] = []
        self._orbit_scan: list[dict[int, int]] = []
        self._schreier_done: list[dict[int, int]] = []
        self._seen_schreier: list[set[bytes]] = []
        self._version = 0
        for b in base:
            self._new_level(b)

    def order(self, levels: int | None = None) -> int:
        """The product of the fundamental orbit lengths of the first
        ``levels`` levels, all of them by default: the group order, or the
        order of the group's action on the first ``levels`` base points
        when no generator moves them outside those points."""
        return prod(len(trans) for trans in self.transversal[:levels])

    def stabilizer_generators(self) -> list[np.ndarray]:
        """Strong generators fixing the first base point."""
        return list(self.eff[1]) if len(self.bases) > 1 else []

    def _sift(self, p: np.ndarray, start: int) -> tuple[np.ndarray | None, int]:
        for level in range(start, len(self.bases)):
            b = self.bases[level]
            r = int(p[b])
            if r == b:
                continue
            inv = self.inv_transversal[level].get(r)
            if inv is None:
                return p, level
            p = inv[p]
        if p.tobytes() == self._identity_key:
            return None, -1
        return p, len(self.bases)

    def _new_level(self, base: int) -> None:
        self.bases.append(base)
        self.eff.append([])
        self.transversal.append({base: self.identity})
        self.inv_transversal.append({base: self.identity})
        self.orbit_order.append([base])
        self._orbit_scan.append({})
        self._schreier_done.append({})
        self._seen_schreier.append({self._identity_key})

    def _register(self, level: int, perm: np.ndarray) -> None:
        """Store perm at `level`; it is effective at every level up to it."""
        for k in range(level + 1):
            self.eff[k].append(perm)
        self._version += 1

    def _extend_orbit(self, level: int) -> None:
        trans = self.transversal[level]
        inv_trans = self.inv_transversal[level]
        order = self.orbit_order[level]
        eff = self.eff[level]
        scan = self._orbit_scan[level]
        moved = True
        while moved:
            moved = False
            for gi in range(len(eff)):
                start = scan.get(gi, 0)
                if start == len(order):
                    continue
                s = eff[gi]
                oi = start
                while oi < len(order):
                    p = order[oi]
                    r = int(s[p])
                    if r not in trans:
                        tr = s[trans[p]]
                        trans[r] = tr
                        inv = np.empty(self.degree, dtype=self.dtype)
                        inv[tr] = self.identity
                        inv_trans[r] = inv
                        order.append(r)
                    oi += 1
                scan[gi] = oi
                moved = True

    def _complete_level(self, level: int) -> None:
        """Extend the orbit and sift outstanding Schreier generators until
        the level is quiescent (deeper levels are completed recursively)."""
        trans = self.transversal[level]
        inv_trans = self.inv_transversal[level]
        order = self.orbit_order[level]
        eff = self.eff[level]
        done = self._schreier_done[level]
        seen = self._seen_schreier[level]
        base = self.bases[level]
        while True:
            self._extend_orbit(level)
            pending = [
                gi for gi in range(len(eff))
                if done.get(gi, 0) < len(order)
            ]
            if not pending:
                return
            for gi in pending:
                s = eff[gi]
                stop = len(order)
                for oi in range(done.get(gi, 0), stop):
                    p = order[oi]
                    x = s[trans[p]]
                    r = int(x[base])
                    sg = inv_trans[r][x]
                    key = sg.tobytes()
                    if key in seen:  # the identity is there from the start
                        continue
                    seen.add(key)
                    residue, at = self._sift(sg, level + 1)
                    if residue is not None:
                        self._add_at(at, residue)
                done[gi] = stop

    def add_generator(self, perm: np.ndarray) -> None:
        residue, level = self._sift(perm, 0)
        if residue is None:
            return
        self._add_at(level, residue)
        while True:
            version = self._version
            for k in range(len(self.bases) - 1, -1, -1):
                self._complete_level(k)
            if version == self._version:
                return

    def _add_at(self, level: int, perm: np.ndarray) -> None:
        if level == len(self.bases):
            moved = int(np.nonzero(perm != self.identity)[0][0])
            self._new_level(moved)
        self._register(level, perm)
        self._complete_level(level)


def build_chain(perms: list[TaggedPerm], base: Sequence[int] = ()) -> StabilizerChain:
    """Stabiliser chain of the group generated by perms, with ``base`` as
    its first base points.

    Each level holds a transversal element and its inverse per orbit point,
    so the chain takes the sum of its orbit lengths times the degree in
    permutation entries, twice over.
    """
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0].image)
    chain = StabilizerChain(degree, base)
    for p in perms:
        chain.add_generator(p.image.astype(chain.dtype))
    return chain


def stabiliser_and_normalisers(
    g: GroupTable, codec: VertexCodec, perms: list[TaggedPerm]
) -> tuple[list[TaggedPerm], list[bool]]:
    """Generators of D_0, the stabiliser of vertex 0 in the group D that
    ``perms`` generate on G^m, the points of ``codec``, each tagged with the
    generator it comes from.

    The translations among ``perms`` (p(x) = x*p(0) for every x) must act
    transitively, or AssertionError: then they generate the regular group R
    of right translations t_v: x -> x*v, so R <= D and t_p, which maps 0 to
    p, is a transversal of D_0 in D.  By Schreier's lemma D_0 is generated
    by the sigma(s, p) = t_{s(p)}^-1 s t_p, that is x -> s(x*p) * s(p)^-1,
    over the generators s and the points p; sigma is 1 when s is a
    translation.  If s t_v s^-1 = t_w, then s(p*v) = s(p)*w and
    sigma(s, p*v) = sigma(s, p).  So sigma(s, .) is constant on the orbits
    of the translation generators r with s r s^-1 in R, and is formed once
    per orbit.  Identities and repeats are dropped.

    The generators are held in the narrowest integer type of the vertex
    numbers, and the conjugates of every translation generator under every
    other generator are tested in one batch, in blocks of generators within
    ``BLOCK_BYTES``; when s normalises them all, the orbits are those of the
    translations, all of G^m.  The second list says, for each of ``perms``,
    whether it normalises the translations: it is a translation, or it maps
    each translation generator to one by conjugation.

    Every map of all the vertices here is coordinatewise, so one
    ``coordinatewise`` call builds each batch of rows: the translations t_v,
    x -> x*v, take coordinate i to its product with v_i, and sigma(s, p) is
    t_{s(p)^-1} read at s(t_p(x)), one ``take_along_axis``.
    """
    n = codec.size
    vertices = np.arange(n)
    mul_by = g.mul_array.T  # mul_by[v] maps a to a*v
    inverse = coordinatewise(codec, g.inv_array[None, None])[0]  # of each vertex

    def blocked(rows: np.ndarray, per_row, bits: int = 256 * n) -> np.ndarray:
        """``per_row`` applied to ``rows`` one block of rows at a time, each
        row taking ``bits``, by default a few int64 arrays of n entries; no
        rows give no flags."""
        return np.concatenate([per_row(rows[block.start:block.stop])
                               for block in start_blocks(range(len(rows)), bits)]
                              or [np.zeros(0, dtype=bool)])

    def translations(points: np.ndarray, dtype=np.intp) -> np.ndarray:
        """One row per point v: the right translation t_v."""
        return coordinatewise(codec, mul_by[codec.digits[points]], dtype)

    def are_translations(images: np.ndarray) -> np.ndarray:
        return (images == translations(images[:, 0], images.dtype)).all(axis=1)

    small = np.min_scalar_type(n - 1)
    images = np.array([p.image for p in perms], dtype=small)
    is_shift = blocked(images, are_translations)
    shifts = images[is_shift]
    orbits = components(n, shifts)
    if orbits.any():
        raise AssertionError("the translations among the generators are not transitive")
    movers = np.flatnonzero(~is_shift)
    moved = images[movers]
    undo = np.empty_like(moved)
    np.put_along_axis(undo, moved, np.arange(n, dtype=small), axis=1)

    def conjugates_are_translations(block: np.ndarray) -> np.ndarray:
        """Row j: whether s r s^-1, x -> s(r(s^-1(x))), is a translation for
        each r of ``shifts``, s the generator ``movers[block[j]]``."""
        inner = shifts[:, undo[block]]
        conjugates = np.take_along_axis(moved[block][None], inner, axis=2)
        return are_translations(conjugates.reshape(-1, n)).reshape(len(shifts), -1).T

    normalised = blocked(np.arange(len(movers)), conjugates_are_translations,
                         16 * small.itemsize * n * (len(shifts) + 1))
    normalisers = is_shift.tolist()
    out: list[TaggedPerm] = []
    seen = {np.arange(n, dtype=np.intp).tobytes()}
    for j, kept in zip(movers, normalised):
        s = perms[j]
        normalisers[j] = bool(kept.all())
        lab = orbits if normalisers[j] else components(n, shifts[kept])
        points = np.flatnonzero(lab == vertices)
        sigmas = blocked(points, lambda ps: np.take_along_axis(
            translations(inverse[s.image[ps]]), s.image[translations(ps)], axis=1))
        for sigma in sigmas:
            key = sigma.tobytes()
            if key not in seen:
                seen.add(key)
                out.append(TaggedPerm(tag=s.tag, image=sigma))
    return out, normalisers


def _rooted_orbit_count(
    graph: DiagGraph, stabiliser: list[TaggedPerm], at_zero: np.ndarray, total: int,
) -> int:
    """Orbits of D on a D-invariant set of ``total`` items of one size, from
    ``at_zero``, its items that contain vertex 0 (rows of one array).

    Each item C is linked to its image under every generator of D_0 and to
    its re-rooting C*c^-1 at each of its points c, the right translation
    by c^-1.  The distinct items are numbered in a dict keyed by their
    sorted points, and every link image is looked up there.
    Raises AssertionError, naming the first mover that fails, if a link
    leaves ``at_zero``, or if ``total * |C|`` is not n times the number of
    items through 0, as it is for a set closed under the translations.
    """
    n, g, codec = graph.size, graph.group, graph.codec
    rows = np.sort(np.asarray(at_zero, dtype=np.int32), axis=1)
    if total * rows.shape[1] != n * len(rows):
        raise AssertionError(f"{total} items of {rows.shape[1]} points, "
                             f"{len(rows)} of them through vertex 0, on {n} vertices")
    ids: dict[tuple[int, ...], int] = {}
    for item in map(tuple, rows.tolist()):
        ids.setdefault(item, len(ids))
    distinct = np.array(list(ids), dtype=np.int32).reshape(len(ids), rows.shape[1])
    movers = [f"generator {s.tag}" for s in stabiliser]
    images = [s.image[distinct] for s in stabiliser]
    # c^-1 for each point c of each item; column 0 holds vertex 0 itself
    inverse = codec.index(g.inv_array[codec.digits[distinct[:, 1:]]])
    for c in range(rows.shape[1] - 1):
        movers.append("a translation")
        images.append(vertex_products(g, codec, distinct, inverse[:, c:c + 1]))
    looked_up = np.sort(np.concatenate(images), axis=1).tolist()
    links = np.array([ids.get(tuple(item), -1) for item in looked_up], dtype=np.int32)
    links = links.reshape(len(images), len(ids))
    failed = (links < 0).any(axis=1)
    if failed.any():
        raise AssertionError(f"{movers[np.argmax(failed)]} maps an item outside the item set")
    lab = components(len(ids), links)
    return int(np.count_nonzero(lab == np.arange(len(ids))))


def _check_at_zero(graph: DiagGraph, perms: list[TaggedPerm]) -> None:
    """Raise AssertionError, as ``check_automorphisms`` does, unless every
    generator is an automorphism of ``graph``, given that the right
    translations are automorphisms and that each generator p normalises
    them.

    Then sigma = t_{p(0)^-1} p fixes 0 and normalises the translations, so
    sigma t_v sigma^-1 = t_{sigma(v)} and sigma(y x^-1) = sigma(y) sigma(x)^-1.
    As {x, y} is an edge iff y x^-1 is a neighbour of 0, sigma, and with it
    p, is an automorphism iff sigma maps the neighbours of 0 onto
    themselves: O(valency) per generator.
    """
    if not perms:
        return
    n, g, codec = graph.size, graph.group, graph.codec
    ends = graph.nbr[0][graph.nbr[0] < n]
    back = codec.index(g.inv_array[codec.digits[[p.image[0] for p in perms]]])  # p(0)^-1
    moved = vertex_products(g, codec, np.array([p.image[ends] for p in perms]), back[:, None])
    failed = (np.sort(moved, axis=1) != ends).any(axis=1)
    if failed.any():
        raise AssertionError(f"generator {perms[np.argmax(failed)].tag} "
                             "maps an item outside the item set")


def rooted_orbit_counts(
    graph: DiagGraph,
    perms: list[TaggedPerm],
    stabiliser: list[TaggedPerm],
    cliques: tuple[list[tuple[int, ...]], int] | None = None,
    *,
    paranoid: bool = False,
    normalisers: list[bool] | None = None,
) -> tuple[int, int, int | None]:
    """Orbits of the group D that ``perms`` generate on the vertices, the
    edges and a set of cliques of one size (``cliques``: those through
    vertex 0 and the size of the set; None for no cliques), given generators
    ``stabiliser`` of D_0 over the right translations, as
    ``stabiliser_and_normalisers`` returns them.

    Every generator is first checked to be an automorphism, so the edge set
    is D-invariant.  Where ``graph.rooted(paranoid)``, the graph's
    translation certificate has checked the right translations, and each
    generator that normalises them (``normalisers``, as
    ``stabiliser_and_normalisers`` finds; None for none) is checked at
    vertex 0 alone (``_check_at_zero``); every other generator is checked
    on the whole graph (``check_automorphisms``).  The edges and cliques are then counted from those
    through vertex 0 alone: if d in D maps C onto C' and d(0) = y, then
    t_{y^-1} d lies in D_0 and maps C onto C'*y^-1, the re-rooting of C' at
    y.  So the D-orbits are the components of the links from D_0's
    generators and the re-rootings.  Raises AssertionError when a check
    fails: a generator is no automorphism, a link leaves the items through
    0, or an item set is not spread evenly over the vertices.
    """
    rooted = graph.rooted(paranoid)
    at_zero = [rooted and x for x in normalisers or [False] * len(perms)]
    check_automorphisms(graph, [p for p, z in zip(perms, at_zero) if not z])
    _check_at_zero(graph, [p for p, z in zip(perms, at_zero) if z])
    n = graph.size
    lab = components(n, [p.image for p in perms])
    vertex_orbits = int(np.count_nonzero(lab == np.arange(n)))
    ends = graph.nbr[0][graph.nbr[0] < n]
    edges = np.stack([np.zeros_like(ends), ends], axis=1)
    edge_orbits = _rooted_orbit_count(graph, stabiliser, edges, graph.edge_count)
    clique_orbits = None
    if cliques is not None:
        clique_orbits = _rooted_orbit_count(graph, stabiliser, *cliques)
    return vertex_orbits, edge_orbits, clique_orbits


@dataclass(frozen=True)
class PrimitivityReport:
    primitive: bool
    criterion: bool | None  # None when the group is outside the supported classification
    analysed_points: int

    @property
    def agrees(self) -> bool | None:
        if self.criterion is None:
            return None
        return self.primitive == self.criterion


def primitivity_criterion(g: GroupTable, m: int) -> bool | None:
    """Closed-form primitivity where the group classification is supported.

    Supported: elementary abelian p-groups (primitive iff p does not divide
    m+1), simple non-abelian groups, and explicit direct powers of simple
    non-abelian groups (both always primitive).  Anything else returns None.
    """
    p = is_elementary_abelian(g)
    if p is not None:
        return (m + 1) % p != 0
    try:
        if is_simple_nonabelian(g):
            return True
    except CapExceededError:
        return None
    if g.factors:
        labels = {f.label for f in g.factors}
        if len(labels) == 1:
            try:
                if is_simple_nonabelian(g.factors[0]):
                    return True
            except CapExceededError:
                return None
    return None


def higman_block_trivial(g: GroupTable, codec: VertexCodec, suborbit: np.ndarray) -> bool:
    """True iff the minimal block through vertex 0 and the points of
    ``suborbit``, an orbit of D_0 on G^m, is the whole set, for a group D
    that contains the right translations and has D_0 as the stabiliser of
    vertex 0.

    By Higman's criterion that block is the component of 0 in the orbital
    graph of (0, v), v in ``suborbit``, whose edges are the D-images of
    (0, v): x -> u*x for u in ``suborbit``, as d = t_x d_0 maps (0, v) to
    (x, d_0(v)*x).  So it is the subgroup of G^m that ``suborbit``
    generates.  It is grown one point of the suborbit at a time, each
    outside the subgroup so far, which then at least doubles: a
    ``components`` call over two links, the labels so far and the left
    multiplication by the point taken (coordinate i to its product with
    the point's, one ``coordinatewise`` row).
    """
    inside, links = np.arange(codec.size) == 0, []
    while True:
        outside = suborbit[~inside[suborbit]]
        if not len(outside):
            return bool(inside.all())
        left = coordinatewise(codec, g.mul_array[codec.digits[outside[:1]]])[0]
        lab = components(codec.size, links + [left])
        inside, links = lab == 0, [lab]


def is_vertex_primitive(
    g: GroupTable, codec: VertexCodec, stabiliser: list[np.ndarray]
) -> PrimitivityReport:
    """Block-system primitivity of a group D on G^m, the points of
    ``codec``, that contains the right translations, given image arrays
    ``stabiliser`` that generate D_0, the stabiliser of vertex 0 (those of
    ``stabiliser_and_normalisers``).

    The minimal block containing {0, v} depends only on the suborbit of v,
    so one representative per suborbit is tested, the least point of each
    component of the stabiliser generators, by ``higman_block_trivial``.
    """
    n = codec.size
    if codec.q != g.order or any(len(s) != n for s in stabiliser):
        raise ValueError(f"stabiliser generators on {sorted({len(s) for s in stabiliser})} "
                         f"points given for {g.order}^{codec.m} vertices")
    lab = components(n, stabiliser)
    reps = np.flatnonzero(lab == np.arange(n))[1:]
    primitive = all(higman_block_trivial(g, codec, np.flatnonzero(lab == v)) for v in reps)
    return PrimitivityReport(
        primitive=primitive,
        criterion=primitivity_criterion(g, codec.m),
        analysed_points=len(reps),
    )


def action_on_partitions(
    perms: list[TaggedPerm], minimals: list[Partition]
) -> list[tuple[int, ...]]:
    """Induced permutation of the minimal partitions for each generator
    (``partitions.induced_permutations``).  Raises, naming the first
    generator that fails, if some generator does not permute them (that
    would contradict the semilattice being preserved).
    """
    if not perms:
        return []
    induced = induced_permutations(np.stack([p.image for p in perms]), minimals)
    for p, row in zip(perms, induced):
        if row is None:
            raise AssertionError(
                f"generator {p.tag} maps a minimal partition outside the family")
    return induced


def _on_closed_neighbourhood(graph: DiagGraph, stabiliser: list[TaggedPerm]) -> list[np.ndarray]:
    """Each generator of D_0 restricted to N[0], the closed neighbourhood of
    vertex 0, as a permutation of its positions in N[0] (0, then the sorted
    neighbours).  Raises AssertionError, naming the first generator, unless
    each maps N[0] onto itself, as an automorphism fixing 0 does."""
    n = graph.size
    closed = np.concatenate([[0], graph.nbr[0][graph.nbr[0] < n]])
    moved = np.stack([s.image[closed] for s in stabiliser])
    failed = (np.sort(moved, axis=1) != closed).any(axis=1)
    if failed.any():
        raise AssertionError(f"generator {stabiliser[np.argmax(failed)].tag} "
                             "maps the closed neighbourhood of vertex 0 outside itself")
    return list(np.searchsorted(closed, moved))


def partition_chain(
    perms: list[TaggedPerm],
    stabiliser: list[TaggedPerm],
    minimals: list[Partition],
    graph: DiagGraph | None = None,
    *,
    paranoid: bool = False,
) -> StabilizerChain:
    """One stabiliser chain of D_0, given its generators ``stabiliser``,
    acting on the k = m+1 minimal partitions, points 0..k-1, then on G^m,
    vertex v as point k+v, with the partitions as its first k base points.
    Where ``graph`` is given and ``graph.based_at_zero(paranoid)``, it acts
    on N[0], 0 and the sorted neighbours of 0, instead of G^m: its j-th
    point is point k+j.

    ``chain.order()`` is |D_0|, and ``chain.order(k)`` is the order of the
    group that D_0 induces on the minimal partitions.  That is the group
    that D, generated by ``perms``, induces: D is the right translations
    times D_0, and the right translations among ``perms`` (tag
    ``right-mult``) are checked to fix every minimal partition.  On N[0]
    the order is the same because D_0 acts faithfully there, by the
    neighbourhood certificate, provided that every generator of D_0 is a
    graph automorphism.  This function does not check that:
    ``rooted_orbit_counts`` checks every generator of D, of which D_0's are
    products, and must run first, as in ``symmetry_report``.  Here each
    restriction to N[0] is checked to be a permutation of N[0].

    Raises AssertionError if one is not, if a right translation moves a
    minimal partition, or if a generator of D_0 maps a minimal partition
    outside the family.
    """
    k = len(minimals)
    shifts = [p for p in perms if p.tag == "right-mult"]
    if any(row != tuple(range(k)) for row in action_on_partitions(shifts, minimals)):
        raise AssertionError("a right translation moves a minimal partition")
    if graph is not None and graph.based_at_zero(paranoid):
        points = _on_closed_neighbourhood(graph, stabiliser)
    else:
        points = [s.image for s in stabiliser]
    induced = action_on_partitions(stabiliser, minimals)
    return build_chain([TaggedPerm(tag=s.tag, image=np.concatenate([row, image + k]))
                        for s, row, image in zip(stabiliser, induced, points)], base=range(k))


@dataclass(frozen=True)
class SymmetryReport:
    order: int
    order_formula: int
    vertex_orbits: int
    edge_orbits: int
    clique_orbits: int | None
    primitivity: PrimitivityReport
    induced_partition_group: int
    small_exceptional_case: bool  # m = 2 and |G| <= 4: the full automorphism
    # group of the graph is strictly larger, so verdicts describe the
    # diagonal group's action only

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "order_formula": self.order_formula,
            "vertex_orbits": self.vertex_orbits,
            "edge_orbits": self.edge_orbits,
            "clique_orbits": self.clique_orbits,
            "primitive": self.primitivity.primitive,
            "criterion": self.primitivity.criterion,
            "criterion_agrees": self.primitivity.agrees,
            "induced_partition_group": self.induced_partition_group,
            "about_diagonal_action_only": self.small_exceptional_case,
        }


def symmetry_report(
    graph: DiagGraph,
    minimals: list[Partition],
    cliques: tuple[list[tuple[int, ...]], int] | None = None,
    *,
    paranoid: bool = False,
) -> SymmetryReport:
    """The diagonal group of G^m, m >= 2, acting on ``graph``, built from
    ``minimals``: its order against the formula, its orbits on the vertices,
    the edges and the cliques of ``cliques`` (when given, as
    ``rooted_orbit_counts`` takes them, as it takes ``paranoid``), its
    primitivity, and the group it induces on the minimal partitions.

    One generating set serves every count.  The generators of D_0, the
    stabiliser of vertex 0, link the edges and cliques through vertex 0 for
    their orbit counts (see ``rooted_orbit_counts``), build the one chain
    (``partition_chain``) whose order times n is the order of the group and
    whose first m+1 levels give the induced group, and give the suborbits
    for the primitivity (``is_vertex_primitive``).  Raises AssertionError
    when a check fails: the translations are not transitive, a generator is
    no graph automorphism, the cliques are not closed under the group, a
    right translation moves a minimal partition, or a generator moves one
    outside the family.
    """
    g, m = graph.group, graph.m
    if m < 2:
        raise ValueError("symmetry analysis needs m >= 2 (the minimal "
                         "partitions coincide at m = 1)")
    aut = automorphism_group(g)
    perms = diagonal_group_generators(g, graph.codec, aut)
    stabiliser, normalisers = stabiliser_and_normalisers(g, graph.codec, perms)
    vertex_orbits, edge_orbits, clique_orbits = rooted_orbit_counts(
        graph, perms, stabiliser, cliques, paranoid=paranoid, normalisers=normalisers)
    chain = partition_chain(perms, stabiliser, minimals, graph, paranoid=paranoid)
    return SymmetryReport(
        order=graph.size * chain.order(),
        order_formula=diagonal_group_order_formula(g, m, aut),
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        clique_orbits=clique_orbits,
        primitivity=is_vertex_primitive(g, graph.codec, [s.image for s in stabiliser]),
        induced_partition_group=chain.order(len(minimals)),
        small_exceptional_case=(m == 2 and g.order <= 4),
    )
