"""The diagonal group as explicit permutations of G^m, and its invariants.

Generators come in five types: per-coordinate right multiplications,
simultaneous left multiplication, automorphisms acting coordinatewise,
coordinate permutations, and the inversion twist
(g_1, ..., g_m) -> (g_1^-1, g_1^-1 g_2, ..., g_1^-1 g_m).

The order of the generated group D is n * |D_0|, D_0 the stabiliser of
vertex 0, with |D_0| from a deterministic Schreier-Sims chain (numpy arrays
as permutations); it is compared against |G|^m * |Aut(G)| * (m+1)!.
D_0's generators are Schreier generators over the transversal of right
translations t_p: x -> x*p, checked to be in D and transitive.  A generator
s needs one per orbit of the translations it conjugates into translations.

Each generator is checked once to be a graph automorphism, on the whole
neighbour array (``diaggraph.check_automorphisms``); the right
multiplications are left to the graph's translation certificate wherever
``DiagGraph.rooted`` reads it, and checked here only under ``paranoid`` or
where the certificate fails.  The orbits on the edges and the maximum
cliques are then counted from those through vertex 0 alone (the cliques as
the clique census lists them, with their number).  Every count reads the
group and the vertex codec of the graph.
Any d in D with d(0) = y is t_y times an element of D_0, so two items
through 0 share a D-orbit exactly when D_0 maps one onto a re-rooting
C*c^-1 of the other, c in C.
Minimal block systems and the induced action on the minimal partitions
verify the remaining symmetry claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

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
from .partitions import Partition, canonical_labels, components
from .semilattice import VertexCodec

GENERATOR_TAGS = (
    "right-mult",
    "diag-left-mult",
    "aut",
    "coord-perm",
    "inversion-map",
)


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
    m = codec.m
    d = codec.digits
    mul, inv = np.asarray(g.mul), np.asarray(g.inv)
    identity = np.arange(codec.size)
    out = right_translations(g, codec)

    def emit(tag: str, digits: np.ndarray) -> None:
        image = codec.index(digits)
        if not np.array_equal(image, identity) and all(
                not np.array_equal(image, p.image) for p in out):
            out.append(TaggedPerm(tag=tag, image=image))

    for x in generating_sequence(g):
        emit("diag-left-mult", mul[inv[x], d])
    for alpha in _perm_group_generators(aut):
        emit("aut", np.asarray(alpha)[d])
    if m >= 2:
        emit("coord-perm", d[:, [1, 0, *range(2, m)]])
        if m >= 3:
            emit("coord-perm", np.roll(d, -1, axis=1))
    twisted = mul[inv[d[:, :1]], d]
    twisted[:, 0] = inv[d[:, 0]]
    emit("inversion-map", twisted)
    return out


def diagonal_group_order_formula(g: GroupTable, m: int, aut: list[tuple[int, ...]]) -> int:
    """|G|^m * |Aut(G)| * (m+1)!, given ``aut = automorphism_group(g)``."""
    return g.order**m * len(aut) * factorial(m + 1)


class StabilizerChain:
    """Deterministic Schreier-Sims chain over numpy permutations.

    Level k works with its *effective* generator set: every strong generator
    stored at level k or deeper (all of those fix the bases above k, but may
    still move points of level k's orbit).  Adding a generator at one level
    therefore re-opens every shallower level; ``add_generator`` sweeps to a
    global fixpoint, and per-(level, generator) progress pointers keep the
    total work at one pass over each (orbit point, generator) pair.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.dtype = np.int16 if degree <= 32000 else np.int32
        self.identity = np.arange(degree, dtype=self.dtype)
        self.bases: list[int] = []
        self.eff: list[list[np.ndarray]] = []  # effective gens per level
        self.transversal: list[dict[int, np.ndarray]] = []
        self.inv_transversal: list[dict[int, np.ndarray]] = []
        self.orbit_order: list[list[int]] = []
        self._orbit_scan: list[dict[int, int]] = []
        self._schreier_done: list[dict[int, int]] = []
        self._seen_schreier: list[set[bytes]] = []
        self._version = 0

    def order(self) -> int:
        total = 1
        for trans in self.transversal:
            total *= len(trans)
        return total

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
        if np.array_equal(p, self.identity):
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
        self._seen_schreier.append(set())

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
                    if key in seen:
                        continue
                    seen.add(key)
                    if np.array_equal(sg, self.identity):
                        continue
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


def build_chain(perms: list[TaggedPerm]) -> StabilizerChain:
    """Stabiliser chain of the group generated by perms.

    Each level holds a transversal element and its inverse per orbit point,
    so the chain takes the sum of its orbit lengths times the degree in
    permutation entries, twice over.
    """
    if not perms:
        raise ValueError("need at least one permutation")
    degree = len(perms[0].image)
    chain = StabilizerChain(degree)
    for p in perms:
        chain.add_generator(p.image.astype(chain.dtype))
    return chain


def vertex_stabiliser_generators(
    g: GroupTable, codec: VertexCodec, perms: list[TaggedPerm]
) -> list[TaggedPerm]:
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
    """
    d = codec.digits
    mul, inv = np.asarray(g.mul), np.asarray(g.inv)
    n = codec.size

    def translation(v: int) -> np.ndarray:
        return codec.index(mul[d, d[v]])

    def is_translation(image: np.ndarray) -> bool:
        return np.array_equal(image, translation(image[0]))

    shifts = [p for p in perms if is_translation(p.image)]
    if components(n, [r.image for r in shifts]).any():
        raise AssertionError("the translations among the generators are not transitive")
    out: list[TaggedPerm] = []
    seen = {np.arange(n).tobytes()}
    for s in perms:
        if any(s is r for r in shifts):
            continue
        s_inv = np.argsort(s.image)
        normalised = [r.image for r in shifts if is_translation(s.image[r.image[s_inv]])]
        lab = components(n, normalised)
        for p in np.flatnonzero(lab == np.arange(n)):
            sigma = codec.index(mul[d[s.image[translation(p)]], inv[d[s.image[p]]]])
            key = sigma.tobytes()
            if key not in seen:
                seen.add(key)
                out.append(TaggedPerm(tag=s.tag, image=sigma))
    return out


def _row_ids(rows: np.ndarray, degree: int, key_type: type):
    """Number the distinct rows, one column at a time.

    Returns ``(keys, ids)``: ``keys[c]`` holds the sorted distinct values of
    ``prefix_id * degree + rows[:, c]``, where ``prefix_id`` numbers the
    distinct prefixes of length c, and ``ids`` (int32) numbers the distinct
    rows.  No key is wider than ``len(rows) * degree``, whatever the row
    length, so ``key_type`` is int64 only where that product needs it.
    """
    keys = []
    ids = np.zeros(len(rows), dtype=np.int32)
    for c in range(rows.shape[1]):
        col_keys, inverse = np.unique(
            ids.astype(key_type) * degree + rows[:, c], return_inverse=True)
        keys.append(col_keys)
        ids = inverse.astype(np.int32)
    return keys, ids


def _lookup_rows(keys: list[np.ndarray], rows: np.ndarray, degree: int):
    """Ids (int32) of rows in the table behind ``keys``, or None if one is
    absent."""
    ids = np.zeros(len(rows), dtype=np.int32)
    for c, col_keys in enumerate(keys):
        want = ids.astype(col_keys.dtype) * degree + rows[:, c]
        ids = np.minimum(np.searchsorted(col_keys, want), len(col_keys) - 1)
        if not np.array_equal(col_keys[ids], want):
            return None
        ids = ids.astype(np.int32)
    return ids


def _rooted_orbit_count(
    graph: DiagGraph, stabiliser: list[TaggedPerm], at_zero: np.ndarray, total: int,
) -> int:
    """Orbits of D on a D-invariant set of ``total`` items of one size, from
    ``at_zero``, its items that contain vertex 0 (rows of one array).

    Each item C is linked to its image under every generator of D_0 and to
    its re-rooting C*c^-1 at each of its points c, the right translation
    by c^-1.  Raises AssertionError if a link leaves ``at_zero``, or if
    ``total * |C|`` is not n times the number of items through 0, as it is
    for a set closed under the translations.
    """
    n = graph.size
    rows = np.sort(np.asarray(at_zero, dtype=np.int32), axis=1)
    if total * rows.shape[1] != n * len(rows):
        raise AssertionError(f"{total} items of {rows.shape[1]} points, "
                             f"{len(rows)} of them through vertex 0, on {n} vertices")
    key_type = np.int64 if len(rows) * n > np.iinfo(np.int32).max else np.int32
    keys, ids = _row_ids(rows, n, key_type)
    count = len(keys[-1])
    distinct = np.empty((count, rows.shape[1]), dtype=np.int32)
    distinct[ids] = rows
    links = []

    def link(image: np.ndarray, mover: str) -> None:
        found = _lookup_rows(keys, np.sort(image, axis=1), n)
        if found is None:
            raise AssertionError(f"{mover} maps an item outside the item set")
        links.append(found)

    for s in stabiliser:
        link(s.image[distinct], f"generator {s.tag}")
    mul, inv = np.asarray(graph.group.mul), np.asarray(graph.group.inv)
    digits = graph.codec.digits[distinct]
    for c in range(1, rows.shape[1]):  # column 0 holds vertex 0 itself
        link(graph.codec.index(mul[digits, inv[digits[:, c:c + 1]]]), "a translation")
    lab = components(count, links)
    return int(np.count_nonzero(lab == np.arange(count)))


def rooted_orbit_counts(
    graph: DiagGraph,
    perms: list[TaggedPerm],
    stabiliser: list[TaggedPerm],
    cliques: tuple[list[tuple[int, ...]], int] | None = None,
    *,
    paranoid: bool = False,
) -> tuple[int, int, int | None]:
    """Orbits of the group D that ``perms`` generate on the vertices, the
    edges and a set of cliques of one size (``cliques``: those through
    vertex 0 and the size of the set; None for no cliques), given generators
    ``stabiliser`` of D_0 over the right translations, as
    ``vertex_stabiliser_generators`` returns them.

    Every generator is first checked to be an automorphism, so the edge set
    is D-invariant; the right translations are left out where
    ``graph.rooted(paranoid)``, as the graph's translation certificate has
    checked them.  The edges and cliques are then counted from those
    through vertex 0 alone: if d in D maps C onto C' and d(0) = y, then
    t_{y^-1} d lies in D_0 and maps C onto C'*y^-1, the re-rooting of C' at
    y.  So the D-orbits are the components of the links from D_0's
    generators and the re-rootings.  Raises AssertionError when a check
    fails: a generator is no automorphism, a link leaves the items through
    0, or an item set is not spread evenly over the vertices.
    """
    certified = graph.rooted(paranoid)
    check_automorphisms(graph, [p for p in perms
                                if not (certified and p.tag == "right-mult")])
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


def minimal_block_trivial(perms: list[TaggedPerm], n: int, v: int) -> bool:
    """True iff the minimal block system containing {0, v} is the whole set.

    ``lab`` labels a partition by the smallest point of each block.  Each
    round coarsens it by its image under every generator p, linking ``x``
    to the image of the smallest point in the block of ``p^-1(x)``.  When a
    round changes nothing, every generator maps the partition onto itself,
    and each round only merged blocks that every such partition containing
    {0, v} must merge.
    """
    inverses = [np.argsort(p.image) for p in perms]
    lab = np.arange(n)
    lab[v] = 0
    while True:
        images_of_lab = [p.image[lab[p_inv]] for p, p_inv in zip(perms, inverses)]
        joined = components(n, [lab] + images_of_lab)
        if np.array_equal(joined, lab):
            return not lab.any()
        lab = joined


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


def is_vertex_primitive(
    g: GroupTable, m: int, perms: list[TaggedPerm], stabiliser: list[np.ndarray]
) -> PrimitivityReport:
    """Block-system primitivity of the diagonal group action, given its
    generators ``perms`` and image arrays ``stabiliser`` that generate the
    stabiliser of vertex 0.

    The minimal block containing {0, v} depends only on the suborbit of v
    under the stabiliser of 0, so one representative per suborbit is tested:
    the least point of each component of the stabiliser generators.
    """
    n = len(perms[0].image)
    if n != g.order**m or any(len(s) != n for s in stabiliser):
        raise ValueError(f"generators on {n} points and stabiliser generators "
                         f"on {sorted({len(s) for s in stabiliser})} points given "
                         f"for {g.order}^{m} vertices")
    lab = components(n, stabiliser)
    reps = [v for v in range(1, n) if lab[v] == v]

    primitive = all(minimal_block_trivial(perms, n, v) for v in reps)
    return PrimitivityReport(
        primitive=primitive,
        criterion=primitivity_criterion(g, m),
        analysed_points=len(reps),
    )


def action_on_partitions(
    perms: list[TaggedPerm], minimals: list[Partition]
) -> list[tuple[int, ...]]:
    """Induced permutation of the minimal partitions for each generator.

    Each image labelling is put in canonical block form once and looked up
    by its bytes among the minimal partitions' ``block_of`` arrays.  Raises
    if some generator does not permute them (that would contradict the
    semilattice being preserved).
    """
    blocks = [p.block_of for p in minimals]
    canon = {b.tobytes(): i for i, b in enumerate(blocks)}
    induced = []
    for perm in perms:
        row = []
        for block_of in blocks:
            labels = np.empty_like(block_of)
            labels[perm.image] = block_of
            target = canon.get(canonical_labels(labels).tobytes())
            if target is None:
                raise AssertionError(
                    f"generator {perm.tag} maps a minimal partition outside the family"
                )
            row.append(target)
        induced.append(tuple(row))
    return induced


def induced_symmetric_closure(induced: list[tuple[int, ...]]) -> int:
    """Order of the permutation group generated by the induced actions.

    A stabiliser chain on the m+1 points, rather than listing the group:
    the expected order is (m+1)!.
    """
    if not induced:
        return 1
    chain = StabilizerChain(len(induced[0]))
    for perm in induced:
        chain.add_generator(np.asarray(perm, dtype=chain.dtype))
    return chain.order()


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

    One generating set serves every count.  The order is n times the order
    of the stabiliser of vertex 0, from one chain over its generators, and
    the same generators give the suborbits for the primitivity and link the
    edges and cliques through vertex 0 for their orbit counts (see
    ``rooted_orbit_counts``).  Raises AssertionError when a check fails: the
    translations are not transitive, a generator is no graph automorphism,
    the cliques are not closed under the group, or a generator moves a
    minimal partition outside the family.
    """
    g, m = graph.group, graph.m
    if m < 2:
        raise ValueError("symmetry analysis needs m >= 2 (the minimal "
                         "partitions coincide at m = 1)")
    aut = automorphism_group(g)
    perms = diagonal_group_generators(g, graph.codec, aut)
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    order = graph.size * build_chain(stabiliser).order()
    vertex_orbits, edge_orbits, clique_orbits = rooted_orbit_counts(
        graph, perms, stabiliser, cliques, paranoid=paranoid)
    return SymmetryReport(
        order=order,
        order_formula=diagonal_group_order_formula(g, m, aut),
        vertex_orbits=vertex_orbits,
        edge_orbits=edge_orbits,
        clique_orbits=clique_orbits,
        primitivity=is_vertex_primitive(g, m, perms, [s.image for s in stabiliser]),
        induced_partition_group=induced_symmetric_closure(
            action_on_partitions(perms, minimals)),
        small_exceptional_case=(m == 2 and g.order <= 4),
    )
