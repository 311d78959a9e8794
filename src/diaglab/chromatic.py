"""Complete mappings, the dimension-reducing homomorphism, and colourings.

The chromatic verdict is constructive wherever possible.  For odd dimension
the homomorphism cascade lands in a complete graph and the pulled-back
colouring uses exactly |G| colours.  For even dimension and a group with a
complete mapping, the cascade lands in dimension 2, where the translates of
the transversal {(g, phi(g))} tile the vertex set with q independent sets;
the colour of (a, b) is phi(a^-1)^-1 * b.  Otherwise a seeded tabu search,
over a numpy table of each vertex's neighbours per colour, colours the
dimension-2 graph with |G|+2 colours and the colouring is pulled back the
same way.  At dimension 2 the absence of a complete mapping also caps
every independent set at |G|-1 cells, which closes chi = |G|+2.  Every
colouring is validated edge by edge; the conjectured value is reported
separately and never asserted.  The verdict reads G and m from the graph
it colours, and takes the result of the complete-mapping search from a
caller that has it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import product

import numpy as np

from .diaggraph import DiagGraph, bron_kerbosch, build_graph, same_label_neighbours
from .errors import CapExceededError
from .groups import GroupTable, direct_product, subgroup_closure, sylow2_nontrivial_cyclic
from .semilattice import VertexCodec, minimal_partitions

COMPLETE_MAPPING_SEARCH_LIMIT = 16
EXACT_COLOURING_LIMIT = 64
EXACT_NODE_BUDGET = 200_000
TABUCOL_MOVE_BUDGET = 50_000
TABUCOL_SEED = 0


@dataclass(frozen=True)
class CompleteMapping:
    """A bijection phi with g -> g*phi(g) also bijective."""

    phi: tuple[int, ...]

    def psi(self, g: GroupTable) -> tuple[int, ...]:
        return tuple(g.mul[x][self.phi[x]] for x in g.elements())


def is_complete_mapping(g: GroupTable, cm: CompleteMapping) -> bool:
    """phi and x -> x*phi(x) are both bijections of g."""
    everything = list(g.elements())
    return (len(cm.phi) == g.order and sorted(cm.phi) == everything
            and sorted(cm.psi(g)) == everything)


def hall_paige_obstruction(g: GroupTable) -> bool:
    """True when the product of all elements lies outside G'.

    Then no complete mapping exists (Hall & Paige, 1955): if phi were one,
    x -> x*phi(x) would be a bijection, and multiplying out all of G in the
    abelianisation G/G' would give T = T*T, where T is the image of the
    product of all elements in any order; so T would be trivial.
    """
    mul, inv = g.mul, g.inv
    prod = 0
    for x in g.elements():
        prod = mul[prod][x]
    commutators = {mul[mul[a][b]][mul[inv[a]][inv[b]]]
                   for a in g.elements() for b in g.elements()}
    return prod not in subgroup_closure(g, commutators)


def search_complete_mapping(
    g: GroupTable, limit: int = COMPLETE_MAPPING_SEARCH_LIMIT
) -> CompleteMapping | None:
    """Backtracking search; None means exhaustively-verified absence.

    phi(0) = 0 can be forced: right-translating any complete mapping by
    phi(0)^-1 yields another one fixing the identity.
    """
    n = g.order
    if n > limit:
        raise CapExceededError(
            f"complete-mapping search capped at order {limit}, got {n}"
        )
    mul = g.mul
    phi = [0] * n

    def search(row: int, used_vals: int, used_prods: int) -> bool:
        if row == n:
            return True
        mrow = mul[row]
        for v in range(n):
            bit = 1 << v
            if used_vals & bit:
                continue
            pbit = 1 << mrow[v]
            if used_prods & pbit:
                continue
            phi[row] = v
            if search(row + 1, used_vals | bit, used_prods | pbit):
                return True
        return False

    if n == 1:
        return CompleteMapping(phi=(0,))
    if search(1, 1, 1):  # row 0 pinned to value 0, product 0
        return CompleteMapping(phi=tuple(phi))
    return None


def _product_mapping(g: GroupTable, limit: int) -> tuple[int, ...] | None:
    """phi(e, o) = (phi_E(e), o) for g = E x O, where O is the product of the
    odd-order factors (phi = identity there) and E of the even-order ones.

    Indices of a direct product run through its factors' coordinates in
    lexicographic order, as ``groups.direct_product`` lays them out.
    """
    even = [i for i, f in enumerate(g.factors) if f.order % 2 == 0]
    if len(even) == 1:
        cm = find_complete_mapping(g.factors[even[0]], limit)
    else:
        cm = search_complete_mapping(reduce(direct_product, [g.factors[i] for i in even]),
                                     limit)
    if cm is None:
        return None
    coords = list(product(*(range(f.order) for f in g.factors)))
    index = {c: x for x, c in enumerate(coords)}
    even_coords = list(product(*(range(g.factors[i].order) for i in even)))
    even_index = {c: x for x, c in enumerate(even_coords)}
    phi = []
    for c in coords:
        image = list(c)
        for i, y in zip(even, even_coords[cm.phi[even_index[tuple(c[i] for i in even)]]]):
            image[i] = y
        phi.append(index[tuple(image)])
    return tuple(phi)


def find_complete_mapping(
    g: GroupTable, limit: int = COMPLETE_MAPPING_SEARCH_LIMIT
) -> CompleteMapping | None:
    """A complete mapping of g, or None when provably none exists.

    Certificates come first: ``hall_paige_obstruction`` proves absence;
    phi(x) = x is a witness for odd order (squaring is then a bijection);
    a direct product pairs the identity on its odd-order factors with a
    mapping of its even-order ones.  Only when none applies does
    ``search_complete_mapping`` run, capped at order ``limit``.  Every
    witness is checked before it is returned.
    """
    if hall_paige_obstruction(g):
        return None
    phi = None
    if g.order % 2:
        phi = tuple(g.elements())
    elif any(f.order % 2 for f in g.factors):
        phi = _product_mapping(g, limit)
    cm = search_complete_mapping(g, limit) if phi is None else CompleteMapping(phi=phi)
    if cm is not None and not is_complete_mapping(g, cm):
        raise AssertionError(f"{g.label}: complete-mapping witness is not a bijection")
    return cm


def hall_paige_predicate(g: GroupTable) -> bool:
    """Odd order, or Sylow 2-subgroups not non-trivial cyclic."""
    return g.order % 2 == 1 or not sylow2_nontrivial_cyclic(g)


def reduce_hom(digits, g: GroupTable) -> np.ndarray:
    """(g1, ..., gm) -> (g1 * g2^-1 * g3, g4, ..., gm) on each row of a
    digit array (one row or many); maps edges to edges."""
    d = np.asarray(digits)
    if d.shape[-1] < 3:
        raise ValueError("dimension reduction needs m >= 3")
    mul, inv = g.mul_array, g.inv_array
    head = mul[mul[d[..., 0], inv[d[..., 1]]], d[..., 2]]
    return np.concatenate([head[..., None], d[..., 3:]], axis=-1)


def reduce_to_dimension(digits, g: GroupTable, target: int) -> np.ndarray:
    d = np.asarray(digits)
    if (d.shape[-1] - target) % 2:
        raise ValueError("dimension parity mismatch")
    while d.shape[-1] > target:
        d = reduce_hom(d, g)
    return d


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(set(self.colors))


def validate_coloring(graph: DiagGraph, coloring: Coloring) -> bool:
    """True iff no neighbour shares a vertex's colour
    (``same_label_neighbours``)."""
    return not same_label_neighbours(graph, coloring.colors).any()


def latin_square_coloring(g: GroupTable, cm: CompleteMapping) -> Coloring:
    """Proper q-colouring of the dimension-2 graph from a complete mapping.

    Colour classes are the translates {(a, b) : b = phi(a^-1) * h}; within a
    class rows, columns and quotient classes are all distinct, so the class
    is independent.
    """
    mul, inv, phi = g.mul_array, g.inv_array, np.asarray(cm.phi)
    a, b = VertexCodec(q=g.order, m=2).digits.T
    return Coloring(colors=tuple(mul[inv[phi[inv[a]]], b].tolist()))


def pull_back(g: GroupTable, codec: VertexCodec, base: Coloring) -> Coloring:
    """Colouring of the even dimension-m graph on ``codec``'s vertices from
    one of the dimension-2 graph, through the homomorphism cascade (edges
    map to edges)."""
    ab = reduce_to_dimension(codec.digits, g, 2)
    colors = np.asarray(base.colors)[VertexCodec(q=g.order, m=2).index(ab)]
    return Coloring(colors=tuple(colors.tolist()))


def q_coloring(g: GroupTable, codec: VertexCodec, cm: CompleteMapping | None) -> Coloring:
    """Colouring of the dimension-m graph on ``codec``'s vertices with
    exactly q colours.

    Odd m: cascade to dimension 1, colour by the surviving group element.
    Even m: cascade to dimension 2 and pull back the complete-mapping
    colouring (cm required).
    """
    if codec.m % 2:
        colors = reduce_to_dimension(codec.digits, g, 1)[:, 0]
        return Coloring(colors=tuple(colors.tolist()))
    if cm is None:
        raise ValueError("even-dimension colouring needs a complete mapping")
    base = latin_square_coloring(g, cm)
    return base if codec.m == 2 else pull_back(g, codec, base)


def tabucol(
    graph: DiagGraph, k: int, max_moves: int = TABUCOL_MOVE_BUDGET
) -> Coloring | None:
    """Tabu search for a proper k-colouring (Hertz & de Werra, 1987).

    From a seeded random assignment, each move recolours one vertex that
    has a same-coloured neighbour, choosing the move that leaves the fewest
    conflicting edges.  Moving a vertex back to a colour it left is tabu for
    r + 0.6 * (conflicting vertices) moves, r uniform in 0..9 (Galinier &
    Hao, 1999), unless it reaches fewer conflicts than ever before.  Ties
    are broken by a generator seeded with ``TABUCOL_SEED``, among the best
    moves in (vertex, colour) order, so the result depends only on the
    graph and k.  None if ``max_moves`` moves leave a conflict.

    ``seen[v, c]`` counts the neighbours of v that have colour c, so a move
    changes the conflicts by ``seen[v, c] - seen[v, colour[v]]``, and each
    step weighs every move of the conflicting vertices at once.  Row n and
    colour k absorb the padding of ``nbr``.
    """
    n, nbr = graph.size, graph.nbr
    rng = random.Random(TABUCOL_SEED)
    colour = np.array([rng.randrange(k) for _ in range(n)] + [k])
    seen = np.zeros((n + 1, k + 1), dtype=np.int32)
    for col in nbr.T:
        seen[np.arange(n), colour[col]] += 1
    conflicts = int(seen[np.arange(n), colour[:n]].sum()) // 2
    fewest = conflicts
    tabu_until = np.zeros((n, k), dtype=np.int64)
    for step in range(max_moves):
        if not conflicts:
            break
        own = seen[np.arange(n), colour[:n]]
        at = np.flatnonzero(own)
        delta = seen[at, :k] - own[at, None]
        allowed = (tabu_until[at] <= step) | (conflicts + delta < fewest)
        allowed[np.arange(len(at)), colour[at]] = False
        if not allowed.any():
            continue  # every move is tabu; wait for one to expire
        best = int(delta[allowed].min())
        rows, cols = np.nonzero(allowed & (delta == best))
        pick = rng.randrange(len(rows))
        v, c = at[rows[pick]], cols[pick]
        old = colour[v]
        colour[v] = c
        seen[nbr[v], old] -= 1
        seen[nbr[v], c] += 1
        conflicts += best
        fewest = min(fewest, conflicts)
        tabu_until[v, old] = step + 1 + rng.randrange(10) + int(0.6 * len(at))
    return None if conflicts else Coloring(colors=tuple(colour[:n].tolist()))


@dataclass(frozen=True)
class ExactColouring:
    lower: int
    upper: int
    coloring: Coloring
    search_complete: bool

    @property
    def value(self) -> int | None:
        return self.upper if self.search_complete or self.lower == self.upper else None


def chromatic_number_exact(graph: DiagGraph, node_budget: int | None = None) -> ExactColouring:
    """DSATUR upper bound, clique lower bound, branch-and-bound closure.

    Brelaz's DSATUR over incremental counters: each vertex keeps the mask of
    colours on its neighbours and one packed priority (saturation, then
    uncoloured neighbours, then lowest index), so picking the next vertex is
    one ``max`` over a list of ints.  Coloured vertices sit below every
    uncoloured one by a fixed offset.  A branch fails as soon as some
    uncoloured vertex sees all k colours.  Deterministic; if the node budget
    runs out the bounds are returned with search_complete False.
    """
    n = graph.size
    if n > EXACT_COLOURING_LIMIT:
        raise CapExceededError(
            f"{n} vertices exceeds exact colouring cap {EXACT_COLOURING_LIMIT}")
    # Maximum clique for the lower bound and for seeding colours; the graphs
    # here are small enough to enumerate maximal cliques outright.
    cliques = bron_kerbosch(graph.nbr)
    clique = max(cliques, key=lambda c: (len(c), [-x for x in c]))
    lower = len(clique)
    # DSATUR walks one vertex's neighbours at a time, as Python ints
    nbr = [[w for w in row if w < n] for row in graph.nbr.tolist()]

    # priority = saturation << 2b | uncoloured neighbours << b | (n-1-index)
    b = n.bit_length()
    index_mask = (1 << b) - 1
    free_unit = 1 << b
    sat_unit = 1 << 2 * b
    coloured = 1 << 3 * b

    def fresh() -> tuple[list[int], list[int], list[int]]:
        prio = [len(nbr[u]) * free_unit + n - 1 - u for u in range(n)]
        return prio, [0] * n, [-1] * n

    def paint(prio: list[int], sat: list[int], v: int, bit: int) -> None:
        """Colour v with the one-bit mask bit, for good."""
        prio[v] -= coloured
        for w in nbr[v]:
            prio[w] -= free_unit
            if not sat[w] & bit:
                sat[w] |= bit
                prio[w] += sat_unit

    prio, sat, greedy = fresh()
    for _ in range(n):
        v = n - 1 - (max(prio) & index_mask)
        s = sat[v]
        bit = ~s & (s + 1)  # lowest colour v does not see
        greedy[v] = bit.bit_length() - 1
        paint(prio, sat, v, bit)
    upper = max(greedy) + 1
    best = greedy

    if lower == upper:
        return ExactColouring(lower, upper, Coloring(tuple(best)), True)

    nodes = 0
    budget_exhausted = False

    def try_k(k: int) -> list[int] | None:
        """Backtracking k-colourability with DSATUR ordering, clique seeded."""
        prio, sat, colors = fresh()
        for i, v in enumerate(clique):
            colors[v] = i
            paint(prio, sat, v, 1 << i)
        dead = k * sat_unit  # an uncoloured priority this high sees all k colours

        def descend(remaining: int, used: int) -> bool:
            nonlocal nodes, budget_exhausted
            if remaining == 0:
                return True
            if node_budget is not None and nodes >= node_budget:
                budget_exhausted = True
                return False
            nodes += 1
            v = n - 1 - (max(prio) & index_mask)
            # Colours beyond the first unused one are interchangeable.
            avail = ~sat[v] & ((1 << min(k, used + 1)) - 1)
            if not avail:
                return False
            around = nbr[v]
            prio[v] -= coloured
            for w in around:
                prio[w] -= free_unit
            while avail:
                bit = avail & -avail
                avail ^= bit
                newly = []
                wiped = False
                for w in around:
                    if not sat[w] & bit:
                        sat[w] |= bit
                        p = prio[w] + sat_unit
                        prio[w] = p
                        newly.append(w)
                        if p >= dead:
                            wiped = True
                if not wiped:
                    c = bit.bit_length() - 1
                    colors[v] = c
                    if descend(remaining - 1, used if c < used else c + 1):
                        return True
                    if budget_exhausted:
                        return False
                for w in newly:
                    sat[w] ^= bit
                    prio[w] -= sat_unit
            colors[v] = -1
            for w in around:
                prio[w] += free_unit
            prio[v] += coloured
            return False

        if descend(n - len(clique), len(clique)):
            return colors
        return None

    for k in range(lower, upper):
        found = try_k(k)
        if budget_exhausted:
            return ExactColouring(lower, upper, Coloring(tuple(best)), False)
        if found is not None:
            upper = k
            best = found
            break
        lower = k + 1
    return ExactColouring(lower, upper, Coloring(tuple(best)), True)


@dataclass(frozen=True)
class ChromaticVerdict:
    q: int
    m: int
    chi: int | None
    lower: int
    upper: int | None
    reason: tuple[str, ...]
    conjecture: int | None
    coloring: Coloring | None = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "chi": self.chi,
            "lower": self.lower,
            "upper": self.upper,
            "reason": list(self.reason),
            "conjecture": self.conjecture,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# The default of ``chromatic_verdict``'s ``mapping``: not searched yet.
UNSEARCHED = object()


def chromatic_verdict(graph: DiagGraph, exact: bool = False, *,
                      mapping: CompleteMapping | None | object = UNSEARCHED) -> ChromaticVerdict:
    """Chromatic number of ``graph``, the diagonal graph of its group G in
    dimension m = ``graph.m``, with a provenance trail.  For even m it
    needs ``find_complete_mapping(g)``: ``mapping`` is its result where the
    caller has it, and it is searched here otherwise.

    chi = |G| whenever m is odd or the Hall-Paige condition holds, witnessed
    by an explicit validated colouring.  Otherwise the upper bound is the
    size of a validated tabu-search colouring with |G|+2 colours, and the
    lower bound stays the clique bound |G|, with the conjectured |G|+2
    annotated.  At m = 2 the certificate that no complete mapping exists
    closes chi = |G|+2; ``exact`` adds the exact search within
    ``EXACT_COLOURING_LIMIT`` vertices and ``EXACT_NODE_BUDGET`` nodes,
    which leaves chi as the certificates give it where it stops
    unclosed.  No search here is unbounded.
    """
    g, q, m = graph.group, graph.q, graph.m
    reasons: list[str] = []
    if m == 1:
        return ChromaticVerdict(
            q=q, m=m, chi=q, lower=q, upper=q,
            reason=("dimension 1 is the complete graph on |G| vertices",),
            conjecture=None,
        )
    hp = hall_paige_predicate(g)
    if m % 2 == 1 or hp:
        if m % 2 == 1:
            reasons.append("m odd: homomorphism cascade reaches the complete graph K_q")
            cm = None
        else:
            reasons.append(
                "Hall-Paige condition holds (odd order or non-cyclic Sylow 2-subgroup)"
            )
            cm = find_complete_mapping(g) if mapping is UNSEARCHED else mapping
            if cm is None:
                raise AssertionError(
                    f"{g.label}: Hall-Paige predicate true but no complete mapping found"
                )
            reasons.append("complete mapping found; transversal translates give q colours")
            if m > 2:
                reasons.append("pulled back through the homomorphism cascade to dimension 2")
        coloring = q_coloring(g, graph.codec, cm)
        if not validate_coloring(graph, coloring):
            raise AssertionError(f"{g.label}, m={m}: constructed colouring not proper")
        if coloring.count != q:
            raise AssertionError(
                f"{g.label}, m={m}: colouring uses {coloring.count} != {q} colours"
            )
        reasons.append("colouring validated edge by edge")
        return ChromaticVerdict(
            q=q, m=m, chi=q, lower=q, upper=q,
            reason=tuple(reasons), conjecture=None, coloring=coloring,
        )

    # Even dimension over a group with non-trivial cyclic Sylow 2-subgroup.
    reasons.append("m even and the group has a non-trivial cyclic Sylow 2-subgroup")
    reasons.append("clique of size q forces chi >= q")
    cm = find_complete_mapping(g) if mapping is UNSEARCHED else mapping
    base = graph if m == 2 else build_graph(g, minimal_partitions(g, 2))
    coloring = tabucol(base, q + 2)
    upper: int | None = None
    chi = None
    if coloring is None:
        reasons.append(f"tabu search found no {q + 2}-colouring of the dimension-2 "
                       f"graph in {TABUCOL_MOVE_BUDGET} moves: no upper bound")
    else:
        if not validate_coloring(base, coloring):
            raise AssertionError(f"{g.label}: tabu colouring of dimension 2 not proper")
        reasons.append(f"tabu search found a {q + 2}-colouring of the dimension-2 graph")
        if m > 2:
            coloring = pull_back(g, graph.codec, coloring)
            if not validate_coloring(graph, coloring):
                raise AssertionError(
                    f"{g.label}, m={m}: pulled-back colouring not proper")
            reasons.append("pulled back through the homomorphism cascade to dimension 2")
        reasons.append("colouring validated edge by edge")
        upper = coloring.count
        if m == 2 and cm is None:
            # An independent set is a partial transversal of the Cayley
            # table; a full one (q cells) would be a complete mapping.
            if upper < q + 2:
                raise AssertionError(f"{g.label}: {upper} colours, below the "
                                     "partial-transversal bound q+2")
            chi = upper
            reasons.append("no complete mapping, so independent sets have at most q-1 "
                           "cells and chi >= ceil(q^2/(q-1)) = q+2")
    if exact and graph.size <= EXACT_COLOURING_LIMIT:
        result = chromatic_number_exact(graph, EXACT_NODE_BUDGET)
        if result.value is None:
            reasons.append(f"exact search stopped after {EXACT_NODE_BUDGET} nodes "
                           f"at bounds [{result.lower}, {result.upper}]")
        else:
            if chi is not None and result.value != chi:
                raise AssertionError(f"{g.label}, m={m}: exact search gives "
                                     f"{result.value}, certificates give {chi}")
            chi = result.value
            reasons.append(f"exact search on this graph closed the value: {chi}")
    return ChromaticVerdict(
        q=q, m=m, chi=chi, lower=q, upper=upper,
        reason=tuple(reasons), conjecture=q + 2, coloring=coloring,
    )
