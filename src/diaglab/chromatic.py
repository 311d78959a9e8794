"""Complete mappings, the dimension-reducing homomorphism, and colourings.

The chromatic verdict is constructive wherever possible.  For odd dimension
the homomorphism cascade lands in a complete graph and the pulled-back
colouring uses exactly |G| colours.  For even dimension and a group with a
complete mapping, the cascade lands in dimension 2, where the translates of
the transversal {(g, phi(g))} tile the vertex set with q independent sets;
the colour of (a, b) is phi(a^-1)^-1 * b.  Only when neither applies does
the verdict fall back to bounds, with the conjectured value |G|+2 reported
separately and never asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .diaggraph import DiagGraph, bron_kerbosch, build_graph
from .errors import CapExceededError
from .groups import GroupTable, sylow2_nontrivial_cyclic

COMPLETE_MAPPING_SEARCH_LIMIT = 16
EXACT_COLOURING_LIMIT = 64


@dataclass(frozen=True)
class CompleteMapping:
    """A bijection phi with g -> g*phi(g) also bijective."""

    phi: tuple[int, ...]

    def psi(self, g: GroupTable) -> tuple[int, ...]:
        return tuple(g.mul[x][self.phi[x]] for x in g.elements())


def find_complete_mapping(
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


def hall_paige_predicate(g: GroupTable) -> bool:
    """Odd order, or Sylow 2-subgroups not non-trivial cyclic."""
    return g.order % 2 == 1 or not sylow2_nontrivial_cyclic(g)


def reduce_hom(v: tuple[int, ...], g: GroupTable) -> tuple[int, ...]:
    """(g1, ..., gm) -> (g1 * g2^-1 * g3, g4, ..., gm); maps edges to edges."""
    if len(v) < 3:
        raise ValueError("dimension reduction needs m >= 3")
    head = g.mul[g.mul[v[0]][g.inv[v[1]]]][v[2]]
    return (head,) + v[3:]


def reduce_to_dimension(v: tuple[int, ...], g: GroupTable, target: int) -> tuple[int, ...]:
    if (len(v) - target) % 2:
        raise ValueError("dimension parity mismatch")
    while len(v) > target:
        v = reduce_hom(v, g)
    return v


@dataclass(frozen=True)
class Coloring:
    colors: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(set(self.colors))


def validate_coloring(graph: DiagGraph, coloring: Coloring) -> bool:
    colors = coloring.colors
    return all(colors[u] != colors[v] for u, v in graph.edge_tag)


def latin_square_coloring(g: GroupTable, cm: CompleteMapping) -> Coloring:
    """Proper q-colouring of the dimension-2 graph from a complete mapping.

    Colour classes are the translates {(a, b) : b = phi(a^-1) * h}; within a
    class rows, columns and quotient classes are all distinct, so the class
    is independent.
    """
    q = g.order
    colors = []
    for idx in range(q * q):
        a, b = idx % q, idx // q  # coordinate 1 least significant
        colors.append(g.mul[g.inv[cm.phi[g.inv[a]]]][b])
    return Coloring(colors=tuple(colors))


def q_coloring(g: GroupTable, m: int, cm: CompleteMapping | None) -> Coloring:
    """Colouring of the dimension-m graph with exactly q colours.

    Odd m: cascade to dimension 1, colour by the surviving group element.
    Even m: cascade to dimension 2 and pull back the complete-mapping
    colouring (cm required).
    """
    from .semilattice import vertex_codec

    codec = vertex_codec(g, m)
    if m % 2:
        colors = tuple(
            reduce_to_dimension(codec.decode(v), g, 1)[0]
            for v in range(codec.size)
        )
        return Coloring(colors=colors)
    if m == 2:
        if cm is None:
            raise ValueError("dimension-2 colouring needs a complete mapping")
        return latin_square_coloring(g, cm)
    if cm is None:
        raise ValueError("even-dimension colouring needs a complete mapping")
    base = latin_square_coloring(g, cm)
    q = g.order
    colors = []
    for v in range(codec.size):
        a, b = reduce_to_dimension(codec.decode(v), g, 2)
        colors.append(base.colors[a + q * b])
    return Coloring(colors=tuple(colors))


@dataclass(frozen=True)
class ExactColouring:
    lower: int
    upper: int
    coloring: Coloring
    search_complete: bool

    @property
    def value(self) -> int | None:
        return self.upper if self.search_complete or self.lower == self.upper else None


def chromatic_number_exact(
    graph: DiagGraph,
    node_budget: int | None = None,
    cap: int = EXACT_COLOURING_LIMIT,
) -> ExactColouring:
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
    if n > cap:
        raise CapExceededError(f"{n} vertices exceeds exact colouring cap {cap}")
    nbr = graph.adjacency

    # Maximum clique for the lower bound and for seeding colours; the graphs
    # here are small enough to enumerate maximal cliques outright.
    cliques = bron_kerbosch(nbr)
    clique = max(cliques, key=lambda c: (len(c), [-x for x in c]))
    lower = len(clique)

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
    mapping: CompleteMapping | None = field(repr=False, default=None)

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


def chromatic_verdict(
    g: GroupTable,
    m: int,
    exact: bool = False,
    exact_cap: int = EXACT_COLOURING_LIMIT,
    graph: DiagGraph | None = None,
) -> ChromaticVerdict:
    """Chromatic number with a provenance trail.

    chi = |G| whenever m is odd or the Hall-Paige condition holds, witnessed
    by an explicit validated colouring.  Otherwise bounds
    [|G|, chi(dimension-2 graph)] with the conjectured |G|+2 annotated.
    ``graph``, if given, is the dimension-m graph of g, already built.
    """
    q = g.order
    if graph is not None and (graph.q, graph.m) != (q, m):
        raise ValueError(f"graph of dimension {graph.m} over order {graph.q} given "
                         f"for dimension {m} over order {q}")
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
            cm = find_complete_mapping(g)
            if cm is None:
                raise AssertionError(
                    f"{g.label}: Hall-Paige predicate true but no complete mapping found"
                )
            reasons.append("complete mapping found; transversal translates give q colours")
            if m > 2:
                reasons.append("pulled back through the homomorphism cascade to dimension 2")
        coloring = q_coloring(g, m, cm)
        if graph is None:
            graph = build_graph(g, m)
        if not validate_coloring(graph, coloring):
            raise AssertionError(f"{g.label}, m={m}: constructed colouring not proper")
        if coloring.count != q:
            raise AssertionError(
                f"{g.label}, m={m}: colouring uses {coloring.count} != {q} colours"
            )
        reasons.append("colouring validated edge by edge")
        return ChromaticVerdict(
            q=q, m=m, chi=q, lower=q, upper=q,
            reason=tuple(reasons), conjecture=None, coloring=coloring, mapping=cm,
        )

    # Even dimension over a group with non-trivial cyclic Sylow 2-subgroup.
    reasons.append("m even and the group has a non-trivial cyclic Sylow 2-subgroup")
    reasons.append("clique of size q forces chi >= q")
    upper: int | None = None
    if q * q <= exact_cap:
        base = graph if m == 2 and graph is not None else build_graph(g, 2)
        base_result = chromatic_number_exact(base)
        if base_result.value is not None:
            upper = base_result.value
            reasons.append(
                f"exact search on the dimension-2 graph gives the upper bound {upper}"
            )
    chi = None
    if exact and g.order**m <= exact_cap:
        if m == 2:
            result = base_result
        else:
            result = chromatic_number_exact(
                graph if graph is not None else build_graph(g, m))
        if result.value is not None:
            chi = result.value
            reasons.append(f"exact search on this graph closed the value: {chi}")
    conjecture = q + 2
    return ChromaticVerdict(
        q=q, m=m, chi=chi, lower=q, upper=upper,
        reason=tuple(reasons), conjecture=conjecture,
    )
