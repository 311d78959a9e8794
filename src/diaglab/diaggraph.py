"""The diagonal graph: construction, metric, clique and regularity checks.

Two independent constructions are kept side by side, both in numpy and
both neighbours-first: ``build_graph`` lists, for each vertex, the other
points of its part of each minimal partition Q_i (tagged i); ``cayley_graph``
joins v to s*v over the connection set inside G^m (one non-identity
coordinate, or a constant non-identity tuple), one neighbour column per s.
Each sorts every row into the padded neighbour array ``nbr``, each entry's
tag alongside in ``tag``; ``same_edge_set`` asserts that both arrays agree.
Only the exporters list the edges as pairs, derived from ``nbr``.

The paranoid diameter searches a block of bases at once over ``nbr``: each
vertex holds reach and frontier bitsets, one bit per base in ``uint64``
words, and each breadth-first level is one gather per column of ``nbr``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from math import ceil

import numpy as np

from .errors import CapExceededError
from .groups import GroupTable
from .partitions import Partition, start_blocks
from .semilattice import DEFAULT_VERTEX_CAP, VertexCodec, vertex_codec

# Bron-Kerbosch enumerates maximal cliques only up to this many vertices.
CLIQUE_VERTEX_CAP = 4096


@dataclass(frozen=True, eq=False)
class DiagGraph:
    """Simple graph on G^m, built once by ``from_neighbours`` as two arrays.

    ``nbr`` (int32) holds each vertex's sorted neighbours, one row each,
    padded with the sentinel n where the graph is not regular.  ``tag``
    (int8) names, for each entry, the minimal partition whose part contains
    that edge, unique for m >= 2, and is -1 at the padding.
    """

    q: int
    m: int
    size: int
    nbr: np.ndarray
    tag: np.ndarray
    codec: VertexCodec

    @classmethod
    def from_neighbours(cls, codec: VertexCodec, nbr: np.ndarray, tag: np.ndarray) -> DiagGraph:
        """The graph whose vertex u has the neighbours ``nbr[u]``, sorted and
        padded with n, each tagged by the same entry of ``tag``; the padding
        is tagged -1, so graphs with the same tagged edges are byte-equal."""
        n = codec.size
        nbr = nbr.astype(np.int32)
        tag = np.where(nbr == n, -1, tag).astype(np.int8, copy=False)
        nbr.flags.writeable = tag.flags.writeable = False
        return cls(q=codec.q, m=codec.m, size=n, nbr=nbr, tag=tag, codec=codec)

    def _upper(self) -> np.ndarray:
        """Where ``nbr`` lists an edge at its smaller end."""
        return (self.nbr > np.arange(self.size)[:, None]) & (self.nbr < self.size)

    def edges(self) -> np.ndarray:
        """The edges as sorted int32 (u, v) pairs, u < v (row-major order)."""
        u, k = np.nonzero(self._upper())
        return np.stack([u.astype(np.int32), self.nbr[u, k]], axis=1)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._upper()))

    @property
    def valency(self) -> int:
        return (self.m + 1) * (self.q - 1) if self.m >= 2 else self.q - 1

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """``nbr`` as lists of Python ints without the sentinels, for the
        per-vertex searches (Bron-Kerbosch on the whole graph, the colourings)."""
        n = self.size
        lists = self.nbr.tolist()
        if self.nbr.size and (self.nbr[:, -1] == n).any():
            lists = [a[: a.index(n)] if a[-1] == n else a for a in lists]
        return lists


def _sort_rows(nbr: np.ndarray, tag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``nbr`` sorted, ``tag`` permuted alike; equal neighbours
    keep their order, so the first copy stays first."""
    order = np.argsort(nbr, axis=1, kind="stable")
    return np.take_along_axis(nbr, order, axis=1), np.take_along_axis(tag, order, axis=1)


def _block_mates(part: Partition) -> np.ndarray:
    """Row v: the other points of v's block, in increasing order.

    A stable sort by block lists each block's points in increasing order,
    so the sorted points form one (blocks, size) array; row v of it, taken
    at v's block, holds v once, which is dropped."""
    labels = part.block_of
    counts = np.bincount(labels)
    if (counts != counts[0]).any():
        raise ValueError("a minimal partition has blocks of unequal size")
    n = len(labels)
    order = np.argsort(labels, kind="stable").astype(np.int32)
    members = order.reshape(-1, counts[0])[labels]
    return members[members != np.arange(n)[:, None]].reshape(n, counts[0] - 1)


def build_graph(g: GroupTable, minimals: list[Partition]) -> DiagGraph:
    """Adjacency from the minimal partitions Q_0..Q_m of G^m: joined iff
    some part of some Q_i contains both vertices, tagged i (the first i at
    m = 1, the complete graph)."""
    m = len(minimals) - 1
    codec = VertexCodec(q=g.order, m=m)
    n = codec.size
    mates = [_block_mates(part) for part in minimals]
    tag = np.repeat(np.arange(m + 1, dtype=np.int8), [a.shape[1] for a in mates])
    nbr, tag = _sort_rows(np.concatenate(mates, axis=1),
                          np.broadcast_to(tag, (n, len(tag))))
    twice = np.zeros(nbr.shape, dtype=bool)
    twice[:, 1:] = nbr[:, 1:] == nbr[:, :-1]
    if twice.any():
        if m >= 2:
            u, k = np.nonzero(twice & (nbr > np.arange(n)[:, None]))
            raise AssertionError(
                f"edge {(int(u[0]), int(nbr[u[0], k[0]]))} lies in two minimal partitions")
        # m = 1: keep the first copy, move the others past the end as padding
        width = (~twice).sum(axis=1).max()
        nbr, tag = _sort_rows(np.where(twice, n, nbr), tag)
        nbr, tag = nbr[:, :width], tag[:, :width]
    return DiagGraph.from_neighbours(codec, nbr, tag)


@dataclass(frozen=True)
class ConnectionSet:
    """Inverse-closed, identity-free subset of G^m defining the Cayley graph."""

    q: int
    m: int
    tuples: tuple[tuple[int, ...], ...]


def connection_set(g: GroupTable, m: int) -> ConnectionSet:
    """Tuples with one non-identity coordinate, plus non-identity constants."""
    if m < 1:
        raise ValueError("dimension m must be >= 1")
    seen: dict[tuple[int, ...], None] = {}
    for i in range(m):
        for x in range(1, g.order):
            tup = tuple(x if j == i else 0 for j in range(m))
            seen.setdefault(tup, None)
    for x in range(1, g.order):
        seen.setdefault((x,) * m, None)
    return ConnectionSet(q=g.order, m=m, tuples=tuple(seen))


def cayley_graph(g: GroupTable, m: int, cap: int = DEFAULT_VERTEX_CAP) -> DiagGraph:
    """Independent construction: v ~ s*v (componentwise) for s in the
    inverse-closed connection set, one neighbour column per s.  Tags: the
    moved coordinate for one-coordinate tuples, 0 for the constant tuples;
    s and its inverse carry the same tag.  A tuple that moves coordinate i
    changes one digit of v, so s*v is v plus the change of that digit times
    q^i."""
    codec = vertex_codec(g, m, cap)
    mul = np.asarray(g.mul)
    d = codec.digits
    tuples = connection_set(g, m).tuples
    nbr = np.empty((codec.size, len(tuples)), dtype=np.int32)
    tag = np.zeros(len(tuples), dtype=np.int8)
    for k, s in enumerate(tuples):
        moved = [i for i in range(m) if s[i] != 0]
        if len(moved) == 1:
            (i,) = moved
            nbr[:, k] = np.arange(codec.size) + (mul[s[i], d[:, i]] - d[:, i]) * codec.q**i
            tag[k] = i + 1 if m >= 2 else 0
        else:
            nbr[:, k] = codec.index(mul[s, d])
    nbr, tag = _sort_rows(nbr, np.broadcast_to(tag, nbr.shape))
    return DiagGraph.from_neighbours(codec, nbr, tag)


def same_edge_set(a: DiagGraph, b: DiagGraph) -> bool:
    """True iff the two graphs list the same neighbours with the same tags,
    entry for entry, so at both ends of every edge."""
    return np.array_equal(a.nbr, b.nbr) and np.array_equal(a.tag, b.tag)


@dataclass(frozen=True)
class DiameterReport:
    bfs: int
    formula: int

    @property
    def ok(self) -> bool:
        return self.bfs == self.formula


def _max_eccentricity(graph: DiagGraph, bases: range) -> int:
    """The largest distance from any of ``bases`` to any vertex it reaches,
    with every base of a block searched in one pass.

    Each vertex holds a ``reach`` and a ``frontier`` bitset, one bit per
    base of the block in ``uint64`` words; row n is the padding sentinel
    and stays empty.  A level ORs the frontier rows of each vertex's
    neighbours, one gather per column of ``nbr``, and masks off what is
    already reached; the answer is the last level that reached anything,
    so on a disconnected graph it is the largest finite distance.
    """
    n = graph.size
    columns = np.ascontiguousarray(graph.nbr.T)
    ecc = 0
    for block in start_blocks(bases, n + 1):
        bit = np.arange(len(block))
        frontier = np.zeros((n + 1, -(-len(block) // 64)), dtype=np.uint64)
        frontier[np.asarray(block), bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        reach = frontier.copy()
        level = 0
        while True:
            nxt = np.zeros_like(frontier)
            for col in columns:
                nxt[:n] |= frontier[col]
            nxt &= ~reach
            if not nxt.any():
                break
            level += 1
            reach |= nxt
            frontier = nxt
        ecc = max(ecc, level)
    return ecc


def diameter(graph: DiagGraph, paranoid: bool = False) -> DiameterReport:
    """BFS diameter against the closed form m+1-ceil((m+1)/q).

    Vertex-transitivity makes the eccentricity of vertex 0 the diameter;
    ``paranoid`` recomputes from every base vertex.
    """
    bases = range(graph.size) if paranoid else range(1)
    ecc = _max_eccentricity(graph, bases)
    formula = graph.m + 1 - ceil((graph.m + 1) / graph.q)
    return DiameterReport(bfs=ecc, formula=formula)


def common_neighbours(graph: DiagGraph, u: int, v: int) -> list[int]:
    if u == v:
        raise ValueError("common neighbours need two distinct vertices")
    common = np.intersect1d(graph.nbr[u], graph.nbr[v])
    return common[common < graph.size].tolist()


# The four small graphs whose clique structure departs from the generic
# pattern (dimension 2 over groups of order at most 4).  The clique counts
# were computed with the enumerator below and are frozen as regression
# values; the two order-16 graphs share a spectrum but differ in their
# number of 4-cliques.
EXCEPTIONAL_CLIQUE_TABLE = {
    (2, 2, "elementary"): {
        "name": "complete graph K4",
        "clique_number": 4,
        "maximal_cliques": 1,
        "max_size_cliques": 1,
    },
    (3, 2, "elementary"): {
        "name": "complete tripartite graph K333",
        "clique_number": 3,
        "maximal_cliques": 27,
        "max_size_cliques": 27,
    },
    (4, 2, "elementary"): {
        "name": "complement of the 4x4 rook's graph",
        "clique_number": 4,
        "maximal_cliques": 24,
        "max_size_cliques": 24,
    },
    (4, 2, "cyclic"): {
        "name": "complement of the Shrikhande graph",
        "clique_number": 4,
        "maximal_cliques": 48,
        "max_size_cliques": 16,
    },
}


def exceptional_key(g: GroupTable, m: int) -> tuple[int, int, str] | None:
    if m != 2 or g.order > 4:
        return None
    exponent = max(g.order_of(x) for x in g.elements())
    variant = "cyclic" if exponent == g.order and g.order == 4 else "elementary"
    return (g.order, m, variant)


def _bk_expand(
    r: list[int], p: int, x: int, nbr: list[int], cliques: list[tuple[int, ...]],
) -> None:
    if not p:
        if not x:
            cliques.append(tuple(sorted(r)))
        return
    # Tomita pivot: the vertex of P | X with the most neighbours in P.  Bits
    # are taken high to low one at a time; no list of them is ever built.
    size = p.bit_count()
    best = pivot = -1
    b = x
    while b:
        u = b.bit_length() - 1
        b ^= 1 << u
        c = (p & nbr[u]).bit_count()
        if c == size:
            return  # u extends every clique of this branch
        if c > best:
            best, pivot = c, u
    b = p if best < size - 1 else 0
    while b:
        u = b.bit_length() - 1
        b ^= 1 << u
        c = (p & nbr[u]).bit_count()
        if c > best:
            best, pivot = c, u
            if c == size - 1:
                break
    b = p & ~nbr[pivot]
    while b:
        v = b.bit_length() - 1
        bit = 1 << v
        b ^= bit
        _bk_expand(r + [v], p & nbr[v], x & nbr[v], nbr, cliques)
        p ^= bit
        x |= bit


def bron_kerbosch(adjacency: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All maximal cliques, each once as a sorted tuple (Bron-Kerbosch over
    Python-int bitsets with Tomita's pivot).

    The outer loop peels vertices in index order: vertex v branches on its
    later neighbours and excludes its earlier ones, which keeps subproblems
    at most the size of a neighbourhood.  The pivot maximises the number of
    neighbours in P over P | X, and its scan stops early in two places,
    neither of which changes the output.  A vertex of X adjacent to all of P
    ends the branch at once: it extends every clique the branch could report,
    so none of them is maximal (the full pivot rule would choose that vertex
    and branch on nothing).  A vertex of P reaches at most |P| - 1, so the
    first one that does is a best pivot; any pivot yields the same cliques.
    The recursion is a module-level function, not a closure, so no reference
    cycle keeps its state alive after the call returns.
    """
    nbr = [sum(1 << u for u in a) for a in adjacency]
    cliques: list[tuple[int, ...]] = []
    for v, bits in enumerate(nbr):
        later = bits >> (v + 1) << (v + 1)
        _bk_expand([v], later, bits ^ later, nbr, cliques)
    return cliques


def _translated_cliques(g: GroupTable, graph: DiagGraph) -> list[tuple[int, ...]] | None:
    """All maximal cliques as right translates of those through vertex 0,
    or None when the graph is not certified to be invariant under right
    translation.

    The certificate reads only the adjacency and the group table: with
    S = N(0), it checks N(v) = S·v (coordinatewise products) for every v.
    Then u ~ w iff w ∈ S·u iff w·h ∈ S·u·h, so every v -> v·h is an
    automorphism and each maximal clique K is a translate of K·k^-1, which
    holds vertex 0 (the identity tuple) for each k in K.  The cliques
    through 0 are {0} ∪ C for the maximal cliques C of the subgraph induced
    on S.  For each h in K, exactly one of them, K·h^-1, translates by h to
    K, and for h outside K none does; so keeping the translates whose
    smallest vertex is h lists each K once.
    """
    adj = graph.nbr
    n = graph.size
    if n == 0 or graph.q != g.order or (adj == n).any():  # not regular
        return None
    codec, mul = graph.codec, np.asarray(g.mul)

    def translates(left: np.ndarray) -> np.ndarray:
        """Row v: the vertices left·v, sorted."""
        return np.sort(codec.index(mul[codec.digits[left], codec.digits[:, None]]), axis=1)

    if not np.array_equal(translates(adj[0]), adj):
        return None
    star = adj[0].tolist()
    where = {v: j for j, v in enumerate(star)}
    local = [[where[w] for w in row if w in where] for row in adj[star].tolist()]
    through_zero = [(0,) + tuple(star[j] for j in c) for c in bron_kerbosch(local)]
    cliques: list[tuple[int, ...]] = []
    vertices = np.arange(n)
    for base in through_zero or [(0,)]:
        rows = translates(np.array(base))
        cliques.extend(map(tuple, rows[rows[:, 0] == vertices].tolist()))
    return cliques


def all_maximal_cliques(
    g: GroupTable, graph: DiagGraph, *, paranoid: bool = False
) -> list[tuple[int, ...]]:
    """Every maximal clique, each once as a sorted tuple, in no set order.

    They are translated from those through vertex 0 when the graph is
    certified to be invariant under right translation (see
    ``_translated_cliques``).  Otherwise, and under ``paranoid``,
    Bron-Kerbosch runs over the whole graph.
    """
    cliques = None if paranoid else _translated_cliques(g, graph)
    return bron_kerbosch(graph.adjacency) if cliques is None else cliques


@dataclass(frozen=True)
class CliqueReport:
    clique_number: int
    cliques: tuple[tuple[int, ...], ...]
    exceptional: bool
    exceptional_name: str | None
    parts_are_max_cliques: bool

    @property
    def count(self) -> int:
        return len(self.cliques)


def maximal_cliques(
    g: GroupTable,
    graph: DiagGraph,
    minimals: list[Partition],
    *,
    paranoid: bool = False,
) -> CliqueReport:
    """Enumerate maximal cliques and check them against the parts of the
    minimal partitions the graph was built from.

    Outside the four exceptional graphs the maximum cliques must be exactly
    the parts of the minimal partitions; for dimension > 2 every maximal
    clique is such a part.  ``paranoid`` enumerates over the whole graph
    instead of translating the cliques through vertex 0 (see
    ``all_maximal_cliques``).  At most ``CLIQUE_VERTEX_CAP`` vertices.
    """
    if graph.size > CLIQUE_VERTEX_CAP:
        raise CapExceededError(
            f"{graph.size} vertices exceeds clique cap {CLIQUE_VERTEX_CAP}")
    cliques = all_maximal_cliques(g, graph, paranoid=paranoid)
    omega = max(len(c) for c in cliques)
    key = exceptional_key(g, graph.m)

    parts = {
        tuple(sorted(block))
        for part in minimals
        for block in part.blocks()
        if len(block) >= 2
    }
    max_cliques = {c for c in cliques if len(c) == omega}

    if key is not None:
        expect = EXCEPTIONAL_CLIQUE_TABLE[key]
        ok = (
            omega == expect["clique_number"]
            and len(cliques) == expect["maximal_cliques"]
            and len(max_cliques) == expect["max_size_cliques"]
        )
        if not ok:
            raise AssertionError(
                f"exceptional graph {expect['name']} does not match its table entry"
            )
        return CliqueReport(
            clique_number=omega,
            cliques=tuple(sorted(cliques)),
            exceptional=True,
            exceptional_name=expect["name"],
            parts_are_max_cliques=max_cliques == parts,
        )

    if omega != g.order:
        raise AssertionError(
            f"clique number {omega} differs from group order {g.order}"
        )
    if max_cliques != parts:
        raise AssertionError("maximum cliques are not exactly the partition parts")
    if graph.m > 2 and len(cliques) != len(max_cliques):
        raise AssertionError("a maximal clique below maximum size exists")
    return CliqueReport(
        clique_number=omega,
        cliques=tuple(sorted(cliques)),
        exceptional=False,
        exceptional_name=None,
        parts_are_max_cliques=True,
    )


@dataclass(frozen=True)
class CliqueCover:
    parts: tuple[tuple[int, ...], ...]
    lower_bound: int

    @property
    def size(self) -> int:
        return len(self.parts)


def clique_cover(g: GroupTable, graph: DiagGraph, minimals: list[Partition]) -> CliqueCover:
    """Vertex-disjoint clique cover from the parts of Q_1 (q^(m-1) cliques),
    with the matching lower bound size/q."""
    part = minimals[1]
    blocks = [tuple(b) for b in part.blocks()]
    if part.size != graph.size:
        raise AssertionError("cover misses vertices")
    # A block is a clique iff each of its vertices has every other one of
    # it among its neighbours; the sentinel n lies in no block.
    label = np.append(part.block_of, -1)
    inside = (label[graph.nbr] == label[:-1, None]).sum(axis=1)
    short = inside < np.bincount(label[:-1])[label[:-1]] - 1
    if short.any():
        blk = blocks[label[:-1][short].min()]
        raise AssertionError(f"cover block {blk} is not a clique")
    return CliqueCover(parts=tuple(blocks), lower_bound=graph.size // g.order)


def is_distance_regular(
    graph: DiagGraph, paranoid: bool = False
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Distance-regularity by sphere counting from a base vertex.

    Vertex-transitivity justifies the single base; ``paranoid`` re-checks
    from every vertex.  Returns (verdict, (b_array, c_array) or None).

    A block of bases is searched at once: ``dist`` holds one column per
    base, and each breadth-first level gathers the frontier over ``nbr``,
    whose padding is the sentinel vertex n.  For each base, every
    vertex at distance i must have the same number c_i of neighbours at
    i - 1 and b_i at i + 1, and every base must give the same arrays.
    Unreachable vertices (distance -1) are not counted.
    """
    n = graph.size
    bases = range(n) if paranoid else range(min(n, 1))
    nbr = graph.nbr
    result: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for block in start_blocks(bases, 32 * max(1, nbr.size)):
        dist = np.full((n + 1, len(block)), -1, dtype=np.int32)
        dist[n] = -2  # the sentinel is at no distance i - 1 or i + 1
        dist[block, np.arange(len(block))] = 0
        frontier = dist == 0
        diam = 0
        while True:
            reached = frontier[nbr].any(axis=1) & (dist[:n] == -1)
            if not reached.any():
                break
            diam += 1
            dist[:n][reached] = diam
            frontier[:n] = reached
        around = dist[nbr]
        own = dist[:n, None, :]
        counts = ((around == own + 1).sum(axis=1), (around == own - 1).sum(axis=1))
        # profile[k][i, j]: the count at distance i from base j, or -1 when
        # no vertex is at that distance; it must be the same at every vertex.
        profile = []
        for count in counts:
            top = np.full((diam + 1, len(block)), -1)
            low = np.full((diam + 1, len(block)), n + 1)
            for i in range(diam + 1):
                at = dist[:n] == i
                top[i] = np.where(at, count, -1).max(axis=0)
                low[i] = np.where(at, count, n + 1).min(axis=0)
            if ((top != low) & (top >= 0)).any():
                return False, None
            profile.append(top)
        if any((p != p[:, :1]).any() for p in profile):
            return False, None
        ecc = int((profile[0][:, 0] >= 0).sum()) - 1
        arrays = (tuple(profile[0][:ecc, 0].tolist()),
                  tuple(profile[1][1: ecc + 1, 0].tolist()))
        if result is None:
            result = arrays
        elif result != arrays:
            return False, None
    return True, result


def to_graph6(graph: DiagGraph) -> bytearray:
    """Standard graph6 encoding (long size form for more than 62 vertices).

    Edge (i, j), i < j, is bit j(j-1)/2 + i of the upper triangle, read
    column by column; each byte carries six bits, most significant first,
    plus 63.  numpy fills the returned buffer in place, so the encoding is
    held once, and is written out as it is.
    """
    n = graph.size
    i, j = graph.edges().T.astype(np.int64)
    if n == 0 or not len(i):
        raise ValueError("refusing to encode an empty graph")
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        raise ValueError(f"graph6 size form for n={n} not supported")
    pos = j * (j - 1) // 2 + i
    buf = bytearray(len(head) - (-n * (n - 1) // 12))
    out = np.frombuffer(buf, dtype=np.uint8)
    out.fill(63)
    out[: len(head)] = head
    # each edge is listed once, so each bit is added at most once
    np.add.at(out, len(head) + pos // 6, (32 >> pos % 6).astype(np.uint8))
    return buf


def parse_graph6(text: str | bytes) -> list[list[int]]:
    """Decode a graph6 string or byte string into sorted adjacency lists."""
    raw = text.encode("ascii") if isinstance(text, str) else bytes(text)
    data = [byte - 63 for byte in raw.strip()]
    if data and data[0] == 63:  # 0x7e '~' marks the long form
        n = data[1] << 12 | data[2] << 6 | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    bits = []
    for val in data:
        for k in range(5, -1, -1):
            bits.append(val >> k & 1)
    adj: list[list[int]] = [[] for _ in range(n)]
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i].append(j)
                adj[j].append(i)
            pos += 1
    return [sorted(a) for a in adj]


def to_dot(graph: DiagGraph) -> str:
    lines = ["graph diagonal {"]
    for v, row in enumerate(graph.codec.digits.tolist()):
        lines.append(f'  v{v} [label="{",".join(map(str, row))}"];')
    for u, v in graph.edges().tolist():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines)


def to_edgelist(graph: DiagGraph) -> str:
    return "\n".join(f"{u} {v}" for u, v in graph.edges().tolist())


def export_graph(graph: DiagGraph, fmt: str) -> str | bytearray:
    """The graph in ``fmt``: graph6 as bytes, DOT and edge lists as text."""
    if fmt == "graph6":
        return to_graph6(graph)
    if fmt == "dot":
        return to_dot(graph)
    if fmt == "edgelist":
        return to_edgelist(graph)
    raise ValueError(f"unknown export format: {fmt!r}")

