"""The diagonal graph: construction, metric, clique and regularity checks.

Two independent constructions are kept side by side, both in numpy and
both neighbours-first: ``build_graph`` lists, for each vertex, the other
points of its part of each minimal partition Q_i (tagged i); ``cayley_graph``
joins v to s*v over the connection set inside G^m (one non-identity
coordinate, or a constant non-identity tuple), one neighbour column per s.
Each sorts every row into the padded neighbour array ``nbr``, each entry's
tag alongside in ``tag``; ``same_edge_set`` asserts that both arrays agree.
Only the exporters list the edges as pairs, derived from ``nbr``.

``check-all`` builds only the Cayley array where the minimal partitions are
certified to be the cosets B_i·v of their blocks B_i through 0 (``blocks``
of the semilattice).  Then v and w share a part of Q_i iff w·v^-1 lies in
B_i, so the partition graph is the Cayley graph of the union C of the B_i
less the identity, and ``coset_construction_agrees`` compares C and its
tags with the connection set's, in O(|C|).
``is_coset_partition_graph`` ties the array to that Cayley graph: its row 0
lists the connection set, and the translation certificate holds.  Under
``paranoid``, at m = 1, on the semilattice's table route, and wherever one
of these checks fails, ``build_graph`` is built as well and the two arrays
are compared entry for entry; the ``build``, ``cliques``, ``diameter``,
``symmetry``, ``spectrum`` and ``chromatic`` commands build the partition
graph alone.

Each graph carries its group, and ``translations_are_automorphisms``
certifies that every right translation is an automorphism, as every
shortcut from vertex 0 assumes (the diameter, distance-regularity, the walk
counts, the clique census), by one test: N(v) = N(0)·v for every v, the
right translates of N(0) built by ``coordinatewise`` and sorted row by row
against ``nbr``.  ``DiagGraph.rooted`` makes that decision for
all of them: vertex 0 stands for every vertex unless ``paranoid`` is set or
the certificate, computed at most once per graph, fails; then they search
from every vertex instead.  The shortcuts share one breadth-first search
from vertex 0, cached on the graph (``DiagGraph.layers``): the diameter
reads its eccentricity, the distance-regularity check its layers, and the
neighbourhood certificate its connectivity and the ball of radius 2.

The every-vertex diameter searches a block of bases at once over ``nbr``:
each vertex holds reach and frontier bitsets, one bit per base in ``uint64``
words, and each breadth-first level is one gather per column of ``nbr``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import ceil

import numpy as np

from .errors import CapExceededError
from .groups import GroupTable, generating_sequence
from .partitions import BLOCK_BYTES, Partition, start_blocks
from .semilattice import DEFAULT_VERTEX_CAP, VertexCodec, coordinatewise, vertex_codec

# Whole-graph Bron-Kerbosch, the clique census off the vertex-0 path, stops at
# this size.
CLIQUE_VERTEX_CAP = 4096


@dataclass(frozen=True, eq=False)
class DiagGraph:
    """Simple graph on G^m, built once by ``from_neighbours`` as two arrays,
    with the group G it is a graph of.

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
    group: GroupTable

    @classmethod
    def from_neighbours(cls, group: GroupTable, m: int, nbr: np.ndarray, tag: np.ndarray,
                        codec: VertexCodec | None = None) -> DiagGraph:
        """The graph on G^m whose vertex u has the neighbours ``nbr[u]``,
        sorted and padded with n, each tagged by the same entry of ``tag``;
        the padding is tagged -1, so graphs with the same tagged edges are
        byte-equal.  ``codec`` is that of G^m where the caller has it."""
        codec = codec or VertexCodec(q=group.order, m=m)
        n = codec.size
        nbr = np.ascontiguousarray(nbr, dtype=np.int32)
        tag = np.where(nbr == n, -1, tag).astype(np.int8, copy=False)
        nbr.flags.writeable = tag.flags.writeable = False
        return cls(q=codec.q, m=m, size=n, nbr=nbr, tag=tag, codec=codec, group=group)

    @cached_property
    def translations_certified(self) -> bool:
        """``translations_are_automorphisms(self)``, computed on first use."""
        return translations_are_automorphisms(self)

    def rooted(self, paranoid: bool) -> bool:
        """Whether vertex 0 may stand for every vertex: never under
        ``paranoid``, which leaves the certificate uncomputed, and otherwise
        where the right translations are certified automorphisms."""
        return not paranoid and self.translations_certified

    @cached_property
    def neighbourhood_certified(self) -> bool:
        """``neighbourhood_is_a_base(self)``, computed on first use."""
        return neighbourhood_is_a_base(self)

    def based_at_zero(self, paranoid: bool) -> bool:
        """Whether an automorphism may be read from its action on N[0], the
        closed neighbourhood of vertex 0: only where ``rooted(paranoid)``,
        and there where the neighbourhood certificate holds."""
        return self.rooted(paranoid) and self.neighbourhood_certified

    @cached_property
    def layers(self) -> tuple[np.ndarray, ...]:
        """``distance_layers(self)``, computed on first use."""
        return distance_layers(self)

    @cached_property
    def columns(self) -> np.ndarray:
        """``nbr`` transposed, one contiguous read-only row per column of
        ``nbr``, for the searches that gather a frontier column by column."""
        columns = np.ascontiguousarray(self.nbr.T)
        columns.flags.writeable = False
        return columns

    def _upper(self) -> np.ndarray:
        """Where ``nbr`` lists an edge at its smaller end."""
        return (self.nbr > np.arange(self.size)[:, None]) & (self.nbr < self.size)

    def edges(self) -> np.ndarray:
        """The edges as sorted int32 (u, v) pairs, u < v (row-major order)."""
        u, k = np.nonzero(self._upper())
        return np.stack([u.astype(np.int32), self.nbr[u, k]], axis=1)

    @cached_property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self._upper()))

    @property
    def valency(self) -> int:
        return (self.m + 1) * (self.q - 1) if self.m >= 2 else self.q - 1


def _row_blocks(rows: int, bytes_per_row: int) -> list[slice]:
    """The rows 0..rows-1 cut into slices of as many rows as keep a slice
    within ``BLOCK_BYTES`` at ``bytes_per_row`` each, and at least one."""
    step = max(1, BLOCK_BYTES // max(1, bytes_per_row))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _sort_rows(nbr: np.ndarray, tag: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``nbr`` sorted, ``tag`` (in 0..m) permuted alike, by one
    sort of the key nbr * 2^b + tag with 2^b > m.  Equal neighbours come in
    tag order, which keeps the first copy first where the columns are in
    tag order.  The key is built, sorted and split in the buffer of an
    int32 ``nbr``, which the caller gives up."""
    b = m.bit_length()
    # the entries run up to the padding len(nbr), so a key stays below
    # (len(nbr) + 1) * 2^b
    key = nbr.astype(np.int64 if (len(nbr) + 1) << b > 2**31 else np.int32, copy=False)
    key <<= b
    key += tag
    key.sort(axis=1)
    # the low byte of each key, then its low b bits: the tag
    tag = key.astype(np.int8)
    tag &= (1 << b) - 1
    key >>= b
    return key.astype(nbr.dtype, copy=False), tag


def build_graph(g: GroupTable, minimals: list[Partition],
                codec: VertexCodec | None = None) -> DiagGraph:
    """Adjacency from the minimal partitions Q_0..Q_m of G^m: joined iff
    some part of some Q_i contains both vertices, tagged i (the first i at
    m = 1, the complete graph).  ``codec`` is that of G^m where the caller
    has it."""
    m = len(minimals) - 1
    n = g.order**m
    mates = [part.block_mates() for part in minimals]
    tag = np.repeat(np.arange(m + 1, dtype=np.int8), [a.shape[1] for a in mates])
    nbr, tag = _sort_rows(np.concatenate(mates, axis=1),
                          np.broadcast_to(tag, (n, len(tag))), m)
    twice = np.zeros(nbr.shape, dtype=bool)
    twice[:, 1:] = nbr[:, 1:] == nbr[:, :-1]
    if twice.any():
        if m >= 2:
            u, k = np.nonzero(twice & (nbr > np.arange(n)[:, None]))
            raise AssertionError(
                f"edge {(int(u[0]), int(nbr[u[0], k[0]]))} lies in two minimal partitions")
        # m = 1: keep the first copy, move the others past the end as padding
        width = (~twice).sum(axis=1).max()
        nbr, tag = _sort_rows(np.where(twice, n, nbr), tag, m)
        nbr, tag = nbr[:, :width], tag[:, :width]
    return DiagGraph.from_neighbours(g, m, nbr, tag, codec)


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


def tagged_connection_set(g: GroupTable, m: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The tuples of ``connection_set`` and the int8 tag of each: the
    moved coordinate, from 1, for a one-coordinate tuple at m >= 2, and 0
    otherwise, so that s and its inverse carry the same tag."""
    tuples = connection_set(g, m).tuples
    tag = [0] * len(tuples)
    if m >= 2:
        for k, s in enumerate(tuples):
            moved = [i for i in range(m) if s[i] != 0]
            if len(moved) == 1:
                tag[k] = moved[0] + 1
    return tuples, np.array(tag, dtype=np.int8)


def connection_vertices(g: GroupTable, codec: VertexCodec) -> tuple[np.ndarray, np.ndarray]:
    """The vertex numbers of the ``tagged_connection_set`` of G^m, the
    points of ``codec``, in increasing order, and their tags alike: row 0
    of ``cayley_graph``, with its tags."""
    tuples, tag = tagged_connection_set(g, codec.m)
    points = codec.index(np.array(tuples, dtype=np.int64).reshape(len(tuples), codec.m))
    order = np.argsort(points)
    return points[order], tag[order]


def cayley_graph(g: GroupTable, m: int, cap: int = DEFAULT_VERTEX_CAP, *,
                 codec: VertexCodec | None = None) -> DiagGraph:
    """Independent construction: v ~ s*v (componentwise) for s in the
    inverse-closed connection set, one neighbour column per s, tagged as
    ``tagged_connection_set`` tags s.  Column s is the left multiplication
    by s, coordinate by coordinate, so the columns are one ``coordinatewise``
    array by vertex.  ``codec`` is ``vertex_codec(g, m, cap)`` where the
    caller has it."""
    if codec is None:
        codec = vertex_codec(g, m, cap)
    tuples, tag = tagged_connection_set(g, m)
    maps = g.mul_array[np.array(tuples, dtype=np.intp).reshape(len(tuples), m)]
    nbr = coordinatewise(codec, maps, np.int32, by_vertex=True)
    nbr, tag = _sort_rows(nbr, np.broadcast_to(tag, nbr.shape), m)
    return DiagGraph.from_neighbours(g, m, nbr, tag, codec)


def same_edge_set(a: DiagGraph, b: DiagGraph) -> bool:
    """True iff the two graphs list the same neighbours with the same tags,
    entry for entry, so at both ends of every edge."""
    return np.array_equal(a.nbr, b.nbr) and np.array_equal(a.tag, b.tag)


def coset_construction_agrees(blocks, g: GroupTable, codec: VertexCodec) -> bool:
    """``same_edge_set(build_graph(g, minimals), cayley_graph(g, m))``, at
    m >= 2, decided from the blocks through vertex 0 of minimal partitions
    Q_i that are the coset partitions B_i·v of their blocks B_i through 0
    (``blocks``, as ``DiagonalSemilattice.blocks`` certifies them); raises
    the AssertionError that ``build_graph`` raises where an edge lies in
    two minimal partitions.

    Vertices v and w share a part of Q_i iff w·v^-1 lies in B_i.  So
    ``build_graph`` joins v to c·v for every c in C, the union of the
    B_i less the identity 0, and tags the edge i for c in B_i, at both ends
    as c^-1 lies in B_i too.  An edge lies in two parts iff some c != 0
    lies in B_i and B_j for i != j; then (0, c) does, and row 0 of
    ``build_graph``, sorted, names the edge (0, x) for the least such x.
    Otherwise C, with its tags, is row 0 of ``build_graph``, and the
    ``connection_vertices`` are row 0 of ``cayley_graph``: unequal rows make
    unequal arrays, and equal tagged sets make the same Cayley graph with
    the same tags, so equal arrays.  O(|C|), with no neighbour array.
    """
    points = np.concatenate(blocks)
    tags = np.repeat(np.arange(len(blocks), dtype=np.int8), [len(b) for b in blocks])
    moved = points != 0
    points, tags = points[moved], tags[moved]
    order = np.lexsort((tags, points))
    points, tags = points[order], tags[order]
    twice = points[1:] == points[:-1]
    if twice.any():
        raise AssertionError(
            f"edge {(0, int(points[1:][twice][0]))} lies in two minimal partitions")
    want, want_tags = connection_vertices(g, codec)
    return np.array_equal(points, want) and np.array_equal(tags, want_tags)


def is_coset_partition_graph(graph: DiagGraph, blocks) -> bool:
    """True if ``graph`` is certified to list the edges of ``build_graph``
    of minimal partitions that are the coset partitions of their blocks
    ``blocks`` through vertex 0; False means only that the certificate
    failed, and it always fails at m = 1.

    It holds when m >= 2, ``coset_construction_agrees`` (so the partition
    graph is the Cayley graph of the tagged connection set S, and no edge
    lies in two parts), row 0 of ``nbr`` and of ``tag`` list S and its tags
    (``connection_vertices``), and the translation certificate holds (so
    N(v) = N(0)·v = S·v at every v).  Then ``nbr`` is the Cayley graph of
    S, and so the partition graph, row for row.  The tags of the other
    rows are not checked: ``coset_construction_agrees`` has decided the
    tags, and no later check reads them.
    """
    try:
        if graph.m < 2 or not coset_construction_agrees(blocks, graph.group, graph.codec):
            return False
    except AssertionError:
        return False
    star, tags = connection_vertices(graph.group, graph.codec)
    return (np.array_equal(graph.nbr[0], star) and np.array_equal(graph.tag[0], tags)
            and graph.translations_certified)


@dataclass(frozen=True, eq=False)
class TaggedPerm:
    """A permutation of the vertex set with its generator type; ``image``
    is kept as a read-only int array."""

    tag: str
    image: np.ndarray

    def __post_init__(self) -> None:
        image = np.array(self.image, dtype=np.intp)
        image.flags.writeable = False
        object.__setattr__(self, "image", image)


def right_translations(g: GroupTable, codec: VertexCodec) -> list[TaggedPerm]:
    """v -> v·h for h the identity but for one coordinate, taken from a
    generating sequence of G: generators of the right translations of G^m.
    The one that multiplies coordinate i by x changes one digit of v, so it
    adds the change of that digit times q^i: one gather per generator."""
    n, q = codec.size, codec.q
    vertices = np.arange(n)
    out = []
    for x in generating_sequence(g):
        change = g.mul_array[:, x] - np.arange(q)
        for i, column in enumerate(codec.digits.T):
            out.append(TaggedPerm(tag="right-mult", image=vertices + (change * q**i)[column]))
    return out


def check_automorphisms(graph: DiagGraph, perms: list[TaggedPerm]) -> None:
    """Raise AssertionError unless every generator is an automorphism of
    ``graph``: p maps the sorted neighbours of each vertex v onto those of
    p(v), with the padding sentinel n of ``nbr`` mapped to itself."""
    n = graph.size
    for p in perms:
        image = np.append(p.image, n).astype(np.int32)
        if not np.array_equal(np.sort(image[graph.nbr], axis=1), graph.nbr[p.image]):
            raise AssertionError(f"generator {p.tag} maps an item outside the item set")


def translations_are_automorphisms(graph: DiagGraph) -> bool:
    """True iff every right translation t_h: v -> v·h of G^m is an
    automorphism of ``graph``, tested as N(v) = N(0)·v for every v.

    If N(v) = N(0)·v for all v, then N(vh) = N(0)·vh = N(v)·h, so every t_h
    is an automorphism; conversely, if every t_h is one, put v = 0.

    One ``coordinatewise`` call by vertex builds the right translates of
    N(0), row v the vertices s·v for s in N(0).  Each row is sorted and
    compared with the first |N(0)| entries of that row of ``nbr``, and the
    rest of ``nbr`` must be padding: a graph that is not regular pads its
    rows unequally and fails."""
    n, nbr, codec = graph.size, graph.nbr, graph.codec
    star = nbr[0][nbr[0] < n]
    translates = coordinatewise(codec, graph.group.mul_array[codec.digits[star]], np.int32,
                                by_vertex=True)
    translates.sort(axis=1)
    return (np.array_equal(translates, nbr[:, :len(star)])
            and bool((nbr[:, len(star):] == n).all()))


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of each entry, as uint64."""
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


def distance_layers(graph: DiagGraph) -> tuple[np.ndarray, ...]:
    """The vertices at each distance from vertex 0, each layer in
    increasing order, up to the last layer that is not empty: one
    breadth-first search, each level one scatter of the frontier's rows of
    ``nbr``, a block of rows at a time within ``BLOCK_BYTES``.  The graph
    is connected iff the layers hold all n vertices."""
    n, nbr = graph.size, graph.nbr
    reach = np.zeros(n + 1, dtype=bool)
    reach[[0, n]] = True  # vertex 0, and the padding n, never a frontier
    layers = [np.zeros(1, dtype=np.intp)]
    while True:
        nxt = np.zeros(n + 1, dtype=bool)
        frontier = layers[-1]
        for block in _row_blocks(len(frontier), 4 * nbr.shape[1]):
            nxt[nbr[frontier[block]]] = True
        nxt &= ~reach
        layer = np.flatnonzero(nxt)
        if not len(layer):
            return tuple(layers)
        reach[layer] = True
        layers.append(layer)


def neighbourhood_is_a_base(graph: DiagGraph) -> bool:
    """True if every automorphism of ``graph`` that fixes each point of
    N[0], the closed neighbourhood of vertex 0, is the identity (the proof
    is in the docstring of ``symmetry``); False means only that this
    certificate failed.

    It holds when the right translations are certified automorphisms, the
    graph is connected (its ``layers`` from 0), and colour refinement on the
    ball of radius 2 about 0 ends discrete.  The refinement starts with 0
    and each neighbour of 0 in colours of their own and the rest of the
    ball in one more; neighbours outside the ball, and the padding, read one
    sentinel colour.  A round's new colour ranks the old one paired with a
    hash of the multiset of neighbour colours (a sum of ``_mix`` values),
    and the rounds stop when no class splits.
    """
    if not graph.translations_certified:
        return False
    n, layers = graph.size, graph.layers
    if sum(map(len, layers)) != n:
        return False
    ball = np.concatenate(layers[:3])  # 0, then N(0) sorted, then distance 2
    size, star = len(ball), sum(map(len, layers[1:2]))
    # the colour of each vertex of the ball, then the sentinel colour, size
    colour = np.minimum(np.arange(size + 1), star + 1)
    colour[size] = size
    local = np.full(n + 1, size, dtype=np.int32)  # size: outside the ball
    local[ball] = np.arange(size)
    around = local[graph.nbr[ball]]
    mixed = _mix(np.arange(size + 1))
    classes = min(size, star + 2)
    while classes < size:
        key = colour[:size].astype(np.uint64) << np.uint64(32)
        key |= mixed[colour][around].sum(axis=1) >> np.uint64(32)
        order = key.argsort()
        ranked = key[order]
        ranks = np.cumsum(ranked[1:] != ranked[:-1])
        if ranks[-1] + 1 == classes:
            return False
        classes = int(ranks[-1]) + 1
        colour[order[0]] = 0
        colour[order[1:]] = ranks
    return True


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
    ecc = 0
    for block in start_blocks(bases, n + 1):
        bit = np.arange(len(block))
        frontier = np.zeros((n + 1, -(-len(block) // 64)), dtype=np.uint64)
        frontier[np.asarray(block), bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        reach = frontier.copy()
        level = 0
        while True:
            nxt = np.zeros_like(frontier)
            for col in graph.columns:
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

    Vertex-transitivity, which ``translations_are_automorphisms``
    certifies, makes the eccentricity of vertex 0, read off the graph's
    ``layers``, the diameter; under ``paranoid`` or without the
    certificate every base vertex is searched (``DiagGraph.rooted``).
    """
    if graph.rooted(paranoid):
        ecc = len(graph.layers) - 1
    else:
        ecc = _max_eccentricity(graph, range(graph.size))
    formula = graph.m + 1 - ceil((graph.m + 1) / graph.q)
    return DiameterReport(bfs=ecc, formula=formula)


# The four small graphs whose clique structure departs from the generic
# pattern, at dimension 2 over the groups of order at most 4, keyed by the
# group's order and exponent.  The clique counts were computed with
# Bron-Kerbosch and are frozen as regression values; the two order-16
# graphs share a spectrum but differ in their number of 4-cliques.
EXCEPTIONAL_CLIQUE_TABLE = {
    (2, 2): {"name": "complete graph K4", "clique_number": 4,
             "maximal_cliques": 1, "max_size_cliques": 1},
    (3, 3): {"name": "complete tripartite graph K333", "clique_number": 3,
             "maximal_cliques": 27, "max_size_cliques": 27},
    (4, 2): {"name": "complement of the 4x4 rook's graph", "clique_number": 4,
             "maximal_cliques": 24, "max_size_cliques": 24},
    (4, 4): {"name": "complement of the Shrikhande graph", "clique_number": 4,
             "maximal_cliques": 48, "max_size_cliques": 16},
}


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


def bron_kerbosch(nbr: np.ndarray) -> list[tuple[int, ...]]:
    """All maximal cliques of the graph whose vertex v has the neighbours
    ``nbr[v]``, each once as a sorted tuple (Bron-Kerbosch over Python-int
    bitsets with Tomita's pivot).  Entries of ``nbr`` at or above its row
    count are padding, as in ``DiagGraph.nbr``.

    Each row's bitset is packed by ``np.packbits`` from a dense boolean row,
    a block of rows at a time within ``BLOCK_BYTES``, and read as one
    little-endian Python int, so no numpy integer is ever shifted.
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
    n = len(nbr)
    bits: list[int] = []
    for block in start_blocks(range(n), 8 * (n + 1)):
        rows = np.minimum(nbr[block.start:block.stop], n)  # padding in column n
        dense = np.zeros((len(rows), n + 1), dtype=bool)
        dense[np.arange(len(rows))[:, None], rows] = True
        packed = np.packbits(dense[:, :n], axis=1, bitorder="little")
        bits.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    cliques: list[tuple[int, ...]] = []
    for v, row in enumerate(bits):
        later = row >> (v + 1) << (v + 1)
        _bk_expand([v], later, row ^ later, bits, cliques)
    return cliques


def _clique_census(
    graph: DiagGraph, whole: bool
) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """The maximal cliques that the clique checks read, as sorted tuples,
    and the number of maximal cliques of each size.

    With ``whole``, Bron-Kerbosch lists every maximal clique of the whole
    graph, at most ``CLIQUE_VERTEX_CAP`` vertices.  Otherwise it lists
    those through vertex 0, {0} ∪ C for the maximal cliques C of the
    subgraph on N(0), and the caller vouches that the right translations
    are automorphisms: each vertex then lies in as many maximal s-cliques as
    vertex 0, c_0(s), so there are n·c_0(s)/s, and a remainder raises.
    """
    n = graph.size
    if whole:
        if n > CLIQUE_VERTEX_CAP:
            raise CapExceededError(f"{n} vertices exceeds clique cap {CLIQUE_VERTEX_CAP}")
        cliques = bron_kerbosch(graph.nbr)
        return cliques, dict(Counter(map(len, cliques)))
    star = graph.nbr[0][graph.nbr[0] < n]
    # the neighbours of N(0) renumbered by their place in N(0); the others,
    # padding among them, become the padding len(star)
    around = graph.nbr[star]
    at = np.searchsorted(star, around)
    local = np.where(np.append(star, -1)[at] == around, at, len(star))
    star = star.tolist()
    cliques = [(0,) + tuple(star[j] for j in c) for c in bron_kerbosch(local)] or [(0,)]
    counts = {}
    for size, at_zero in Counter(map(len, cliques)).items():
        counts[size], rem = divmod(n * at_zero, size)
        if rem:
            raise AssertionError(f"{at_zero} maximal cliques of {size} vertices through "
                                 f"vertex 0 do not spread evenly over {n} vertices")
    return cliques, counts


@dataclass(frozen=True)
class CliqueReport:
    """The number of maximal cliques of each size, and those through 0."""

    sizes: dict[int, int]
    through_zero: tuple[tuple[int, ...], ...]
    exceptional_name: str | None

    @property
    def exceptional(self) -> bool:
        return self.exceptional_name is not None

    @property
    def clique_number(self) -> int:
        return max(self.sizes)

    @property
    def count(self) -> int:
        return sum(self.sizes.values())

    @property
    def max_count(self) -> int:
        return self.sizes[self.clique_number]

    @property
    def top_through_zero(self) -> list[tuple[int, ...]]:
        return [c for c in self.through_zero if len(c) == self.clique_number]


def maximal_cliques(
    graph: DiagGraph,
    minimals: list[Partition],
    *,
    paranoid: bool = False,
) -> CliqueReport:
    """The clique census of ``graph`` (``_clique_census``), checked against
    the parts of the minimal partitions it was built from; it reads the
    cliques through vertex 0 where ``graph.rooted(paranoid)``, else those
    of the whole graph.

    The four exceptional graphs are checked by their counts.  Otherwise the
    clique number must be q and, at m > 2, no maximal clique may be
    smaller.  Every part must have ω points, every maximum clique in scope
    must lie in a part, so be one, and at m >= 2 there must be as many
    maximum cliques as parts.  Off the vertex-0 path the scope is the whole
    graph: distinct maximum cliques are then distinct parts, and the count
    leaves no part over, so the parts are the maximum cliques.  Otherwise
    the scope is vertex 0, where n·c_0(ω)/ω maximum cliques against n/ω
    parts per partition make the maximum cliques through 0 exactly the
    parts through 0, one per partition.  Away from 0, the graph is the
    partition graph of ``minimals``: ``build_graph`` builds it, and
    ``check-all`` reads either that or a Cayley array certified equal to it
    (``is_coset_partition_graph``).  The partition graph joins the points
    of each part and lets no edge lie in two parts, so the parts are
    distinct maximum cliques, and the count makes them all of them.
    """
    g = graph.group
    cliques, counts = _clique_census(graph, not graph.rooted(paranoid))
    entry = (EXCEPTIONAL_CLIQUE_TABLE[g.order, max(map(g.order_of, g.elements()))]
             if graph.m == 2 and g.order <= 4 else None)
    report = CliqueReport(sizes=counts,
                          through_zero=tuple(sorted(c for c in cliques if c[0] == 0)),
                          exceptional_name=entry and entry["name"])
    omega = report.clique_number
    if entry is not None:
        got = {"clique_number": omega, "maximal_cliques": report.count,
               "max_size_cliques": report.max_count}
        if any(entry[key] != got[key] for key in got):
            raise AssertionError(
                f"exceptional graph {entry['name']} does not match its table entry")
        return report
    if omega != graph.q:
        raise AssertionError(f"clique number {omega} differs from group order {graph.q}")
    top = np.array([c for c in cliques if len(c) == omega])
    in_a_part = np.zeros(len(top), dtype=bool)
    for part in minimals:
        lab = part.block_of
        if (part.block_sizes() != omega).any():
            raise AssertionError("maximum cliques are not exactly the partition parts")
        in_a_part |= (lab[top] == lab[top[:, :1]]).all(axis=1)
    if not in_a_part.all():
        raise AssertionError("maximum cliques are not exactly the partition parts")
    parts = sum(part.block_count for part in minimals)
    if graph.m >= 2 and report.max_count != parts:
        raise AssertionError("maximum cliques are not exactly the partition parts: "
                             f"{report.max_count} maximum cliques, {parts} parts")
    if graph.m > 2 and len(top) != len(cliques):
        raise AssertionError("a maximal clique below maximum size exists")
    return report


def same_label_neighbours(graph: DiagGraph, label) -> np.ndarray:
    """How many neighbours of each vertex carry its label, given one label
    per vertex, int32: the labels are gathered over ``nbr`` as int32, a
    block of rows at a time within ``BLOCK_BYTES``, and the padding n
    carries a label that no vertex does."""
    n, nbr = graph.size, graph.nbr
    lab = np.empty(n + 1, dtype=np.int32)
    lab[:n] = label
    lab[n] = lab[:n].min(initial=0) - 1
    count = np.empty(n, dtype=np.intp)
    for block in _row_blocks(n, 4 * nbr.shape[1]):
        count[block] = np.count_nonzero(lab[nbr[block]] == lab[block, None], axis=1)
    return count


@dataclass(frozen=True)
class CliqueCover:
    size: int
    lower_bound: int


def clique_cover(graph: DiagGraph, minimals: list[Partition]) -> CliqueCover:
    """Vertex-disjoint clique cover from the parts of Q_1 (q^(m-1) cliques),
    with the matching lower bound size/q."""
    part = minimals[1]
    if part.size != graph.size:
        raise AssertionError("cover misses vertices")
    # A block B is a clique iff each of its vertices has the other |B| - 1
    # among its neighbours.  A row of nbr lists distinct neighbours, so no
    # vertex has more, and the blocks are all cliques iff the counts sum to
    # the sum of |B|(|B| - 1).
    inside = same_label_neighbours(graph, part.block_of)
    sizes = part.block_sizes()
    if inside.sum() < (sizes * (sizes - 1)).sum():
        blk = next(b for b in part.blocks() if (inside[b] < len(b) - 1).any())
        raise AssertionError(f"cover block {tuple(blk)} is not a clique")
    return CliqueCover(size=part.block_count, lower_bound=graph.size // graph.q)


def _sphere_counts(
    graph: DiagGraph,
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """``is_distance_regular`` from vertex 0 alone, on the distances of the
    graph's ``layers``.

    One gather of the distances over ``nbr``, a block of rows at a time
    within ``BLOCK_BYTES``, counts each vertex's neighbours one layer out
    (b) and one layer in (c); the padding n, at distance -2, and the
    unreached vertices, at -1, are at no distance i + 1 or i - 1 of a
    reached vertex.  Every layer must then have one b and one c: its least
    and greatest counts, taken per layer over the vertices in layer order,
    must agree.
    """
    n, nbr, layers = graph.size, graph.nbr, graph.layers
    order, sizes = np.concatenate(layers), [len(layer) for layer in layers]
    dist = np.full(n + 1, -1, dtype=np.int32)
    dist[n] = -2
    dist[order] = np.repeat(np.arange(len(layers), dtype=np.int32), sizes)
    out, into = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    for block in _row_blocks(n, 4 * nbr.shape[1]):
        around, own = dist[nbr[block]], dist[block, None]
        out[block] = np.count_nonzero(around == own + 1, axis=1)
        into[block] = np.count_nonzero(around == own - 1, axis=1)
    starts = np.cumsum([0] + sizes[:-1])
    counts = []
    for count in (out[order], into[order]):
        low = np.minimum.reduceat(count, starts)
        if (low != np.maximum.reduceat(count, starts)).any():
            return False, None
        counts.append(low)
    ecc = len(layers) - 1
    return True, (tuple(counts[0][:ecc].tolist()), tuple(counts[1][1:].tolist()))


def is_distance_regular(
    graph: DiagGraph, paranoid: bool = False
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Distance-regularity by sphere counting from a base vertex.

    Vertex-transitivity justifies the single base; under ``paranoid`` or
    without the translation certificate every vertex is a base
    (``DiagGraph.rooted``).  Returns (verdict, (b_array, c_array) or None).
    For each base, every vertex at distance i must have the same number
    c_i of neighbours at i - 1 and b_i at i + 1, and every base must give
    the same arrays.  Unreachable vertices are not counted.

    From vertex 0 the distances are the graph's ``layers`` (``_sphere_counts``).
    Otherwise a block of bases is searched at once: ``dist`` holds one
    column per base, and each breadth-first level gathers the frontier over
    ``nbr``, whose padding is the sentinel vertex n.
    """
    n = graph.size
    if n and graph.rooted(paranoid):
        return _sphere_counts(graph)
    nbr = graph.nbr
    result: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for block in start_blocks(range(n), 32 * max(1, nbr.size)):
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

