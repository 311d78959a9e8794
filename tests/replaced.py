"""Code that faster kernels replaced, kept as test oracles.

The connected-components code that ``partitions.components`` replaced: the
disjoint-set forest, the supremum and the minimal block system search built
on it, and the breadth-first suborbit search.  The minimal block system
search by a fixpoint over every generator, one ``components`` call per
round, before Higman's criterion built each minimal block through vertex 0
as the subgroup of G^m that a suborbit generates.  The distance-regularity check
that ran one breadth-first search per base, which the blocked numpy search
in ``diaggraph.is_distance_regular`` replaced.  The two Python graph
constructions, which built an ``edge_tag`` dict {(u, v): tag} and sorted
adjacency tuples before both were built as numpy arrays, and the exporters
that read that dict.  The per-vertex tuple loops that gathers over
``VertexCodec.digits`` replaced: the tuple codec, the minimal partitions,
the diagonal-group generators, the induced action on the partitions, the
homomorphism cascade and the colourings, and the dict labelling of
``Partition.from_labels``.  The first-occurrence ranks of canonical block
form, the label format before every partition was kept in smallest-point
form; the element order must not have changed with it.
The orbit count over the whole item set that
``symmetry.rooted_orbit_counts`` replaced: it looks every generator's image
of every item up in a table of all items.  The edge-list constructor
``from_rows`` and the pair rows of each part of a partition, which both
constructions formed before they built ``nbr`` first; ``from_rows`` also
builds the tests' irregular graphs.  The ``(u, v, tag)`` rows that
``DiagGraph`` stored beside ``nbr`` before it kept ``nbr`` and ``tag`` alone,
derived by ``tagged_rows``.  The walk counts and the eccentricities
that packed a block of starts into the bits of one Python int per vertex
and looped over the list view, before the numpy kernels over ``nbr``.
The per-point loops of ``finer_or_equal`` and ``Partition.blocks``, from
when a partition's labels were a tuple of Python ints.  The subset table
built one mask at a time by a pairwise ``supremum``, before one
``components`` call per block of rows built it one generator at a time.
The Gauss-Jordan elimination over ``Fraction`` that solved for the
spectrum's multiplicities before the integer Lagrange solve.  The dense
zeta and Moebius matrices of a family of partitions, one ``finer_or_equal``
test per pair and exact forward substitution, which named the mismatches
of a failed Moebius check before the semilattice's Moebius values were
read off its closure masks.  The list of every maximal clique, translated
from those through vertex 0 once N(v) = N(0)·v was checked at every v,
before the clique census counted them from the cliques through vertex 0.
The tabu search over the list view, with a list of colour counts per
vertex, before the numpy table of those counts over ``nbr``.  The list
view itself, ``nbr`` as lists of Python ints without the padding
(``adjacency_lists``), before Bron-Kerbosch packed its bitsets from
``nbr``; ``padded`` turns lists back into such an array.  The radix
numbering of item rows, one column at a time, and its batched lookup
(``_row_ids``, ``_lookup_rows``), before the orbit counts through vertex 0
numbered their few items in a dict; the whole-item-set ``orbit_count``
still reads them.  The translation certificate that checked the right
multiplications by a generating sequence one by one, each by a
whole-graph gather and sort, after a ``components`` pass showed them
transitive, before one sort of the right translates of N(0) tested
N(v) = N(0)·v at every v.  The minimal partitions labelled over the digit
table and put in smallest-point form by ``Partition.from_labels``, before
``build_q`` built them in that form directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from diaglab.chromatic import TABUCOL_MOVE_BUDGET, TABUCOL_SEED, CompleteMapping, Coloring
from diaglab.diaggraph import (
    DiagGraph,
    bron_kerbosch,
    check_automorphisms,
    connection_set,
    right_translations,
)
from diaglab.groups import GroupTable, generating_sequence
from diaglab.partitions import (
    Partition,
    _check_same_ground,
    components,
    element_order,
    finer_or_equal,
    singletons,
)
from diaglab.semilattice import VertexCodec, minimal_partitions
from diaglab.symmetry import TaggedPerm, _perm_group_generators


@dataclass(frozen=True)
class TupleCodec:
    """Bijection between 0..q^m-1 and m-tuples over 0..q-1."""

    q: int
    m: int

    @property
    def size(self) -> int:
        return self.q**self.m

    def encode(self, tup) -> int:
        idx = 0
        for i in range(self.m - 1, -1, -1):
            idx = idx * self.q + tup[i]
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            idx, r = divmod(idx, self.q)
            out.append(r)
        return tuple(out)

    def all_tuples(self):
        for idx in range(self.size):
            yield self.decode(idx)


def dict_from_labels(labels) -> Partition:
    """The partition of an arbitrary labelling of {0..n-1}, each point
    labelled by the least point of its class: the first point that carries
    its label."""
    least: dict = {}
    canon = [least.setdefault(lab, point) for point, lab in enumerate(labels)]
    return Partition(len(canon), tuple(canon), len(least))


def first_occurrence_ranks(labels) -> tuple[int, ...]:
    """Canonical block form of a labelling: each label becomes the rank of
    its first occurrence, the label format before smallest points."""
    rank: dict = {}
    return tuple(rank.setdefault(lab, len(rank)) for lab in labels)


def loop_finer_or_equal(p: Partition, q: Partition) -> bool:
    """True iff every block of p lies inside a single block of q."""
    _check_same_ground(p, q)
    seen: dict[int, int] = {}
    for point in range(p.size):
        bq = seen.setdefault(int(p.block_of[point]), int(q.block_of[point]))
        if bq != q.block_of[point]:
            return False
    return True


def loop_blocks(p: Partition) -> list[list[int]]:
    out: dict[int, list[int]] = {}
    for point, b in enumerate(p.block_of.tolist()):
        out.setdefault(b, []).append(point)
    return list(out.values())


def adjacency_lists(graph: DiagGraph) -> list[list[int]]:
    """``graph.nbr`` as lists of Python ints without the padding: the list
    view ``DiagGraph.adjacency`` before the searches read ``nbr`` itself."""
    n = graph.size
    return [[w for w in row if w < n] for row in graph.nbr.tolist()]


def padded(lists) -> np.ndarray:
    """Adjacency lists as a padded neighbour array like ``DiagGraph.nbr``:
    row v holds v's neighbours, then the padding n."""
    n = len(lists)
    nbr = np.full((n, max(map(len, lists), default=0)), n, dtype=np.int32)
    for v, a in enumerate(lists):
        nbr[v, :len(a)] = a
    return nbr


def bfs_distances(graph: DiagGraph, start: int) -> list[int]:
    adjacency = adjacency_lists(graph)
    dist = [-1] * graph.size
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def tuple_build_q(g: GroupTable, m: int, i: int) -> Partition:
    """The minimal partition Q_i of G^m.

    For i >= 1 the parts collect tuples agreeing in every coordinate except
    i; for i = 0 they are the diagonal left-translation classes
    {(x*g_1, ..., x*g_m) : x in G}.
    """
    if not 0 <= i <= m:
        raise ValueError(f"partition index {i} outside 0..{m}")
    codec = TupleCodec(q=g.order, m=m)
    labels = []
    if i >= 1:
        for tup in codec.all_tuples():
            labels.append(tup[: i - 1] + tup[i:])
    else:
        for tup in codec.all_tuples():
            x = g.inv[tup[0]]  # normal form: translate first coordinate to 0
            labels.append(tuple(g.mul[x][e] for e in tup))
    return dict_from_labels(labels)


def labelled_build_q(g: GroupTable, m: int, i: int) -> Partition:
    """Q_i of G^m from a label per vertex over the digit table, made
    smallest-point by ``Partition.from_labels``: the digits with coordinate
    i set to the identity, or for i = 0 the digits left-multiplied by the
    inverse of the first coordinate."""
    codec = VertexCodec(q=g.order, m=m)
    if i >= 1:
        labels = codec.digits.copy()
        labels[:, i - 1] = 0
    else:
        labels = g.mul_array[g.inv_array[codec.digits[:, :1]], codec.digits]
    return Partition.from_labels(codec.index(labels))


@dataclass(frozen=True)
class TuplePerm:
    """A permutation of the vertex set with its generator type."""

    tag: str
    image: tuple[int, ...]

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.image))


def tuple_generators(
    g: GroupTable, m: int, aut: list[tuple[int, ...]]
) -> list[TuplePerm]:
    """Explicit image tuples for a generating set of the diagonal group on
    G^m, given ``aut = automorphism_group(g)``."""
    codec = TupleCodec(q=g.order, m=m)
    n = codec.size
    tuples = [codec.decode(v) for v in range(n)]
    gens_g = generating_sequence(g)
    out: list[TuplePerm] = []

    def emit(tag: str, fn) -> None:
        image = tuple(codec.encode(fn(t)) for t in tuples)
        perm = TuplePerm(tag=tag, image=image)
        if not perm.is_identity() and all(perm.image != p.image for p in out):
            out.append(perm)

    for x in gens_g:
        for i in range(m):
            emit("right-mult", lambda t, x=x, i=i: t[:i] + (g.mul[t[i]][x],) + t[i + 1:])
    for x in gens_g:
        xi = g.inv[x]
        emit("diag-left-mult", lambda t, xi=xi: tuple(g.mul[xi][e] for e in t))
    for alpha in _perm_group_generators(aut):
        emit("aut", lambda t, alpha=alpha: tuple(alpha[e] for e in t))
    if m >= 2:
        emit("coord-perm", lambda t: (t[1], t[0]) + t[2:])
        if m >= 3:
            emit("coord-perm", lambda t: t[1:] + (t[0],))
    emit(
        "inversion-map",
        lambda t: (g.inv[t[0]],) + tuple(g.mul[g.inv[t[0]]][e] for e in t[1:]),
    )
    return out


def tuple_action_on_partitions(
    perms, minimals: list[Partition]
) -> list[tuple[int, ...]]:
    """Induced permutation of the minimal partitions for each generator."""
    canon = {p: i for i, p in enumerate(minimals)}
    n = minimals[0].size
    induced = []
    for perm in perms:
        row = []
        for p in minimals:
            labels = [0] * n
            for point in range(n):
                labels[perm.image[point]] = p.block_of[point]
            image = dict_from_labels(labels)
            target = canon.get(image)
            if target is None:
                raise AssertionError(
                    f"generator {perm.tag} maps a minimal partition outside the family"
                )
            row.append(target)
        induced.append(tuple(row))
    return induced


def tuple_reduce_hom(v: tuple[int, ...], g: GroupTable) -> tuple[int, ...]:
    """(g1, ..., gm) -> (g1 * g2^-1 * g3, g4, ..., gm); maps edges to edges."""
    if len(v) < 3:
        raise ValueError("dimension reduction needs m >= 3")
    head = g.mul[g.mul[v[0]][g.inv[v[1]]]][v[2]]
    return (head,) + v[3:]


def tuple_reduce_to_dimension(v: tuple[int, ...], g: GroupTable, target: int) -> tuple[int, ...]:
    if (len(v) - target) % 2:
        raise ValueError("dimension parity mismatch")
    while len(v) > target:
        v = tuple_reduce_hom(v, g)
    return v


def tuple_latin_square_coloring(g: GroupTable, cm: CompleteMapping) -> Coloring:
    """Proper q-colouring of the dimension-2 graph from a complete mapping."""
    q = g.order
    colors = []
    for idx in range(q * q):
        a, b = idx % q, idx // q  # coordinate 1 least significant
        colors.append(g.mul[g.inv[cm.phi[g.inv[a]]]][b])
    return Coloring(colors=tuple(colors))


def tuple_pull_back(g: GroupTable, m: int, base: Coloring) -> Coloring:
    """Colouring of the even dimension-m graph from one of the dimension-2
    graph, through the homomorphism cascade (edges map to edges)."""
    codec = TupleCodec(q=g.order, m=m)
    q = g.order
    colors = []
    for v in range(codec.size):
        a, b = tuple_reduce_to_dimension(codec.decode(v), g, 2)
        colors.append(base.colors[a + q * b])
    return Coloring(colors=tuple(colors))


def tuple_q_coloring(g: GroupTable, m: int, cm: CompleteMapping | None) -> Coloring:
    """Colouring of the dimension-m graph with exactly q colours."""
    if m % 2:
        codec = TupleCodec(q=g.order, m=m)
        colors = tuple(
            tuple_reduce_to_dimension(codec.decode(v), g, 1)[0]
            for v in range(codec.size)
        )
        return Coloring(colors=colors)
    if cm is None:
        raise ValueError("even-dimension colouring needs a complete mapping")
    base = tuple_latin_square_coloring(g, cm)
    return base if m == 2 else tuple_pull_back(g, m, base)


class UnionFind:
    """Disjoint-set forest with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def unionfind_supremum(p: Partition, q: Partition) -> Partition:
    """Coarsening by connected components, via disjoint-set union."""
    _check_same_ground(p, q)
    uf = UnionFind(p.size)
    for part in (p, q):
        anchor: dict[int, int] = {}
        for point in range(part.size):
            uf.union(anchor.setdefault(int(part.block_of[point]), point), point)
    return Partition.from_labels([uf.find(x) for x in range(p.size)])


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


def unionfind_minimal_block_trivial(perms: list[TaggedPerm], n: int, v: int) -> bool:
    """True iff the minimal block system containing {0, v} is the whole set."""
    uf = UnionFind(n)
    uf.union(0, v)
    queue = [(0, v)]
    while queue:
        a, b = queue.pop()
        for p in perms:
            x, y = p.image[a], p.image[b]
            rx, ry = uf.find(x), uf.find(y)
            if rx != ry:
                uf.union(rx, ry)
                queue.append((rx, ry))
    root = uf.find(0)
    return uf.size[root] == n


def bfs_suborbit_representatives(n: int, stab_gens) -> list[int]:
    """The least point of each orbit of the stabiliser of 0 on 1..n-1."""
    seen = [False] * n
    seen[0] = True
    reps = []
    for v in range(1, n):
        if seen[v]:
            continue
        reps.append(v)
        frontier = [v]
        seen[v] = True
        while frontier:
            nxt = []
            for x in frontier:
                for s in stab_gens:
                    y = int(s[x])
                    if not seen[y]:
                        seen[y] = True
                        nxt.append(y)
            frontier = nxt
    return reps


def is_distance_regular(
    graph: DiagGraph, paranoid: bool = False
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Distance-regularity by sphere counting from a base vertex.

    Vertex-transitivity justifies the single base; ``paranoid`` re-checks
    from every vertex.  Returns (verdict, (b_array, c_array) or None).
    """
    bases = range(graph.size) if paranoid else (0,)
    adjacency = adjacency_lists(graph)
    result: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for base in bases:
        dist = bfs_distances(graph, base)
        diam = max(dist)
        b = [-1] * (diam + 1)
        c = [-1] * (diam + 1)
        for v in range(graph.size):
            i = dist[v]
            down = up = 0
            for w in adjacency[v]:
                if dist[w] == i - 1:
                    down += 1
                elif dist[w] == i + 1:
                    up += 1
            for arr, val in ((c, down), (b, up)):
                if i >= 0:
                    if arr[i] == -1:
                        arr[i] = val
                    elif arr[i] != val:
                        return False, None
        arrays = (tuple(b[:diam]), tuple(c[1:]))
        if result is None:
            result = arrays
        elif result != arrays:
            return False, None
    return True, result


def partition_edge_tags(
    g: GroupTable, m: int, minimals: list[Partition] | None = None
) -> dict[tuple[int, int], int]:
    """{(u, v): i} for every pair u < v in one part of Q_i; for m >= 2 an
    edge in two minimal partitions raises, for m = 1 the first i is kept."""
    if minimals is None:
        minimals = minimal_partitions(g, m)
    tagged: dict[tuple[int, int], int] = {}
    for i, part in enumerate(minimals):
        for block in part.blocks():
            for a in range(len(block)):
                for b in range(a + 1, len(block)):
                    e = (block[a], block[b])
                    if e not in tagged:
                        tagged[e] = i
                    elif m >= 2:
                        raise AssertionError(
                            f"edge {e} lies in two minimal partitions"
                        )
    return tagged


def cayley_edge_tags(g: GroupTable, m: int) -> dict[tuple[int, int], int]:
    """{(u, v): tag} for v = s*u over the connection set, first tag kept:
    the moved coordinate for one-coordinate tuples, 0 for constants."""
    codec = TupleCodec(q=g.order, m=m)
    conn = connection_set(g, m)
    tags = []
    for s in conn.tuples:
        moved = [i for i in range(m) if s[i] != 0]
        tags.append(moved[0] + 1 if len(moved) == 1 and m >= 2 else 0)
    tagged: dict[tuple[int, int], int] = {}
    for idx in range(codec.size):
        u = codec.decode(idx)
        for s, tag in zip(conn.tuples, tags):
            w = codec.encode(tuple(g.mul[s[i]][u[i]] for i in range(m)))
            e = (idx, w) if idx < w else (w, idx)
            if e not in tagged:
                tagged[e] = tag
    return tagged


def adjacency_of(size: int, tagged: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency tuples of the edges of ``tagged``."""
    adj: list[list[int]] = [[] for _ in range(size)]
    for u, v in tagged:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nb)) for nb in adj)


def graph6_of(size: int, tagged: dict[tuple[int, int], int]) -> bytes:
    """graph6 from the edge dict, one bit set per edge in a bytearray."""
    n = size
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    groups = bytearray(-(-n * (n - 1) // 12))
    for i, j in tagged:
        pos = j * (j - 1) // 2 + i
        groups[pos // 6] |= 32 >> pos % 6
    return head + bytes(b + 63 for b in groups)


def dot_of(codec: TupleCodec, tagged: dict[tuple[int, int], int]) -> str:
    lines = ["graph diagonal {"]
    for v in range(codec.size):
        tup = codec.decode(v)
        lines.append(f'  v{v} [label="{",".join(map(str, tup))}"];')
    for u, v in sorted(tagged):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines)


def edgelist_of(tagged: dict[tuple[int, int], int]) -> str:
    return "\n".join(f"{u} {v}" for u, v in sorted(tagged))


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


def _lookup_rows(keys: list[np.ndarray], rows: np.ndarray, degree: int) -> np.ndarray:
    """Ids (int32) of rows in the table behind ``keys``, -1 for each row
    that is absent."""
    ids = np.zeros(len(rows), dtype=np.int32)
    absent = np.zeros(len(rows), dtype=bool)
    for c, col_keys in enumerate(keys):
        want = ids.astype(col_keys.dtype) * degree + rows[:, c]
        ids = np.minimum(np.searchsorted(col_keys, want), len(col_keys) - 1)
        absent |= col_keys[ids] != want
        ids = ids.astype(np.int32)
    ids[absent] = -1
    return ids


def orbit_count(perms: list[TaggedPerm], items: list) -> int:
    """Orbits of the induced action on the distinct items.

    Items may be vertices (ints), edges (sorted pairs) or cliques (sorted
    tuples); the action relabels entries through each permutation.  Items
    are rows of one int32 array; each generator maps the whole array, and
    the orbits are the components of the resulting int32 item maps.  Raises
    AssertionError if some generator maps an item outside the set.
    """
    if not len(items):
        return 0
    rows = np.asarray(items)
    if rows.ndim == 1:
        rows = rows[:, None]
    degree = len(perms[0].image) if perms else int(rows.max()) + 1
    rows = rows.astype(np.int32, copy=False)
    key_type = np.int64 if len(rows) * degree > np.iinfo(np.int32).max else np.int32
    keys, ids = _row_ids(rows, degree, key_type)
    count = len(keys[-1])
    distinct = np.empty((count, rows.shape[1]), dtype=np.int32)
    distinct[ids] = rows
    del rows, ids
    # maps[g][i]: the index of generator g's image of distinct row i.  Each
    # is a bijection, since a permutation keeps distinct rows distinct.
    maps = []
    for p in perms:
        image = p.image.astype(np.int32)[distinct]
        found = _lookup_rows(keys, np.sort(image, axis=1), degree)
        if (found < 0).any():
            raise AssertionError(
                f"generator {p.tag} maps an item outside the item set"
            )
        maps.append(found)
    del distinct

    lab = components(count, maps)
    return int(np.count_nonzero(lab == np.arange(count)))


def generator_translations_are_automorphisms(graph: DiagGraph) -> bool:
    """True iff every right translation of G^m is an automorphism of
    ``graph``: the ``right_translations`` by a generating sequence, one per
    coordinate, act transitively and each is an automorphism, checked by
    one whole-graph gather and sort per generator.  They generate a
    transitive subgroup of the regular group of right translations, which
    is then the whole group."""
    shifts = right_translations(graph.group, graph.codec)
    if components(graph.size, [p.image for p in shifts]).any():
        return False
    try:
        check_automorphisms(graph, shifts)
    except AssertionError:
        return False
    return True


def translated_cliques(graph: DiagGraph) -> list[tuple[int, ...]] | None:
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
    if n == 0 or (adj == n).any():  # not regular
        return None
    codec, mul = graph.codec, np.asarray(graph.group.mul)

    def translates(left: np.ndarray) -> np.ndarray:
        """Row v: the vertices left·v, sorted."""
        return np.sort(codec.index(mul[codec.digits[left], codec.digits[:, None]]), axis=1)

    if not np.array_equal(translates(adj[0]), adj):
        return None
    star = adj[0].tolist()
    where = {v: j for j, v in enumerate(star)}
    local = [[where[w] for w in row if w in where] for row in adj[star].tolist()]
    through_zero = [(0,) + tuple(star[j] for j in c) for c in bron_kerbosch(padded(local))]
    cliques: list[tuple[int, ...]] = []
    vertices = np.arange(n)
    for base in through_zero or [(0,)]:
        rows = translates(np.array(base))
        cliques.extend(map(tuple, rows[rows[:, 0] == vertices].tolist()))
    return cliques


def all_maximal_cliques(graph: DiagGraph) -> list[tuple[int, ...]]:
    """Every maximal clique, each once as a sorted tuple: translated from
    those through vertex 0 when ``translated_cliques`` certifies the graph,
    else from Bron-Kerbosch over the whole graph."""
    cliques = translated_cliques(graph)
    return bron_kerbosch(graph.nbr) if cliques is None else cliques


def from_rows(group: GroupTable, m: int, rows) -> DiagGraph:
    """The graph on G^m whose edges are ``rows``, (u, v, tag) with u < v in
    any order, each tagged at both ends; an edge given more than once keeps
    its first row."""
    n = group.order**m
    rows = np.asarray(rows, dtype=np.int32).reshape(-1, 3)
    key, first = np.unique(rows[:, 0].astype(np.int64) * n + rows[:, 1],
                           return_index=True)
    rows = rows[first]
    # both directions of every edge, sorted: each vertex's neighbours in order
    arcs = np.concatenate([key, rows[:, 1].astype(np.int64) * n + rows[:, 0]])
    order = np.argsort(arcs)
    src, dst = np.divmod(arcs[order], n)
    degree = np.bincount(src, minlength=n)
    nbr = np.full((n, degree.max(initial=0)), n, dtype=np.int32)
    tag = np.full(nbr.shape, -1, dtype=np.int32)
    col = np.arange(len(arcs)) - (np.cumsum(degree) - degree)[src]
    nbr[src, col] = dst
    tag[src, col] = np.tile(rows[:, 2], 2)[order]
    return DiagGraph.from_neighbours(group, m, nbr, tag)


def tagged_rows(graph: DiagGraph) -> np.ndarray:
    """The edges as int32 ``(u, v, tag)`` rows, u < v, sorted by (u, v),
    each taking its tag from the smaller end: the rows ``DiagGraph`` stored
    before it kept ``nbr`` and ``tag`` alone."""
    n = graph.size
    u = np.broadcast_to(np.arange(n, dtype=np.int32)[:, None], graph.nbr.shape)
    up = (graph.nbr > u) & (graph.nbr < n)
    return np.stack([u[up], graph.nbr[up], graph.tag[up].astype(np.int32)], axis=1)


def block_rows(part: Partition, tag: int) -> np.ndarray:
    """(u, v, tag) for every pair u < v of points in one part of ``part``.

    A stable sort by block lists each block's points in increasing order;
    the blocks of each size then form one (blocks, size) array, paired up
    by the upper-triangle indices."""
    labels = np.asarray(part.block_of, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    size = np.bincount(labels)[labels[order]]
    rows = [np.empty((0, 3), dtype=np.int64)]
    for s in np.unique(size[size > 1]).tolist():
        blocks = order[size == s].reshape(-1, s)
        i, j = np.triu_indices(s, 1)
        u, v = blocks[:, i].ravel(), blocks[:, j].ravel()
        rows.append(np.stack([u, v, np.full_like(u, tag)], axis=1))
    return np.concatenate(rows)


# A block of packed starts keeps one list of Python ints within about this
# many bits (8 MiB).
PACK_BITS = 1 << 26


def packed_walk_counts(graph: DiagGraph, steps: int, paranoid: bool) -> list[int]:
    """tr(A^j) for j = 0..steps, exactly.

    Single-column iteration: tr(A^j) = n * (A^j)_00 by vertex-transitivity;
    paranoid mode sums the diagonal over every start vertex instead, with
    the starts of a block packed side by side into the bits of each entry.
    An entry of A^j e_s is at most max_degree^j, so a field of
    ``width`` bits never carries into the next one.
    """
    n = graph.size
    adjacency = adjacency_lists(graph)
    starts = range(n) if paranoid else range(1)
    width = (graph.nbr.shape[1] ** steps).bit_length() + 1
    mask = (1 << width) - 1
    per_block = max(1, PACK_BITS // (n * width))
    traces = [0] * (steps + 1)
    for lo in range(0, len(starts), per_block):
        block = starts[lo: lo + per_block]
        col = [0] * n
        for k, s in enumerate(block):
            col[s] = 1 << (width * k)
        traces[0] += len(block)
        for j in range(1, steps + 1):
            nxt = [0] * n
            for u in range(n):
                cu = col[u]
                if cu:
                    for v in adjacency[u]:
                        nxt[v] += cu
            col = nxt
            traces[j] += sum(col[s] >> (width * k) & mask for k, s in enumerate(block))
    if not paranoid:
        traces = [n * t for t in traces]
    return traces


def packed_max_eccentricity(graph: DiagGraph, bases: range) -> int:
    """The largest distance from any of ``bases`` to any vertex it reaches.

    Each vertex holds a ``reach`` and a ``frontier`` Python int with one
    bit per base; a level ORs each frontier into the neighbours and masks
    off what is already reached.
    """
    n = graph.size
    adjacency = adjacency_lists(graph)
    per_block = max(1, PACK_BITS // n)
    ecc = 0
    for lo in range(0, len(bases), per_block):
        frontier = [0] * n
        for k, b in enumerate(bases[lo: lo + per_block]):
            frontier[b] = 1 << k
        reach = frontier
        level = 0
        while True:
            nxt = [0] * n
            for u in range(n):
                fu = frontier[u]
                if fu:
                    for v in adjacency[u]:
                        nxt[v] |= fu
            frontier = [f & ~r for f, r in zip(nxt, reach)]
            if not any(frontier):
                break
            level += 1
            reach = [r | f for r, f in zip(reach, frontier)]
        ecc = max(ecc, level)
    return ecc


def pairwise_supremum(p: Partition, q: Partition) -> Partition:
    """Coarsening by connected components, one pair at a time: each point
    is linked to the first point of its block in p and in q, found by
    ``np.unique``, and the components are the blocks."""
    _check_same_ground(p, q)
    links = []
    for part in (p, q):
        _, first, block = np.unique(part.block_of, return_index=True, return_inverse=True)
        links.append(first[block])
    return Partition.from_labels(components(p.size, links))


def loop_subset_suprema(parts: list[Partition]) -> list[Partition]:
    """The subset table one mask at a time: each entry extends the entry
    without its lowest bit by one ``pairwise_supremum``."""
    if not parts:
        raise ValueError("need at least one partition")
    sup = [singletons(parts[0].size)]
    for mask in range(1, 1 << len(parts)):
        low = mask & -mask
        sup.append(pairwise_supremum(sup[mask ^ low], parts[low.bit_length() - 1]))
    return sup


def fraction_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over Fraction (small dense systems only)."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


@dataclass(frozen=True)
class PosetMatrices:
    """Zeta and Moebius matrices of a finite family of partitions.

    ``elements`` is sorted by decreasing block count (a linear extension of
    refinement), so zeta is upper unitriangular and mobius is its exact
    integer inverse.
    """

    elements: tuple[Partition, ...]
    zeta: tuple[tuple[int, ...], ...]
    mobius: tuple[tuple[int, ...], ...]

    def index_of(self, p: Partition) -> int:
        return self.elements.index(p)


def poset_matrices(elems: list[Partition]) -> PosetMatrices:
    """Exact zeta and Moebius matrices for pairwise-distinct partitions."""
    if len(set(elems)) != len(elems):
        raise ValueError("poset elements must be pairwise distinct")
    if elems and any(e.size != elems[0].size for e in elems):
        raise ValueError("poset elements must share a ground set")
    ordered = [elems[i] for i in element_order(elems)]
    n = len(ordered)
    zeta = [[0] * n for _ in range(n)]
    for i in range(n):
        zeta[i][i] = 1
        for j in range(i + 1, n):
            if finer_or_equal(ordered[i], ordered[j]):
                zeta[i][j] = 1
    # Invert the unitriangular matrix by forward substitution, exactly.
    mobius = [[0] * n for _ in range(n)]
    for i in range(n):
        mobius[i][i] = 1
        for j in range(i + 1, n):
            mobius[i][j] = -sum(
                mobius[i][k] * zeta[k][j] for k in range(i, j) if zeta[k][j]
            )
    return PosetMatrices(
        elements=tuple(ordered),
        zeta=tuple(tuple(row) for row in zeta),
        mobius=tuple(tuple(row) for row in mobius),
    )


def list_tabucol(
    graph: DiagGraph, k: int, max_moves: int = TABUCOL_MOVE_BUDGET
) -> Coloring | None:
    """``chromatic.tabucol`` over the list view: each step scans every
    vertex and colour in Python, and a move updates the neighbours' lists.

    From a seeded random assignment, each move recolours one vertex that
    has a same-coloured neighbour, choosing the move that leaves the fewest
    conflicting edges.  Moving a vertex back to a colour it left is tabu for
    r + 0.6 * (conflicting vertices) moves, r uniform in 0..9 (Galinier &
    Hao, 1999), unless it reaches fewer conflicts than ever before.  Ties
    are broken by a generator seeded with ``TABUCOL_SEED``, so the result
    depends only on the graph and k.  None if ``max_moves`` moves leave a
    conflict.
    """
    n = graph.size
    nbr = adjacency_lists(graph)
    rng = random.Random(TABUCOL_SEED)
    colour = [rng.randrange(k) for _ in range(n)]
    # seen[v][c]: neighbours of v that have colour c
    seen = [[0] * k for _ in range(n)]
    for v in range(n):
        row = seen[v]
        for w in nbr[v]:
            row[colour[w]] += 1
    conflicts = sum(seen[v][colour[v]] for v in range(n)) // 2
    fewest = conflicts
    tabu_until = [[0] * k for _ in range(n)]
    for step in range(max_moves):
        if not conflicts:
            return Coloring(colors=tuple(colour))
        best = n  # no move changes the conflicts by n or more
        moves: list[tuple[int, int]] = []
        conflicted = 0
        for v in range(n):
            row = seen[v]
            cv = colour[v]
            own = row[cv]
            if not own:
                continue
            conflicted += 1
            if min(row) - own > best:
                continue
            until = tabu_until[v]
            for c in range(k):
                delta = row[c] - own
                if delta > best or c == cv:
                    continue
                if until[c] > step and conflicts + delta >= fewest:
                    continue
                if delta < best:
                    best = delta
                    moves = [(v, c)]
                else:
                    moves.append((v, c))
        if not moves:
            continue  # every move is tabu; wait for one to expire
        v, c = moves[rng.randrange(len(moves))]
        old = colour[v]
        colour[v] = c
        for w in nbr[v]:
            row = seen[w]
            row[old] -= 1
            row[c] += 1
        conflicts += best
        fewest = min(fewest, conflicts)
        tabu_until[v][old] = step + 1 + rng.randrange(10) + int(0.6 * conflicted)
    return Coloring(colors=tuple(colour)) if not conflicts else None
