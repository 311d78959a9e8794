"""Diagonal semilattices: the minimal partitions of G^m and their closure.

The ground set is G^m encoded through a positional codec (coordinate 1 least
significant).  The m+1 minimal partitions are the coordinate partitions
Q_1..Q_m (tuples agreeing everywhere except one coordinate) and the diagonal
partition Q_0 (orbits of simultaneous left translation).  Their closure under
the coarsening operation, together with the singleton partition, is the
diagonal semilattice.  Its elements are named by closure masks: the mask of
a subset S of the generators has bit g set iff Q_g refines sup(S), equal
masks name equal elements, and mask inclusion is the order.  This module
never reads a partition's labels: it sees a partition through its block
count, its block sizes, its block through vertex 0, whether a map keeps
every point in its block and which partition a map carries it onto.

The masks come from the block count of sup(S) for every S, by one of two
routes.  ``semilattice_and_hypothesis`` takes the route through vertex 0
where it can: each Q_i is the partition of G^m into the cosets B_i·v of a
subgroup B_i, its block through vertex 0 (a coordinate subgroup, or the
diagonal).  ``rooted_block_sizes`` certifies that from the partitions and
the group table.  Then sup(S) is the partition into the cosets of B_S, the
subgroup that the B_i with i in S generate, and it has n/|B_S| blocks of
|B_S| points; ``rooted_block_sizes`` grows B_S, a batch of masks per numpy
call.  Under ``paranoid``, or where the certificate fails, the masks come
from the table of subset suprema (``partitions.subset_suprema``, built one
generator at a time in blocks of rows), and the elements are the table's
partitions, listed in ``partitions.element_order``; the ``semilattice``
and ``mobius`` commands always take that route.  Both routes give the same
masks.

On the route through vertex 0 only one mask per orbit of the diagonal
maps is grown.  The coordinate transposition, the coordinate cycle and the
inversion twist (``diagonal_maps``) are certified, by a full label test
per partition, to map each Q_j onto some Q_pi(j).  Such a map sigma is a
bijection of the points that carries the blocks of the Q_j in S onto those
of the Q_pi(j), so it maps sup(S) onto sup(pi S), and the two have the same
block count and sizes.  So one mask per orbit, the least (``mask_orbits``),
suffices: B_S is grown only along the prefixes of those masks, m+1
one-column steps where the maps induce S_(m+1), and the counts, the
closure masks, the ranks, the Cartesian check and the Moebius values are
read from them.  Where the certificate fails, every mask is its own orbit,
and the same code walks every mask and sums over every element.  The maps
come from the definition of D(G, m) and are checked against the
partitions.

The table of closure masks ``cl`` is the semilattice's one order structure.
It is a closure operator on the subsets of the generators: extensive (each
generator of S refines sup(S)), monotone (S within T gives sup(S) <= sup(T))
and idempotent (every generator in cl(S) is below sup(S), so
sup(cl(S)) = sup(S)).  Its closed masks are the elements.  The covers of an
element A are the minimal masks among cl(A + g), one per generator g, and
its Moebius values follow from Rota's closure theorem (1964):
mu(A, T) = sum of (-1)^|B - A| over the masks B containing A with
cl(B) = T.  ``verify_mobius`` computes the values this way, exactly, for
the least element of each orbit, and compares each with the closed form.
The Hasse diagram is built only on first use (``DiagonalSemilattice.hasse``).
The masks come from the block counts of the partitions alone, so the
closed form enters the check only as the values it is compared with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from math import comb

import numpy as np

from .errors import CapExceededError
from .groups import GroupTable
from .partitions import (
    BLOCK_BYTES,
    Partition,
    components,
    element_order,
    induced_permutations,
    start_blocks,
    subset_suprema,
)

DEFAULT_VERTEX_CAP = 65536


@dataclass(frozen=True)
class VertexCodec:
    """Bijection between 0..q^m-1 and m-tuples over 0..q-1, coordinate 1
    least significant.

    ``digits`` is the whole bijection as a (q^m, m) table, row v the tuple
    of vertex v; every coordinatewise map of G^m is a gather of a group
    table over it, followed by ``index``.
    """

    q: int
    m: int

    @property
    def size(self) -> int:
        return self.q**self.m

    @cached_property
    def digits(self) -> np.ndarray:
        weight = self.q ** np.arange(self.m)
        table = np.arange(self.size)[:, None] // weight % self.q
        table.flags.writeable = False
        return table

    def index(self, digits) -> np.ndarray:
        """Vertex numbers of the rows of an (..., m) digit array; one row
        gives one number."""
        return np.asarray(digits) @ self.q ** np.arange(self.m)


def vertex_codec(g: GroupTable, m: int, cap: int = DEFAULT_VERTEX_CAP) -> VertexCodec:
    """The codec of G^m, refusing a trivial group, m < 1 or more than
    ``cap`` vertices."""
    if g.order < 2:
        raise ValueError("group order must be >= 2")
    if m < 1:
        raise ValueError("dimension m must be >= 1")
    if g.order**m > cap:
        raise CapExceededError(
            f"{g.order}^{m} = {g.order ** m} vertices exceeds cap {cap}"
        )
    return VertexCodec(q=g.order, m=m)


def vertex_products(g: GroupTable, codec: VertexCodec, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vertex numbers of the products x*v in G^m, for broadcastable arrays
    ``x`` and ``v`` of vertex numbers of ``codec``.  Coordinate i adds
    q^i (x_i v_i), one gather from the group table scaled by q^i.  For a
    map of every vertex, ``coordinatewise`` is the faster route."""
    columns, q = codec.digits.T, codec.q
    flat = g.mul_array.ravel()
    out = 0
    for column, weight in zip(columns, q ** np.arange(codec.m)):
        out = out + (flat * weight)[column[x] * q + column[v]]
    return out


def coordinatewise(codec: VertexCodec, maps: np.ndarray, dtype=np.intp) -> np.ndarray:
    """Row p: the vertex number of the image of every vertex y of ``codec``
    under the coordinatewise map that sends y_i to ``maps[p, i, y_i]``, for
    a (P, m, q) array ``maps`` of group elements.

    Row p is the sum over i of q^i maps[p, i, y_i].  Coordinate m-1 is the
    most significant, so the row is grown from it down: each coordinate is
    one broadcast add of its scaled (P, q) table, and the result reshaped,
    with no gather over the vertices.  No maps give a (0, q^m) array."""
    maps = np.asarray(maps)
    scaled = (maps * codec.q ** np.arange(codec.m)[:, None]).astype(dtype)
    out = scaled[:, -1]
    for i in range(codec.m - 2, -1, -1):
        out = out[:, :, None] + scaled[:, i, None, :]
        out = out.reshape(len(maps), codec.q ** (codec.m - i))
    return out


def build_q(g: GroupTable, m: int, i: int, cap: int = DEFAULT_VERTEX_CAP, *,
            codec: VertexCodec | None = None) -> Partition:
    """The minimal partition Q_i of G^m, built in smallest-point form.

    For i >= 1 the parts collect tuples agreeing in every coordinate except
    i, and the least point of v's part sets that coordinate to the
    identity: v - v_i q^(i-1).  For i = 0 they are the diagonal
    left-translation classes {(x*g_1, ..., x*g_m) : x in G}, and the least
    point of v's part is v_m^-1·v, the one point of it whose most
    significant coordinate is the identity.  The points whose last
    coordinate is c run from c q^(m-1) up, so their labels are one row of
    ``coordinatewise``: the left multiplication by c^-1 of the first m-1
    coordinates.  ``codec`` is ``vertex_codec(g, m, cap)`` where the
    caller has it.
    """
    if not 0 <= i <= m:
        raise ValueError(f"partition index {i} outside 0..{m}")
    if codec is None:
        codec = vertex_codec(g, m, cap)
    n, q = codec.size, codec.q
    if i >= 1:
        step = q ** (i - 1)
        least = np.arange(n, dtype=np.int32).reshape(-1, q, step)[:, :1]
        labels = np.broadcast_to(least, (n // (q * step), q, step)).reshape(n)
    elif m == 1:
        labels = np.zeros(n, dtype=np.int32)
    else:
        left = g.mul_array[g.inv_array][:, None, :].repeat(m - 1, axis=1)
        labels = coordinatewise(VertexCodec(q=q, m=m - 1), left, np.int32).reshape(n)
    return Partition(n, labels, n // q)


def minimal_partitions(g: GroupTable, m: int, cap: int = DEFAULT_VERTEX_CAP) -> list[Partition]:
    """Q_0, Q_1, ..., Q_m in that order, over one codec."""
    codec = vertex_codec(g, m, cap)
    return [build_q(g, m, i, codec=codec) for i in range(m + 1)]


@dataclass(frozen=True)
class DiagonalSemilattice:
    """Closure of the minimal partitions under the coarsening operation.

    ``rank`` counts steps from the singleton partition along a longest chain;
    ``hasse`` lists cover pairs (lower index, upper index) into the elements,
    built on first use.  ``minimal_indices[i]`` locates Q_i, and
    ``below[k]`` is the closure mask of element k: bit g set iff Q_g
    refines it.  ``cl[S]`` is the closure mask of the supremum of the
    generators in the subset mask S, the semilattice's one order structure.
    ``elements`` holds the partitions, in the order of ``below``, where they
    come from the table of subset suprema, and is None where the
    semilattice was read from the blocks through vertex 0.  ``orbit[S]`` is
    the least mask of S's orbit under the diagonal maps (``mask_orbits``);
    None, as on the table's route, makes every mask its own orbit.
    """

    m: int
    q: int
    size: int
    elements: tuple[Partition, ...] | None
    rank: tuple[int, ...]
    e_index: int
    u_index: int
    minimal_indices: tuple[int, ...]
    below: tuple[int, ...]
    cl: tuple[int, ...]
    orbit: tuple[int, ...] | None = None

    @cached_property
    def hasse(self) -> tuple[tuple[int, int], ...]:
        """The cover pairs, sorted: ``_upper_covers`` of every element."""
        cl, below = np.asarray(self.cl), np.asarray(self.below)
        lower, upper = _upper_covers(cl, below)
        codes = np.unique(lower * len(below) + _element_index(cl, below)[upper])
        return tuple(map(tuple, np.stack(np.divmod(codes, len(below)), axis=1).tolist()))

    def orbit_labels(self) -> np.ndarray:
        """``orbit`` as an array, one label per mask."""
        return np.arange(len(self.cl)) if self.orbit is None else np.asarray(self.orbit)


def _masks_from_counts(count: np.ndarray) -> np.ndarray:
    """The closure mask of every subset of the generators, indexed by mask,
    from ``count[S]``, the block count of sup(S).

    Since sup(S + g) is the supremum of sup(S) and Q_g, it is never finer
    than sup(S), and it equals sup(S) (Q_g refines sup(S)) exactly when the
    two have the same block count: one vectorised comparison per generator,
    with no hashing.
    """
    masks = np.arange(len(count))
    cl = np.zeros(len(count), dtype=np.int64)
    for g in range(len(count).bit_length() - 1):
        cl |= (count[masks | 1 << g] == count).astype(np.int64) << g
    return cl


def closure_masks(sup: list[Partition]) -> np.ndarray:
    """The closure mask of every subset of the generators, indexed by mask.

    ``sup`` is ``subset_suprema`` of generators Q_0, Q_1, ...; bit g of
    ``cl[S]`` is set iff Q_g refines sup[S], read off the block counts
    (``_masks_from_counts``).

    A closure mask names its element and its place in the order:
    sup(S) <= sup(T) iff cl[S] is a subset of cl[T], and sup(S) == sup(T)
    iff cl[S] == cl[T].  (If cl[S] lies in cl[T], every generator of S is
    below sup(T), and so is their supremum.)
    """
    return _masks_from_counts(np.array([p.block_count for p in sup]))


def _element_index(cl: np.ndarray, below: np.ndarray) -> np.ndarray:
    """index[mask]: the element whose closure mask is ``mask``, else -1."""
    index = np.full(len(cl), -1)
    index[below] = np.arange(len(below))
    return index


def _upper_covers(cl: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covers of the elements with closed masks ``lower``, read off the
    closure-mask table ``cl``: pairs of a position in ``lower`` and the
    closed mask of a cover, by position, a cover reached by two generators
    listed twice.

    Each cover T of A is cl(A + g) for a generator g outside A: for any g in
    T but not in A, A < cl(A + g) <= T.  So the covers of A are the minimal
    masks among its m+1 candidates cl(A + g); for g in A the candidate is A
    itself and is left out.
    """
    cand = cl[lower[:, None] | 1 << np.arange((len(cl) - 1).bit_length())]
    proper = cand != lower[:, None]
    # smaller[a, g, h]: candidate h of element a lies strictly inside candidate g
    smaller = (((cand[:, None, :] & ~cand[:, :, None]) == 0)
               & (cand[:, None, :] != cand[:, :, None]) & proper[:, None, :])
    at, g = np.nonzero(proper & ~smaller.any(axis=2))
    return at, cand[at, g]


def _ranks(cl: np.ndarray, below: np.ndarray, orbit: np.ndarray) -> np.ndarray:
    """The rank of each element with closed mask in ``below``: the length of
    a longest chain of covers up to it.

    A permutation pi of the generators that the diagonal maps induce keeps
    the closure, cl(pi S) = pi cl(S), and so the covers and the ranks.  If L
    is covered by T and pi maps L to A, the least mask of its orbit, then A
    is covered by pi T.  So the covers of the closed representatives of the
    orbits (``_upper_covers``) link every orbit to the orbits covering it,
    and ranks are relaxed on those links, one step at a time, by orbit.
    """
    reps = below[orbit[below] == below]
    at, upper = _upper_covers(cl, reps)
    lower, upper = reps[at], orbit[upper]
    rank = np.zeros(len(cl), dtype=np.int64)
    while True:
        longer = rank.copy()
        np.maximum.at(longer, upper, rank[lower] + 1)
        if (longer == rank).all():
            return rank[orbit[below]]
        rank = longer


def _from_counts(count: np.ndarray, q: int, n: int, order,
                 orbit: np.ndarray | None = None) -> DiagonalSemilattice:
    """The semilattice, without its partitions, whose generators' subset
    suprema have the block counts ``count``, indexed by mask, on ``n``
    points, the generators' parts having size ``q``.

    The closure masks identify the elements, and each element is named by
    its closed mask, a fixed point of ``cl``: sup(cl(S)) = sup(S).
    ``order`` maps the closed masks, in increasing order, to the positions
    of the elements in the listing; it must put the most blocks first, so
    that the singleton partition comes first.  ``orbit`` labels each mask by
    the least mask of its orbit (``mask_orbits``; None for every mask its
    own), and the ranks come from the covers of the closed representatives
    (``_ranks``).
    """
    cl = _masks_from_counts(count)
    closed = np.flatnonzero(cl == np.arange(len(cl)))
    below = closed[order(closed)]
    rank = _ranks(cl, below, np.arange(len(cl)) if orbit is None else orbit)
    single = np.flatnonzero(count[below] == 1)
    if len(single) != 1:
        raise ValueError("closure did not produce the one-block partition")
    index = _element_index(cl, below)
    generators = len(count).bit_length() - 1
    return DiagonalSemilattice(
        m=generators - 1,
        q=q,
        size=n,
        elements=None,
        rank=tuple(rank.tolist()),
        e_index=0,
        u_index=int(single[0]),
        minimal_indices=tuple(index[cl[1 << np.arange(generators)]].tolist()),
        below=tuple(below.tolist()),
        cl=tuple(cl.tolist()),
        orbit=None if orbit is None else tuple(orbit.tolist()),
    )


def join_closure(minimals: list[Partition], sup: list[Partition]) -> DiagonalSemilattice:
    """Generate the semilattice: the suprema of all subsets of the
    generators, the empty one (the singleton partition) included.

    Every element of a join closure is the supremum of a subset of its
    generators, so the subset table holds each element at least once.
    ``sup`` is ``subset_suprema(minimals)``.  The closure masks identify the
    elements and give the order: s <= t iff the mask of s is a subset of the
    mask of t (``_from_counts``).  The elements are the table's partitions
    of the closed masks, listed by (-block_count, block_of),
    ``element_order``.
    """
    if not minimals:
        raise ValueError("need at least one generator partition")
    n = minimals[0].size
    if any(p.size != n for p in minimals):
        raise ValueError("generators must share a ground set")
    if len(sup) != 1 << len(minimals):
        raise ValueError("sup must be the subset table of the generators")

    part_sizes = np.unique(np.concatenate([p.block_sizes() for p in minimals]))
    if len(part_sizes) != 1:
        raise ValueError("generator partitions must have constant part size")
    sl = _from_counts(np.array([p.block_count for p in sup]), int(part_sizes[0]), n,
                      lambda closed: element_order([sup[c] for c in closed]))
    return replace(sl, elements=tuple(sup[c] for c in sl.below))


def _left_multiplications(g: GroupTable, codec: VertexCodec, points: np.ndarray) -> np.ndarray:
    """Row j: the vertex numbers of points[j]·v for every vertex v, int32:
    coordinate i of v goes to its product with that of points[j]."""
    return coordinatewise(codec, g.mul_array[codec.digits[points]], np.int32)


def diagonal_maps(g: GroupTable, codec: VertexCodec) -> list[tuple[str, np.ndarray]]:
    """The maps of G^m, the points of ``codec``, that permute the minimal
    partitions, each with its tag and as an image array: the transposition
    of coordinates 1 and 2 (m >= 2), the cycle of the coordinates (m >= 3)
    and the inversion twist (g_1, ..., g_m) -> (g_1^-1, g_1^-1 g_2, ...,
    g_1^-1 g_m).  The transposition swaps Q_1 and Q_2, the cycle cycles
    Q_1..Q_m and the twist swaps Q_0 and Q_1, so together they induce
    S_(m+1) on the partitions; the diagonal group's other generators fix
    each of them.
    """
    m, d = codec.m, codec.digits
    maps = []
    if m >= 2:
        maps.append(("coord-perm", codec.index(d[:, [1, 0, *range(2, m)]])))
        if m >= 3:
            maps.append(("coord-perm", codec.index(np.roll(d, -1, axis=1))))
    twisted = g.mul_array[g.inv_array[d[:, :1]], d]
    twisted[:, 0] = g.inv_array[d[:, 0]]
    maps.append(("inversion-map", codec.index(twisted)))
    return maps


def mask_orbits(g: GroupTable, minimals: list[Partition]) -> np.ndarray:
    """The least mask of the orbit of each subset mask of ``minimals``,
    indexed by mask, under the permutations of the partitions that the
    ``diagonal_maps`` of G^m induce.

    The certificate: each map sends every partition onto one of the list,
    and the induced maps of indices are permutations, as a full label test
    per partition shows (``partitions.induced_permutations``).  A map sigma
    that sends each Q_j onto Q_pi(j) is a bijection of the points that
    carries the blocks of the Q_j in S onto those of the Q_pi(j), and so
    sup(S) onto sup(pi S): the two have the same block sizes and count.
    The orbits are the components of one link per map, from S to pi S, in
    one ``components`` call, which labels each by its least mask.  Where
    the certificate fails, every mask is its own orbit.
    """
    k, n = len(minimals), minimals[0].size
    codec = VertexCodec(q=g.order, m=k - 1)
    links = []
    if k > 1 and codec.size == n:
        maps = np.stack([image for _, image in diagonal_maps(g, codec)])
        induced = induced_permutations(maps, minimals)
        if all(row is not None and sorted(row) == list(range(k)) for row in induced):
            bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
            links = [bits @ (1 << np.array(row)) for row in induced]
    return components(1 << k, links)


def _prefix_closure(orbit: np.ndarray) -> np.ndarray:
    """Whether each mask is a prefix S & (2^b - 1) of a mask S least in its
    orbit, indexed by mask."""
    reps = np.flatnonzero(orbit == np.arange(len(orbit)))
    needed = np.zeros(len(orbit), dtype=bool)
    for b in range(len(orbit).bit_length()):
        needed[reps & (1 << b) - 1] = True
    return needed


def rooted_block_sizes(g: GroupTable, minimals: list[Partition],
                       needed: np.ndarray | None = None) -> np.ndarray | None:
    """|B_S|, the size of the block through vertex 0 of the supremum of the
    partitions in each subset S of ``minimals``, indexed by mask, where
    their blocks are cosets; else None.  Only the masks of ``needed``, a
    boolean array by mask that holds the prefixes S & (2^b - 1) of each of
    its masks S, are grown, every mask by default, and the others read 0.

    The certificate: for each partition Q_i, with B_i its block through
    vertex 0 (the identity), left multiplication by each point h of B_i
    keeps every vertex v in its block, and the blocks number n/|B_i|.  Then
    each block holds the coset B_i·v of each of its points, so it has at
    least |B_i| points and, by the count, exactly those: the blocks are the
    cosets B_i·v.  So B_i = B_i·h for h in B_i, and B_i is a subgroup.  (The
    minimal partitions of G^m are the cosets of a coordinate subgroup, or
    of the diagonal.)  A partition into the cosets of a subgroup is mapped
    onto itself by every right translation, and so is every supremum of
    such partitions: sup(S) is the coset partition of B_S, the subgroup that
    the B_i with i in S generate.

    A boolean membership column per mask, over the vertices, holds B_S.
    B_(S+b), for b above every generator of S, is grown as B_b·B_S: y lies
    in it iff h·y lies in B_S for some h in B_b, one gather of the rows per
    point h, shared by a batch of masks.  The product is a subgroup, and
    then B_(S+b), iff it holds B_S·B_b, that is, iff it holds x·h for every
    h in B_b and every x of a B_i with i in S, the generators of B_S: one
    gather of a few rows.  Else the result is None.  (For the minimal
    partitions of G^m the product is always a subgroup: B_0 is the first
    generator, and every later B_b is a coordinate subgroup, normal in G^m.)
    |B_b·B_S| = |B_b| |B_S| / |B_b ∩ B_S|.

    The masks with generators below ``low`` form one batch within
    ``BLOCK_BYTES``, built a generator at a time as ``subset_suprema``
    builds its table.  Each set of higher generators, walked depth first in
    increasing order, grows the needed columns of that whole batch at once,
    and each depth keeps one batch.
    """
    k, n = len(minimals), minimals[0].size
    codec = VertexCodec(q=g.order, m=k - 1)
    if codec.size != n or any(p.size != n for p in minimals):
        return None
    blocks = [p.block_through(0) for p in minimals]
    owner = np.repeat(np.arange(k), [len(blk) for blk in blocks])
    ends = np.cumsum([0] + [len(blk) for blk in blocks])
    # row j: left multiplication by the j-th point of the blocks through 0
    left = _left_multiplications(g, codec, np.concatenate(blocks))
    if not all(p.block_count * len(blocks[i]) == n and p.keeps_blocks(left[ends[i]:ends[i + 1]])
               for i, p in enumerate(minimals)):
        return None
    if needed is None:
        needed = np.ones(1 << k, dtype=bool)
    sizes = np.zeros(1 << k, dtype=np.int64)
    sizes[0] = 1

    def grow(rows: np.ndarray, masks: np.ndarray, b: int):
        """B_b·B_S for the B_S in the columns of ``rows``, S in ``masks``,
        with S + b needed, recording their sizes: those columns and their
        masks S + b, or None if one of them is no subgroup."""
        keep = needed[masks | 1 << b]
        if not keep.all():
            rows, masks = rows[:, keep], masks[keep]
        if not len(masks):
            return rows, masks
        # np.take: fancy indexing copies short rows one at a time
        product = None
        for block in start_blocks(range(ends[b], ends[b + 1]), 4 * rows.size):
            moved = np.take(rows, left[block.start:block.stop], axis=0)
            moved = np.logical_or.reduce(moved, axis=0)
            product = moved if product is None else product | moved
        # x·h for the x of each B_i, i in S, and the h of B_b
        inside = masks >> owner[:, None, None] & 1 == 1
        if not (np.take(product, left[:, blocks[b]], axis=0) | ~inside).all():
            return None
        meet = np.count_nonzero(np.take(rows, blocks[b], axis=0), axis=0)
        sizes[masks | 1 << b] = len(blocks[b]) * sizes[masks] // meet
        return product, masks | 1 << b

    low = min(k, max(0, (BLOCK_BYTES // n).bit_length() - 1))
    rows = np.zeros((n, 1 << low), dtype=bool)
    rows[0, 0] = True
    for b in range(low):
        grown = grow(rows[:, :1 << b], np.arange(1 << b), b)
        if grown is None:
            return None
        rows[:, grown[1]] = grown[0]
    stack = [(rows, np.arange(1 << low), low)]
    while stack:
        rows, masks, start = stack.pop()
        for b in range(start, k):
            grown = grow(rows, masks, b)
            if grown is None:
                return None
            if b + 1 < k and len(grown[1]):
                stack.append((*grown, b + 1))
    return sizes


def _generates_cartesian(sized: np.ndarray, cl: np.ndarray, domains: list[int]) -> bool:
    """True iff each generator set D in ``domains`` (a mask) generates a
    Cartesian lattice: for every S within D, the parts of sup(S) have size
    q^|S| (``sized[S]``), and the suprema are pairwise distinct.

    Distinctness is read off the closure masks ``cl``: sup(S) == sup(T) for
    some T != S within D iff a generator of D outside S lies below sup(S),
    so the suprema are distinct iff cl[S] & D == S for every S.
    """
    masks = np.arange(len(cl))
    for d in domains:
        inside = masks[(masks & ~d) == 0]
        if not (sized[inside].all() and ((cl[inside] & d) == inside).all()):
            return False
    return True


def _parts_of_size(sup: list[Partition], q: int) -> np.ndarray:
    """Whether the parts of sup[S] all have size q^|S|, for each mask S."""
    return np.array([(s.block_sizes() == q ** mask.bit_count()).all()
                     for mask, s in enumerate(sup)])


def _m_subsets(full: int) -> list[int]:
    """The masks of ``full`` with one bit cleared."""
    return [full & ~(1 << drop) for drop in range(full.bit_length())]


def check_cartesian(parts: list[Partition], q: int) -> bool:
    """True iff the given partitions generate a Cartesian lattice: every
    subset supremum has parts of size exactly q^|subset| and all 2^m suprema
    are pairwise distinct."""
    if not parts:
        return True
    sup = subset_suprema(parts)
    return _generates_cartesian(_parts_of_size(sup, q), closure_masks(sup), [len(sup) - 1])


def verify_semilattice_hypothesis(sup: list[Partition], q: int) -> bool:
    """Check that every m-subset of {Q_0..Q_m} generates a Cartesian lattice
    with parts of size q^k, where ``sup`` is ``subset_suprema`` of the m+1
    minimal partitions.

    One subset table over all m+1 minimal partitions serves every m-subset:
    the subsets of the one without Q_drop are the masks without bit drop.
    """
    return _generates_cartesian(_parts_of_size(sup, q), closure_masks(sup),
                                _m_subsets(len(sup) - 1))


def semilattice_and_hypothesis(g: GroupTable, minimals: list[Partition],
                               paranoid: bool = False) -> tuple[DiagonalSemilattice, bool]:
    """The join closure of ``minimals``, the minimal partitions of G^m, and
    whether every m-subset of them generates a Cartesian lattice
    (``verify_semilattice_hypothesis``).

    Both come from the blocks through vertex 0 (``rooted_block_sizes``)
    where it can, grown only for the prefixes of the least mask of each
    orbit of the diagonal maps (``mask_orbits``) and read for every other
    mask from its orbit's: sup(S) has n/|B_S| blocks of |B_S| points, so
    its parts have size q^|S| iff |B_S| does, and one m-subset per orbit is
    checked.  The elements are listed by (-block count, closed mask), a
    linear extension of the order, with no partition built.  Under
    ``paranoid``, or where ``rooted_block_sizes`` gives None, both come
    from the table of subset suprema instead.
    """
    sizes = None
    if not paranoid:
        orbit = mask_orbits(g, minimals)
        sizes = rooted_block_sizes(g, minimals, _prefix_closure(orbit))
    if sizes is None:
        sup = subset_suprema(minimals)
        return join_closure(minimals, sup), verify_semilattice_hypothesis(sup, g.order)
    sizes = sizes[orbit]
    part_sizes = np.unique(sizes[1 << np.arange(len(minimals))])
    if len(part_sizes) != 1:
        raise ValueError("generator partitions must have constant part size")
    count = minimals[0].size // sizes
    sl = _from_counts(count, int(part_sizes[0]), minimals[0].size,
                      lambda closed: np.lexsort((closed, -count[closed])), orbit)
    sized = sizes == np.power(g.order, np.bitwise_count(np.arange(len(sizes))), dtype=np.int64)
    domains = [d for d in _m_subsets(len(sizes) - 1) if orbit[d] == d]
    return sl, _generates_cartesian(sized, np.asarray(sl.cl), domains)


def mobius_closed_form(rank_s: int, rank_t: int, t_is_u: bool, m: int) -> int:
    """Closed-form Moebius value between elements of ranks rank_s <= rank_t.

    Intervals not ending at the top element are Boolean, giving
    (-1)^(rank_t - rank_s); intervals ending at the top element U give
    (-1)^(m - rank_s) * (m - rank_s).  The value mu(U, U) = 1 is forced by
    unitriangularity (the alternating-sign product formula does not cover
    the degenerate one-element interval).
    """
    if not 0 <= rank_s <= rank_t <= m:
        raise ValueError(f"bad ranks {rank_s}, {rank_t} for dimension {m}")
    if not t_is_u:
        return (-1) ** (rank_t - rank_s)
    if rank_s == m:
        return 1
    s = m - rank_s
    return (-1) ** s * s


@dataclass(frozen=True)
class MobiusReport:
    """Outcome of checking the closed-form Moebius matrix against zeta.

    ``mismatches`` lists the failing pairs whose lower element is the least
    of its orbit, every failing pair where each orbit is one element, as on
    the table's route; ``mismatch_count`` counts every failing pair.
    """

    element_count: int
    ranks: tuple[int, ...]
    mu_bottom_top: int
    mismatches: tuple[tuple[int, int, int, int], ...]  # (i, j, exact, closed)
    mismatch_count: int

    @property
    def ok(self) -> bool:
        return not self.mismatch_count

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": self.element_count,
                "ranks": list(self.ranks),
                "mu_bottom_top": self.mu_bottom_top,
                "mismatches": [list(t) for t in self.mismatches],
            },
            indent=2,
        )


def _mobius_blocks(cl: np.ndarray, below: np.ndarray, orbit: np.ndarray):
    """Yield, batch by batch of lower elements, every comparable pair
    (lower, upper) of element indices with its exact Moebius value, for the
    lower elements whose closed mask is the least of its orbit, ``orbit``
    labelling each mask by that of its orbit.

    ``cl`` is a closure operator on the subsets of the generators, and the
    elements are its closed masks, so by Rota's closure theorem
    mu(A, T) = sum of (-1)^|B - A| over the masks B containing A with
    cl(B) = T.  The masks B are A + s for the subsets s of the f generators
    outside A, each s deposited bit by bit into them, and they increase
    with s, so one ``searchsorted`` finds the position of each cl(B) among
    them, and two ``bincount`` calls, one per parity of |s|, give the
    signed sums in int64.  A batch holds elements of any f, 2^f terms each,
    within ``BLOCK_BYTES``: at most 3^(m+1) terms in all.  The closed masks
    B are exactly the elements above A, so every comparable pair with a
    listed lower element is found.
    """
    index = _element_index(cl, below)
    width = (len(cl) - 1).bit_length()
    rows = np.flatnonzero(orbit[below] == below)
    free = (len(cl) - 1) & ~below[rows]
    terms = np.left_shift(1, np.bitwise_count(free), dtype=np.int64)
    # about a dozen int64 arrays per term
    for block in start_blocks(range(len(rows)), 768 * terms):
        lower, size = rows[block.start:block.stop], terms[block.start:block.stop]
        owner = np.repeat(np.arange(len(lower)), size)
        subset = np.arange(len(owner)) - (np.cumsum(size) - size)[owner]
        ups, spare, rest = below[lower][owner], free[block.start:block.stop][owner], subset.copy()
        # deposit the bits of each subset, lowest first, into the free generators
        for g in range(width):
            bit = spare >> g & 1
            ups = ups | (rest & bit) << g
            rest >>= bit
        shift = owner << width
        keys = ups + shift
        targets = cl[ups] + shift
        at = np.searchsorted(keys, targets)
        if not np.array_equal(keys[np.minimum(at, len(keys) - 1)], targets):
            raise AssertionError("cl(B) does not contain the element A that B contains")
        odd = np.bitwise_count(subset) & 1 == 1
        mu = (np.bincount(at[~odd], minlength=len(keys))
              - np.bincount(at[odd], minlength=len(keys)))
        closed = targets == keys
        yield lower[owner[closed]], index[ups[closed]], mu[closed]


def verify_mobius(sl: DiagonalSemilattice) -> MobiusReport:
    """Compute the Moebius values of the semilattice exactly from its
    closure masks (``_mobius_blocks``) and compare each with the closed form.

    The values mu(A, T) are computed for the lower elements A that are the
    least of their orbits under the diagonal maps, every element where
    each orbit is one.  A map that induces pi keeps the closure, so it
    carries the interval [A, T] onto [pi A, pi T], keeping mu and the ranks
    that the closed form reads; a failing pair (A, T) then stands for
    |orbit(A)| failing pairs, one per element of A's orbit, and is counted
    that many times.  A comparable pair whose lower element comes later in
    the element order fails the check.  The closed form enters only in the
    comparison.  A rank outside 0..m is a ValueError here, as it is in the
    closed form.
    """
    ranks = np.asarray(sl.rank)
    cl, below, orbit = np.asarray(sl.cl), np.asarray(sl.below), sl.orbit_labels()
    dims = (sl.m + 1, sl.m + 1, 2)
    found = []
    for lower, upper, exact in _mobius_blocks(cl, below, orbit):
        if (lower > upper).any():
            raise AssertionError("the order is not upper triangular in the element order")
        # one closed-form call per distinct (rank_s, rank_t, t_is_u) in the batch
        codes = np.ravel_multi_index((ranks[lower], ranks[upper], upper == sl.u_index), dims)
        present, where = np.unique(codes, return_inverse=True)
        values = np.array([mobius_closed_form(int(s), int(t), bool(u), sl.m)
                           for s, t, u in zip(*np.unravel_index(present, dims))], dtype=np.int64)
        closed_form = values[where]
        keep = (exact != closed_form) | (lower == sl.e_index) & (upper == sl.u_index)
        found.append(np.stack([lower, upper, exact, closed_form], axis=1)[keep])
    found = np.concatenate(found)
    found = found[np.lexsort((found[:, 1], found[:, 0]))]
    bottom_top = (found[:, 0] == sl.e_index) & (found[:, 1] == sl.u_index)
    wrong = found[found[:, 2] != found[:, 3]]
    orbit_size = np.bincount(orbit, minlength=len(cl))[below]
    return MobiusReport(
        element_count=len(sl.below),
        ranks=sl.rank,
        mu_bottom_top=int(found[bottom_top, 2][0]),
        mismatches=tuple(map(tuple, wrong.tolist())),
        mismatch_count=int(orbit_size[wrong[:, 0]].sum()),
    )


def expected_rank_counts(m: int) -> dict[int, int]:
    """Element counts per rank: C(m+1, i) for i < m, and the single top."""
    counts = {i: comb(m + 1, i) for i in range(m)}
    counts[m] = 1
    return counts


def hasse_dot(sl: DiagonalSemilattice) -> str:
    """Render the Hasse diagram as a DOT digraph (edges point upward)."""
    names = {}
    for k in range(len(sl.below)):
        if k == sl.e_index:
            names[k] = "E"
        elif k == sl.u_index:
            names[k] = "U"
        elif k in sl.minimal_indices:
            names[k] = f"Q{sl.minimal_indices.index(k)}"
        else:
            names[k] = f"P{k}"
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for k in range(len(sl.below)):
        lines.append(
            f'  n{k} [label="{names[k]} (rank {sl.rank[k]})"];'
        )
    for i, j in sl.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
