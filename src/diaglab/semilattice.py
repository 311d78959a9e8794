"""Diagonal semilattices: the minimal partitions of G^m and their closure.

The ground set is G^m encoded through a positional codec (coordinate 1 least
significant).  The m+1 minimal partitions are the coordinate partitions
Q_1..Q_m (tuples agreeing everywhere except one coordinate) and the diagonal
partition Q_0 (orbits of simultaneous left translation).  Their closure under
the coarsening operation, together with the singleton partition, is the
diagonal semilattice.  Its elements are read off the table of subset suprema
(``partitions.subset_suprema``, built one generator at a time in blocks of
rows) through closure masks: the mask of a subset S has bit g set iff Q_g
refines sup(S), equal masks name equal elements, and mask inclusion is the
order.  The elements are listed in ``partitions.element_order``.  This
module never reads a partition's labels: it sees a partition only through
its block count and its block sizes.

The table of closure masks ``cl`` is the semilattice's one order structure.
It is a closure operator on the subsets of the generators: extensive (each
generator of S refines sup(S)), monotone (S within T gives sup(S) <= sup(T))
and idempotent (every generator in cl(S) is below sup(S), so
sup(cl(S)) = sup(S)).  Its closed masks are the elements.  The covers of an
element A are the minimal masks among cl(A + g), one per generator g, and
its Moebius values follow from Rota's closure theorem (1964):
mu(A, T) = sum of (-1)^|B - A| over the masks B containing A with
cl(B) = T.  ``verify_mobius`` computes every value this way, exactly, and
compares each with the closed form.  The masks come from the block counts
of the partitions alone, so the closed form enters the check only as the
values it is compared with.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import CapExceededError
from .groups import GroupTable
from .partitions import Partition, element_order, start_blocks, subset_suprema

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


def build_q(g: GroupTable, m: int, i: int, cap: int = DEFAULT_VERTEX_CAP, *,
            codec: VertexCodec | None = None) -> Partition:
    """The minimal partition Q_i of G^m.

    For i >= 1 the parts collect tuples agreeing in every coordinate except
    i; for i = 0 they are the diagonal left-translation classes
    {(x*g_1, ..., x*g_m) : x in G}.  ``codec`` is ``vertex_codec(g, m,
    cap)`` where the caller has it.
    """
    if not 0 <= i <= m:
        raise ValueError(f"partition index {i} outside 0..{m}")
    if codec is None:
        codec = vertex_codec(g, m, cap)
    if i >= 1:
        labels = codec.digits.copy()
        labels[:, i - 1] = 0
    else:
        # normal form: translate the first coordinate to the identity
        mul, inv = np.asarray(g.mul), np.asarray(g.inv)
        labels = mul[inv[codec.digits[:, :1]], codec.digits]
    return Partition.from_labels(codec.index(labels))


def minimal_partitions(g: GroupTable, m: int, cap: int = DEFAULT_VERTEX_CAP) -> list[Partition]:
    """Q_0, Q_1, ..., Q_m in that order, over one codec."""
    codec = vertex_codec(g, m, cap)
    return [build_q(g, m, i, codec=codec) for i in range(m + 1)]


@dataclass(frozen=True)
class DiagonalSemilattice:
    """Closure of the minimal partitions under the coarsening operation.

    ``rank`` counts steps from the singleton partition along a longest chain;
    ``hasse`` lists cover pairs (lower index, upper index) into ``elements``.
    ``minimal_indices[i]`` locates Q_i, and ``below[k]`` is the closure
    mask of element k: bit g set iff Q_g refines it.  ``cl[S]`` is the
    closure mask of the supremum of the generators in the subset mask S,
    the semilattice's one order structure.
    """

    m: int
    q: int
    size: int
    elements: tuple[Partition, ...]
    rank: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]
    e_index: int
    u_index: int
    minimal_indices: tuple[int, ...]
    below: tuple[int, ...]
    cl: tuple[int, ...]


def closure_masks(sup: list[Partition]) -> np.ndarray:
    """The closure mask of every subset of the generators, indexed by mask.

    ``sup`` is ``subset_suprema`` of generators Q_0, Q_1, ...; bit g of
    ``cl[S]`` is set iff Q_g refines sup[S].  Since sup[S | 1 << g] is the
    supremum of sup[S] and Q_g, it is never finer than sup[S], and it equals
    sup[S] (Q_g refines sup[S]) exactly when the two have the same block
    count: one vectorised comparison per generator, with no hashing.

    A closure mask names its element and its place in the order:
    sup(S) <= sup(T) iff cl[S] is a subset of cl[T], and sup(S) == sup(T)
    iff cl[S] == cl[T].  (If cl[S] lies in cl[T], every generator of S is
    below sup(T), and so is their supremum.)
    """
    count = np.array([p.block_count for p in sup])
    masks = np.arange(len(sup))
    cl = np.zeros(len(sup), dtype=np.int64)
    for g in range(len(sup).bit_length() - 1):
        cl |= (count[masks | 1 << g] == count).astype(np.int64) << g
    return cl


def _element_index(cl: np.ndarray, below: np.ndarray) -> np.ndarray:
    """index[mask]: the element whose closure mask is ``mask``, else -1."""
    index = np.full(len(cl), -1)
    index[below] = np.arange(len(below))
    return index


def _covers(cl: np.ndarray, below: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and Hasse covers of the elements with closure masks ``below``,
    read off the closure-mask table ``cl``.

    Each cover T of A is cl(A + g) for a generator g outside A: for any g in
    T but not in A, A < cl(A + g) <= T.  So the covers of A are the minimal
    masks among its m+1 candidates cl(A + g); for g in A the candidate is A
    itself and is left out.  The covers come sorted by (lower, upper).
    Ranks are longest chains along them, one relaxation per step.
    """
    index = _element_index(cl, below)
    cand = cl[below[:, None] | 1 << np.arange((len(cl) - 1).bit_length())]
    proper = cand != below[:, None]
    # smaller[a, g, h]: candidate h of element a lies strictly inside candidate g
    smaller = (((cand[:, None, :] & ~cand[:, :, None]) == 0)
               & (cand[:, None, :] != cand[:, :, None]) & proper[:, None, :])
    lower, g = np.nonzero(proper & ~smaller.any(axis=2))
    codes = np.unique(lower * len(below) + index[cand[lower, g]])
    hasse = np.stack(np.divmod(codes, len(below)), axis=1)
    rank = np.zeros(len(below), dtype=np.int64)
    while True:
        longer = rank.copy()
        np.maximum.at(longer, hasse[:, 1], rank[hasse[:, 0]] + 1)
        if (longer == rank).all():
            return rank, hasse
        rank = longer


def join_closure(minimals: list[Partition], sup: list[Partition]) -> DiagonalSemilattice:
    """Generate the semilattice: the suprema of all subsets of the
    generators, the empty one (the singleton partition) included.

    Every element of a join closure is the supremum of a subset of its
    generators, so the subset table holds each element at least once.
    ``sup`` is ``subset_suprema(minimals)``.  The closure masks identify the
    elements (the first subset of each distinct mask represents it) and give
    the order: s <= t iff the mask of s is a subset of the mask of t.  The
    elements are listed by (-block_count, block_of), ``element_order``, and
    their covers and ranks come from the masks alone (``_covers``).
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
    q = int(part_sizes[0])

    cl = closure_masks(sup)
    distinct, first, element_of = np.unique(cl, return_index=True, return_inverse=True)
    order = element_order([sup[f] for f in first])
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    elements = [sup[first[e]] for e in order]
    below = distinct[order]
    rank, hasse = _covers(cl, below)

    m = len(minimals) - 1
    single = [k for k, p in enumerate(elements) if p.is_single_block()]
    if len(single) != 1:
        raise ValueError("closure did not produce the one-block partition")
    return DiagonalSemilattice(
        m=m,
        q=q,
        size=n,
        elements=tuple(elements),
        rank=tuple(rank.tolist()),
        hasse=tuple(map(tuple, hasse.tolist())),
        e_index=0,
        u_index=single[0],
        minimal_indices=tuple(int(position[element_of[1 << g]]) for g in range(m + 1)),
        below=tuple(below.tolist()),
        cl=tuple(cl.tolist()),
    )


def _generates_cartesian(sup: list[Partition], q: int, domains: list[int]) -> bool:
    """True iff each generator set D in ``domains`` (a mask into the subset
    table ``sup``) generates a Cartesian lattice: for every S within D, the
    parts of sup[S] have size q^|S|, and the suprema are pairwise distinct.

    Distinctness is read off the closure masks: sup(S) == sup(T) for some
    T != S within D iff a generator of D outside S lies below sup(S), so the
    suprema are distinct iff cl[S] & D == S for every S.  Part sizes are
    tested once per mask and reused for every D.
    """
    masks = np.arange(len(sup))
    sizes_ok = np.array([(s.block_sizes() == q ** mask.bit_count()).all()
                         for mask, s in enumerate(sup)])
    cl = closure_masks(sup)
    for d in domains:
        inside = masks[(masks & ~d) == 0]
        if not (sizes_ok[inside].all() and ((cl[inside] & d) == inside).all()):
            return False
    return True


def check_cartesian(parts: list[Partition], q: int) -> bool:
    """True iff the given partitions generate a Cartesian lattice: every
    subset supremum has parts of size exactly q^|subset| and all 2^m suprema
    are pairwise distinct."""
    if not parts:
        return True
    return _generates_cartesian(subset_suprema(parts), q, [(1 << len(parts)) - 1])


def verify_semilattice_hypothesis(sup: list[Partition], q: int) -> bool:
    """Check that every m-subset of {Q_0..Q_m} generates a Cartesian lattice
    with parts of size q^k, where ``sup`` is ``subset_suprema`` of the m+1
    minimal partitions.

    One subset table over all m+1 minimal partitions serves every m-subset:
    the subsets of the one without Q_drop are the masks without bit drop.
    """
    full = len(sup) - 1
    return _generates_cartesian(
        sup, q, [full & ~(1 << drop) for drop in range(full.bit_length())])


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
    """Outcome of checking the closed-form Moebius matrix against zeta."""

    element_count: int
    ranks: tuple[int, ...]
    mu_bottom_top: int
    mismatches: tuple[tuple[int, int, int, int], ...]  # (i, j, exact, closed)

    @property
    def ok(self) -> bool:
        return not self.mismatches

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


def _mobius_blocks(cl: np.ndarray, below: np.ndarray):
    """Yield, block by block of elements, every comparable pair
    (lower, upper) of element indices with its exact Moebius value.

    ``cl`` is a closure operator on the subsets of the generators, and the
    elements are its closed masks, so by Rota's closure theorem
    mu(A, T) = sum of (-1)^|B - A| over the masks B containing A with
    cl(B) = T.  The masks B are A + s for the subsets s of the generators
    outside A, and they increase with s, so one ``searchsorted`` finds the
    position of each cl(B) among them, and two ``bincount`` calls, one per
    parity of |s|, give the signed sums in int64.  A block holds elements
    with the same number of free generators, within ``BLOCK_BYTES``: at
    most 3^(m+1) terms in all.  The closed masks B are exactly the elements
    above A, so every comparable pair is listed.
    """
    index = _element_index(cl, below)
    width = (len(cl) - 1).bit_length()
    free = (len(cl) - 1) & ~below
    nfree = np.bitwise_count(free)
    for f in np.unique(nfree).tolist():
        same = np.flatnonzero(nfree == f)
        subsets = np.arange(1 << f)
        odd = np.bitwise_count(subsets) & 1 == 1
        # about eight int64 arrays of 2^f terms per element
        for block in start_blocks(range(len(same)), 512 << f):
            rows = same[block.start:block.stop]
            # the free generators of each row, ascending, deposited by each s
            pos = np.nonzero(free[rows, None] >> np.arange(width) & 1)[1].reshape(len(rows), f)
            ups = below[rows, None] + ((subsets[:, None] >> np.arange(f) & 1) @ (1 << pos.T)).T
            shift = (np.arange(len(rows)) << width)[:, None]
            keys = (ups + shift).ravel()
            targets = (cl[ups] + shift).ravel()
            at = np.searchsorted(keys, targets)
            if not np.array_equal(keys[np.minimum(at, len(keys) - 1)], targets):
                raise AssertionError("cl(B) does not contain the element A that B contains")
            at = at.reshape(ups.shape)
            mu = (np.bincount(at[:, ~odd].ravel(), minlength=len(keys))
                  - np.bincount(at[:, odd].ravel(), minlength=len(keys)))
            closed = targets == keys
            yield np.repeat(rows, 1 << f)[closed], index[ups.ravel()[closed]], mu[closed]


def verify_mobius(sl: DiagonalSemilattice) -> MobiusReport:
    """Compute every Moebius value of the semilattice exactly from its
    closure masks (``_mobius_blocks``) and compare each with the closed form.

    A comparable pair whose lower element comes later in the element order
    fails the check.  The closed form enters only in the comparison.  A
    rank outside 0..m is a ValueError here, as it is in the closed form.
    """
    ranks = np.asarray(sl.rank)
    dims = (sl.m + 1, sl.m + 1, 2)
    found = []
    for lower, upper, exact in _mobius_blocks(np.asarray(sl.cl), np.asarray(sl.below)):
        if (lower > upper).any():
            raise AssertionError("the order is not upper triangular in the element order")
        # one closed-form call per distinct (rank_s, rank_t, t_is_u) in the block
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
    return MobiusReport(
        element_count=len(sl.elements),
        ranks=sl.rank,
        mu_bottom_top=int(found[bottom_top, 2][0]),
        mismatches=tuple(map(tuple, found[found[:, 2] != found[:, 3]].tolist())),
    )


def expected_rank_counts(m: int) -> dict[int, int]:
    """Element counts per rank: C(m+1, i) for i < m, and the single top."""
    counts = {i: comb(m + 1, i) for i in range(m)}
    counts[m] = 1
    return counts


def hasse_dot(sl: DiagonalSemilattice) -> str:
    """Render the Hasse diagram as a DOT digraph (edges point upward)."""
    names = {}
    for k, p in enumerate(sl.elements):
        if k == sl.e_index:
            names[k] = "E"
        elif k == sl.u_index:
            names[k] = "U"
        elif k in sl.minimal_indices:
            names[k] = f"Q{sl.minimal_indices.index(k)}"
        else:
            names[k] = f"P{k}"
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for k in range(len(sl.elements)):
        lines.append(
            f'  n{k} [label="{names[k]} (rank {sl.rank[k]})"];'
        )
    for i, j in sl.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)
