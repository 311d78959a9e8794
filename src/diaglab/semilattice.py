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
order.  The elements are listed in ``partitions.element_order``; this module
reads a partition's labels only as the array ``block_of``, and never
converts them.
Its Moebius function has a closed form which ``verify_mobius`` checks as a
certificate: closed form times zeta is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import CapExceededError
from .groups import GroupTable
from .partitions import (
    Partition,
    element_order,
    poset_matrices,
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


def build_q(g: GroupTable, m: int, i: int, cap: int = DEFAULT_VERTEX_CAP) -> Partition:
    """The minimal partition Q_i of G^m.

    For i >= 1 the parts collect tuples agreeing in every coordinate except
    i; for i = 0 they are the diagonal left-translation classes
    {(x*g_1, ..., x*g_m) : x in G}.
    """
    if not 0 <= i <= m:
        raise ValueError(f"partition index {i} outside 0..{m}")
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
    """Q_0, Q_1, ..., Q_m in that order."""
    return [build_q(g, m, i, cap) for i in range(m + 1)]


@dataclass(frozen=True)
class DiagonalSemilattice:
    """Closure of the minimal partitions under the coarsening operation.

    ``rank`` counts steps from the singleton partition along a longest chain;
    ``hasse`` lists cover pairs (lower index, upper index) into ``elements``.
    ``minimal_indices[i]`` locates Q_i, and ``below[k]`` is the closure
    mask of element k: bit g set iff Q_g refines it.
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


def join_closure(minimals: list[Partition], sup: list[Partition]) -> DiagonalSemilattice:
    """Generate the semilattice: the suprema of all subsets of the
    generators, the empty one (the singleton partition) included.

    Every element of a join closure is the supremum of a subset of its
    generators, so the subset table holds each element at least once.
    ``sup`` is ``subset_suprema(minimals)``.  The closure masks identify the
    elements (the first subset of each distinct mask represents it) and give
    the order: s <= t iff the mask of s is a subset of the mask of t.  The
    elements are listed by (-block_count, block_of), ``element_order``.
    """
    if not minimals:
        raise ValueError("need at least one generator partition")
    n = minimals[0].size
    if any(p.size != n for p in minimals):
        raise ValueError("generators must share a ground set")
    if len(sup) != 1 << len(minimals):
        raise ValueError("sup must be the subset table of the generators")

    part_sizes = np.unique(np.concatenate([np.bincount(p.block_of) for p in minimals]))
    if len(part_sizes) != 1:
        raise ValueError("generator partitions must have constant part size")
    q = int(part_sizes[0])

    distinct, first, element_of = np.unique(
        closure_masks(sup), return_index=True, return_inverse=True)
    order = element_order([sup[f] for f in first])
    position = np.empty(len(order), dtype=np.intp)
    position[order] = np.arange(len(order))
    elements = [sup[first[e]] for e in order]
    below = distinct[order]
    count = len(elements)

    # up[i]: bitset of the j > i with elements[i] <= elements[j].  The sort
    # is a linear extension of refinement, so nothing above i precedes it.
    outside = ~below
    up = [int.from_bytes(np.packbits((below[i] & outside[i + 1:]) == 0,
                                     bitorder="little").tobytes(), "little") << (i + 1)
          for i in range(count)]

    # Transitive reduction: the lowest remaining j above i is a cover, and
    # nothing above that cover is.  Ranks are longest chains along covers;
    # rank[i] is final once every i' < i has been scanned.
    rank = [0] * count
    hasse = []
    for i in range(count):
        rest = up[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            hasse.append((i, j))
            rank[j] = max(rank[j], rank[i] + 1)
            rest &= ~(up[j] | low)

    m = len(minimals) - 1
    single = [k for k in range(count) if elements[k].is_single_block()]
    if len(single) != 1:
        raise ValueError("closure did not produce the one-block partition")
    return DiagonalSemilattice(
        m=m,
        q=q,
        size=n,
        elements=tuple(elements),
        rank=tuple(rank),
        hasse=tuple(hasse),
        e_index=0,
        u_index=single[0],
        minimal_indices=tuple(int(position[element_of[1 << g]]) for g in range(m + 1)),
        below=tuple(below.tolist()),
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
    sizes_ok = np.array([(np.bincount(s.block_of) == q ** mask.bit_count()).all()
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


def generator_zeta(sl: DiagonalSemilattice) -> np.ndarray:
    """Zeta matrix of the semilattice, read off the closure masks.

    ``below[i]`` has bit g set iff Q_g refines element i.  Every element of
    a join closure is the supremum of the generators below it, so s <= t iff
    every generator below s is below t.  No ``finer_or_equal`` is needed.
    """
    below = np.array(sl.below, dtype=np.int64)
    return (below[:, None] & ~below[None, :]) == 0


def verify_mobius(sl: DiagonalSemilattice) -> MobiusReport:
    """Check every Moebius entry of the semilattice against the closed form.

    With Z the zeta matrix and M the closed form on its comparable pairs,
    M is the Moebius matrix iff M @ Z == I: Z is unitriangular, so its
    inverse is unique, and the check is exactly as strong as inverting Z.
    Entries of M are at most m in absolute value, so every partial sum of
    the float32 product is an integer of size at most m*k; the bound is
    asserted below 2**24 on the actual entries, which keeps the sums exact.
    Only a failed check inverts Z exactly, to name the mismatching entries.
    """
    zeta = generator_zeta(sl)
    k = len(sl.elements)
    if np.tril(zeta, -1).any():
        raise AssertionError("zeta is not upper triangular in the element order")

    # One closed-form call per distinct (rank_s, rank_t, t_is_u) of a
    # comparable pair fills M through a lookup table.  A rank outside 0..m
    # is a ValueError here, as it is in the closed form.
    ranks = np.asarray(sl.rank)
    rows, cols = np.nonzero(zeta)
    dims = (sl.m + 1, sl.m + 1, 2)
    codes = np.ravel_multi_index((ranks[rows], ranks[cols], cols == sl.u_index), dims)
    present, where = np.unique(codes, return_inverse=True)
    values = np.array([mobius_closed_form(int(s), int(t), bool(u), sl.m)
                       for s, t, u in zip(*np.unravel_index(present, dims))])
    largest = int(np.abs(values).max())
    if largest * k >= 1 << 24:
        raise AssertionError(
            f"{k} elements with entries up to {largest} overflow exact float32 sums")
    closed = np.zeros((k, k), dtype=np.float32)
    closed[rows, cols] = values[where]

    # M @ Z - I, formed in place of the product: no identity matrix is built
    residue = closed @ zeta.astype(np.float32)
    residue[np.diag_indices(k)] -= 1
    if not residue.any():
        mismatches = ()
        mu_bottom_top = int(closed[sl.e_index, sl.u_index])
    else:
        mats = poset_matrices(list(sl.elements))
        # poset_matrices sorts with the same key used by join_closure, so the
        # orders coincide; guard anyway.
        if mats.elements != sl.elements:
            raise AssertionError("element order of poset_matrices differs from the closure")
        if not np.array_equal(np.array(mats.zeta, dtype=bool), zeta):
            raise AssertionError("generator zeta differs from finer_or_equal")
        exact = np.array(mats.mobius, dtype=np.int64)
        expect = closed.astype(np.int64)
        mismatches = tuple(
            (int(i), int(j), int(exact[i, j]), int(expect[i, j]))
            for i, j in np.argwhere(exact != expect)
        )
        mu_bottom_top = int(exact[sl.e_index, sl.u_index])
    return MobiusReport(
        element_count=k,
        ranks=sl.rank,
        mu_bottom_top=mu_bottom_top,
        mismatches=mismatches,
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
