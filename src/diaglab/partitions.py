"""Set partitions in canonical block form, with the refinement order.

A partition's labels are a read-only int32 array in canonical block form,
and only this module reads or writes that format: the lattice operations,
the refinement test and the element order all work on the arrays.

Terminology.  This module follows the refinement-order convention used
throughout the package: ``infimum`` is the common refinement (blockwise
intersections) and ``supremum`` is the coarsening whose blocks are the
connected components of the two block structures overlaid.  Parts of the
design-theory literature attach the words "join" and "meet" to these two
operations the other way around; the names here are chosen so that the
diagonal semilattice, which is generated upward from its minimal partitions,
is literally closed under ``supremum``.  See README for the full note.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np


@dataclass(frozen=True, eq=False)
class Partition:
    """A partition of {0..size-1} in canonical block form.

    ``block_of[p]`` is the block of point p, a read-only int32 array.  Block
    ids are assigned by first occurrence scanning points upward, so two
    partitions are equal iff their arrays are.  Any integer sequence may be
    given; it is stored as such an array, and a writeable array is copied
    rather than frozen under its owner.
    """

    size: int
    block_of: np.ndarray
    block_count: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.block_of, dtype=np.int32)
        if labels.flags.writeable:
            if labels is self.block_of:
                labels = labels.copy()
            labels.flags.writeable = False
        object.__setattr__(self, "block_of", labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.size == other.size and self.block_count == other.block_count
                and np.array_equal(self.block_of, other.block_of))

    def __hash__(self) -> int:
        return hash((self.size, self.block_count, self.block_of.tobytes()))

    @staticmethod
    def from_labels(labels) -> "Partition":
        """Canonicalize an integer labelling of {0..n-1}: each distinct label
        becomes the rank of its first occurrence."""
        dense = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)[1]
        canon = canonical_labels(dense)
        return Partition(len(canon), canon, int(canon.max(initial=-1)) + 1)

    @staticmethod
    def from_blocks(blocks, size: int | None = None) -> "Partition":
        points = [p for blk in blocks for p in blk]
        n = size if size is not None else (max(points) + 1 if points else 0)
        labels = [-1] * n
        for i, blk in enumerate(blocks):
            for p in blk:
                if not 0 <= p < n:
                    raise ValueError(f"point {p} outside 0..{n - 1}")
                if labels[p] != -1:
                    raise ValueError(f"point {p} appears in two blocks")
                labels[p] = i
        if any(lab == -1 for lab in labels):
            raise ValueError("blocks do not cover the ground set")
        return Partition.from_labels(labels)

    def blocks(self) -> list[list[int]]:
        """The points of each block in increasing order, blocks by id.  The
        split at every block's end leaves one empty piece last."""
        order = np.argsort(self.block_of, kind="stable")
        return [b.tolist() for b in
                np.split(order, np.cumsum(np.bincount(self.block_of)))[:-1]]

    def is_single_block(self) -> bool:
        return self.block_count == 1


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Canonical block form of a labelling of {0..n-1} by labels in 0..n-1:
    each label becomes the rank of its first occurrence, in linear time, as
    int32 (the dtype of ``Partition.block_of``, so the bytes compare).

    ``first[l]`` is the first point labelled l; the points where it is
    reached are the first occurrences, and their running count ranks them.
    """
    n = len(labels)
    points = np.arange(n)
    first = np.full(n, n)
    np.minimum.at(first, labels, points)
    at = first[labels]
    return (np.cumsum(at == points, dtype=np.int32) - 1)[at]


def tie_break_key(p: Partition) -> bytes:
    """The labels as fixed-width big-endian bytes.  Labels are non-negative
    and all keys of one ground set have the same length, so the keys order
    exactly like the label sequences compared lexicographically."""
    return p.block_of.astype(">i4").tobytes()


def element_order(parts: list[Partition]) -> list[int]:
    """Indices of ``parts`` sorted by (-block_count, block_of): decreasing
    block count, a linear extension of refinement, with ties broken by the
    labels.  The tie-break keys are built one tied group at a time."""
    by_count = sorted(range(len(parts)), key=lambda i: -parts[i].block_count)
    order: list[int] = []
    for _, tied in groupby(by_count, key=lambda i: parts[i].block_count):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda i: tie_break_key(parts[i]))
        order.extend(tied)
    return order


def singletons(n: int) -> Partition:
    """The equality partition: every part a singleton."""
    return Partition(n, np.arange(n, dtype=np.int32), n)


def single_block(n: int) -> Partition:
    """The universal partition with one part."""
    return Partition(n, np.zeros(n, dtype=np.int32), 1 if n else 0)


def _check_same_ground(p: Partition, q: Partition) -> None:
    if p.size != q.size:
        raise ValueError(f"ground sets differ: {p.size} vs {q.size}")


def finer_or_equal(p: Partition, q: Partition) -> bool:
    """True iff every block of p lies inside a single block of q."""
    _check_same_ground(p, q)
    # Each block of p takes the q-block of one of its points; p refines q
    # iff every point agrees with its block's.
    image = np.empty(p.block_count, dtype=np.int32)
    image[p.block_of] = q.block_of
    return bool((image[p.block_of] == q.block_of).all())


def infimum(p: Partition, q: Partition) -> Partition:
    """Common refinement: blocks are the non-empty pairwise intersections."""
    _check_same_ground(p, q)
    return Partition.from_labels(
        p.block_of.astype(np.int64) * q.block_count + q.block_of)


def components(n: int, links) -> np.ndarray:
    """The smallest point of each point's connected component.

    Each int array ``t`` in ``links`` joins point ``i`` to point ``t[i]``;
    a link need not be a bijection, and an array is used uncopied, in its
    own int type.  Labels start as the points themselves and only
    decrease, always to a point of the same component.  Each pass
    pulls the label of ``t[i]`` into ``i``, pushes the label of ``i`` into
    ``t[i]`` and then jumps pointers to a fixpoint.  The push is
    ``np.minimum.at`` because a fancy assignment writes only the last of
    repeated targets, so a smaller label could fail to spread.  After a
    pass that changes nothing, both ends of every link carry one label,
    and the smallest point of a component has kept its own.
    """
    links = [t if isinstance(t, np.ndarray) else np.asarray(t, dtype=np.intp)
             for t in links]
    lab = np.arange(n)
    while True:
        before = lab.copy()
        for t in links:
            np.minimum(lab, lab[t], out=lab)
            np.minimum.at(lab, t, lab)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
        if np.array_equal(lab, before):
            return lab


def supremum(p: Partition, q: Partition) -> Partition:
    """Coarsening by connected components of the two block structures.

    Each point is linked to the first point of its block in p and in q.
    The component labels are smallest points, so in sorted order they
    already number the blocks by first occurrence.
    """
    _check_same_ground(p, q)
    links = []
    for part in (p, q):
        b = part.block_of
        links.append(np.unique(b, return_index=True)[1][b])
    roots, canon = np.unique(components(p.size, links), return_inverse=True)
    return Partition(p.size, canon, len(roots))


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
