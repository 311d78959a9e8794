"""Set partitions in canonical block form, with the refinement order.

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

import numpy as np


@dataclass(frozen=True)
class Partition:
    """A partition of {0..size-1} in canonical block form.

    Block ids are assigned by first occurrence scanning points upward, so
    structural equality is plain field equality.
    """

    size: int
    block_of: tuple[int, ...]
    block_count: int

    @staticmethod
    def from_labels(labels) -> "Partition":
        """Canonicalize an integer labelling of {0..n-1}: each distinct label
        becomes the rank of its first occurrence."""
        dense = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)[1]
        canon = canonical_labels(dense)
        return Partition(len(canon), tuple(canon.tolist()), int(canon.max(initial=-1)) + 1)

    @staticmethod
    def from_blocks(blocks, size: int | None = None) -> "Partition":
        points = [p for blk in blocks for p in blk]
        n = size if size is not None else (max(points) + 1 if points else 0)
        labels = [-1] * n
        for i, blk in enumerate(blocks):
            for p in blk:
                if labels[p] != -1:
                    raise ValueError(f"point {p} appears in two blocks")
                labels[p] = i
        if any(lab == -1 for lab in labels):
            raise ValueError("blocks do not cover the ground set")
        return Partition.from_labels(labels)

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for p, b in enumerate(self.block_of):
            out[b].append(p)
        return out

    def is_single_block(self) -> bool:
        return self.block_count == 1


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Canonical block form of a labelling of {0..n-1} by labels in 0..n-1:
    each label becomes the rank of its first occurrence, in linear time.

    ``first[l]`` is the first point labelled l; the points where it is
    reached are the first occurrences, and their running count ranks them.
    """
    n = len(labels)
    points = np.arange(n)
    first = np.full(n, n)
    np.minimum.at(first, labels, points)
    at = first[labels]
    return (np.cumsum(at == points) - 1)[at]


def singletons(n: int) -> Partition:
    """The equality partition: every part a singleton."""
    return Partition(n, tuple(range(n)), n)


def single_block(n: int) -> Partition:
    """The universal partition with one part."""
    return Partition(n, (0,) * n, 1 if n else 0)


def _check_same_ground(p: Partition, q: Partition) -> None:
    if p.size != q.size:
        raise ValueError(f"ground sets differ: {p.size} vs {q.size}")


def finer_or_equal(p: Partition, q: Partition) -> bool:
    """True iff every block of p lies inside a single block of q."""
    _check_same_ground(p, q)
    seen: list[int] = [-1] * p.block_count
    for point in range(p.size):
        bp = p.block_of[point]
        bq = q.block_of[point]
        if seen[bp] == -1:
            seen[bp] = bq
        elif seen[bp] != bq:
            return False
    return True


def infimum(p: Partition, q: Partition) -> Partition:
    """Common refinement: blocks are the non-empty pairwise intersections."""
    _check_same_ground(p, q)
    return Partition.from_labels(
        np.asarray(p.block_of, dtype=np.int64) * q.block_count + q.block_of)


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
        b = np.asarray(part.block_of, dtype=np.intp)
        links.append(np.unique(b, return_index=True)[1][b])
    roots, canon = np.unique(components(p.size, links), return_inverse=True)
    return Partition(p.size, tuple(canon.tolist()), len(roots))


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
    ordered = sorted(elems, key=lambda p: (-p.block_count, p.block_of))
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
