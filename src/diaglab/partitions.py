"""Set partitions in smallest-point form, with the refinement order.

A partition's labels are a read-only int32 array that labels each point by
the smallest point of its block, and only this module reads or writes that
format, apart from ``semilattice.build_q``, which builds the minimal
partitions in it directly for the constructor to check: the suprema, the
element order, the block sizes, the partitions that a map carries each onto
and the table of subset suprema all work on the arrays.  The form is what
``components`` returns and also a link that ``components`` takes, so a
supremum needs no conversion on the way in or out.

Terminology.  This module follows the refinement-order convention used
throughout the package: the supremum of partitions is the coarsening whose
blocks are the connected components of their block structures overlaid
(``join_rows``, ``subset_suprema``), and the infimum would be the common
refinement.  Parts of the design-theory literature attach the words "join"
and "meet" to these two operations the other way around; the names here are
chosen so that the diagonal semilattice, which is generated upward from its
minimal partitions, is literally closed under suprema.  See README for the
full note.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

# The blocked kernels run a block of rows (starts, bases, subsets or
# elements) side by side: the subset suprema, the Moebius values of the
# semilattice, the paranoid walk counts and the eccentricities.
# A block takes as many rows as keep its working arrays within about this
# many bytes (8 MiB), so memory does not grow with the square of the input.
BLOCK_BYTES = 1 << 23


def start_blocks(starts: range, bits_per_start) -> list[range]:
    """``starts`` cut into blocks of as many as keep one block within
    ``BLOCK_BYTES`` when each start takes ``bits_per_start`` bits, or, for
    an array of one count per start, when start j takes
    ``bits_per_start[j]``: each block then takes the starts, in order, while
    they fit, and at least one."""
    if np.ndim(bits_per_start) == 0:
        per_block = max(1, 8 * BLOCK_BYTES // bits_per_start)
        return [starts[lo: lo + per_block] for lo in range(0, len(starts), per_block)]
    ends = np.cumsum(bits_per_start)
    blocks, lo = [], 0
    while lo < len(starts):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - bits_per_start[lo]
                                             + 8 * BLOCK_BYTES, side="right")))
        blocks.append(starts[lo:hi])
        lo = hi
    return blocks


@dataclass(frozen=True, eq=False)
class Partition:
    """A partition of {0..size-1} in smallest-point form.

    ``block_of[p]`` is the smallest point of p's block, a read-only int32
    array, so two partitions are equal iff their arrays are, and the points
    labelled by themselves are one per block.  Labels given directly must
    be in this form (``from_labels`` takes any), or
    ValueError: each label lies in 0..p and labels itself, and the points
    labelled by themselves number ``block_count``.  Any integer sequence is
    stored as such an array, and a writeable array is copied rather than
    frozen under its owner.
    """

    size: int
    block_of: np.ndarray
    block_count: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.block_of, dtype=np.int32)
        points = np.arange(self.size, dtype=np.int32)
        if labels.shape != points.shape:
            raise ValueError(f"{labels.size} labels for {self.size} points")
        # as unsigned, a negative label exceeds every point
        if not (labels.view(np.uint32) <= points.view(np.uint32)).all():
            raise ValueError("a label lies outside 0..p, p its point")
        fixed = labels == points
        if not np.take(fixed, labels).all():
            raise ValueError("a label is not the smallest point of its block")
        if np.count_nonzero(fixed) != self.block_count:
            raise ValueError(f"the labels name {np.count_nonzero(fixed)} "
                             f"blocks, not {self.block_count}")
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
        """The partition of {0..n-1} into the classes of an integer
        labelling, each class labelled by its least point."""
        distinct, dense = np.unique(np.asarray(labels, dtype=np.int64),
                                    return_inverse=True)
        least = np.full(len(distinct), len(dense))
        np.minimum.at(least, dense, np.arange(len(dense)))
        return Partition(len(dense), least[dense], len(distinct))

    def blocks(self) -> list[list[int]]:
        """The points of each block in increasing order, blocks by smallest
        point.  The split at every block's end leaves one empty piece last."""
        order = np.argsort(self.block_of, kind="stable")
        return [b.tolist() for b in np.split(order, np.cumsum(self.block_sizes()))[:-1]]

    def block_sizes(self) -> np.ndarray:
        """The size of each block, blocks by smallest point.  Only the
        smallest points carry a block's label, so the others count 0.  The
        counts span the whole ground set, so that a loop over many
        partitions allocates one size of array and reuses its memory."""
        counts = np.bincount(self.block_of, minlength=self.size)
        return counts[counts > 0]

    def block_mates(self) -> np.ndarray:
        """Row v: the other points of v's block, in increasing order.

        A stable sort by label lists each block's points in increasing
        order, so the sorted points form one (blocks, size) array whose
        first column holds the labels; row v of it, found through v's
        label, holds v once, which is dropped.  Raises ``ValueError``
        unless all blocks have one size."""
        sizes = self.block_sizes()
        if (sizes != sizes[0]).any():
            raise ValueError("a minimal partition has blocks of unequal size")
        n, k = self.size, int(sizes[0])
        members = np.argsort(self.block_of, kind="stable").astype(np.int32).reshape(-1, k)
        row_of = np.empty(n, dtype=np.intp)
        row_of[members[:, 0]] = np.arange(len(members))
        members = members[row_of[self.block_of]]
        return members[members != np.arange(n)[:, None]].reshape(n, k - 1)

    def block_through(self, point: int) -> np.ndarray:
        """The points of ``point``'s block, in increasing order."""
        return np.flatnonzero(self.block_of == self.block_of[point])

    def keeps_blocks(self, maps: np.ndarray) -> bool:
        """True iff each row of ``maps``, an array of point images, sends
        every point into its own block."""
        return bool((self.block_of[maps] == self.block_of).all())


def induced_permutations(maps: np.ndarray, parts: list[Partition]) -> list[tuple[int, ...] | None]:
    """For each row of ``maps``, an array of point images, the parts that it
    maps ``parts`` onto: entry j of its tuple is the i such that the row
    sends every block of parts[j] onto a block of parts[i].  A row that is
    no permutation of the points, or that maps some part onto none of
    ``parts``, gives None.

    A permutation p maps parts[j] onto parts[i] iff the two have as many
    blocks and p keeps the points of each block of parts[j] in one block of
    parts[i]: the images of the blocks then each lie in one block of
    parts[i], as many as there are, so each fills one.  Where the parts
    meet pairwise in the partition into points, as the minimal partitions
    of G^m do, at most one parts[i] has p(0) and p(y) in one block, y the
    last point of 0's block in parts[j], the last point labelled 0; the
    first such i is tested, for every row and j at once.  Then each j is
    tested for every row at once: the labels of parts[i] at p(x) against
    those at p(r(x)), r(x) the label of x in parts[j], the smallest point
    of its block.
    """
    maps = np.asarray(maps)
    labels = np.stack([part.block_of for part in parts])
    counts = np.array([part.block_count for part in parts])
    hit = np.zeros(maps.shape, dtype=bool)
    np.put_along_axis(hit, maps, True, axis=1)
    y = labels.shape[1] - 1 - np.argmax(labels[:, ::-1] == 0, axis=1)
    # joins[i, p, j]: parts[i] has p(0) and p(y[j]) in one block, and as
    # many blocks as parts[j]
    joins = ((labels[:, maps[:, :1]] == labels[:, maps[:, y]])
             & (counts[:, None] == counts)[:, None, :])
    targets = joins.argmax(axis=0)  # [p, j]
    onto = hit.all(axis=1) & joins.any(axis=0).all(axis=1)
    for j, part in enumerate(parts):
        at_image = labels[targets[:, j, None], maps]  # [p, x]
        onto &= (at_image == at_image[:, part.block_of]).all(axis=1)
    return [tuple(row) if ok else None for row, ok in zip(targets.tolist(), onto)]


def tie_break_keys(parts: list[Partition]) -> np.ndarray:
    """One key per partition of one ground set: its labels as big-endian
    unsigned integers of the narrowest width that holds a point, viewed as
    one fixed-length void scalar.  Labels are non-negative and all keys
    have one length, so ``np.argsort`` orders the keys exactly like the
    label sequences compared lexicographically."""
    dtype = np.min_scalar_type(max(parts[0].size - 1, 0)).newbyteorder(">")
    rows = np.stack([p.block_of for p in parts], dtype=dtype, casting="unsafe")
    return rows.view(np.dtype((np.void, rows.shape[1] * dtype.itemsize)))[:, 0]


def element_order(parts: list[Partition]) -> list[int]:
    """Indices of ``parts`` sorted by (-block_count, block_of): decreasing
    block count, a linear extension of refinement, with ties broken by the
    labels, one stable sort of ``tie_break_keys`` per tied group (on an
    empty ground set all partitions are equal)."""
    by_count = sorted(range(len(parts)), key=lambda i: -parts[i].block_count)
    order: list[int] = []
    for _, tied in groupby(by_count, key=lambda i: parts[i].block_count):
        tied = np.array(list(tied))
        if len(tied) > 1 and parts[0].size:
            tied = tied[np.argsort(tie_break_keys([parts[i] for i in tied]), kind="stable")]
        order.extend(tied.tolist())
    return order


def _check_same_ground(p: Partition, q: Partition) -> None:
    if p.size != q.size:
        raise ValueError(f"ground sets differ: {p.size} vs {q.size}")


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
            if jumped.tobytes() == lab.tobytes():
                break
            lab = jumped
        if lab.tobytes() == before.tobytes():
            return lab


def _block_counts(rows: np.ndarray) -> np.ndarray:
    """The block count of each row of smallest-point labels: the number of
    points labelled by themselves."""
    return (rows == np.arange(rows.shape[1])).sum(axis=1)


def join_rows(rows: np.ndarray, part: Partition) -> np.ndarray:
    """The supremum of each row of ``rows`` with ``part``, one row each.

    ``rows`` is an (R, n) array of labellings in smallest-point form, and so
    is the result.  The rows are stacked as one ground set of R*n points,
    row r offset by r*n.  Each point is linked to its row label and to its
    label in ``part``, and one ``components`` call joins all R rows; its
    labels are smallest points again.
    """
    count, n = rows.shape
    offset = n * np.arange(count)[:, None]
    links = [(rows + offset).ravel(), (part.block_of + offset).ravel()]
    return components(count * n, links).reshape(count, n) - offset


def subset_suprema(parts: list[Partition]) -> list[Partition]:
    """The supremum of every subset of ``parts``, indexed by bitmask.

    ``sup[mask]`` is the supremum of the parts whose bits are set in
    ``mask``; ``sup[0]`` is the empty supremum, the singleton partition.
    The table is one read-only (2^len(parts), n) int32 array, and each
    entry holds a view of its row.  It is built one part at a time: the
    rows for the masks in [2^b, 2^(b+1)) are the suprema of rows [0, 2^b)
    with part b, a block of rows per ``join_rows`` call at 64 bytes a
    point.  Its rows are the partitions' labels as they stand; each row's
    block count is then counted a block of rows at a time.
    """
    if not parts:
        raise ValueError("need at least one partition")
    n = parts[0].size
    for part in parts:
        _check_same_ground(parts[0], part)
    table = np.empty((1 << len(parts), n), dtype=np.int32)
    table[0] = np.arange(n)
    bits_per_row = 512 * max(1, n)
    for b, part in enumerate(parts):
        for block in start_blocks(range(1 << b), bits_per_row):
            lo, hi = block.start, block.stop
            table[(1 << b) + lo: (1 << b) + hi] = join_rows(table[lo:hi], part)
    counts = np.concatenate([_block_counts(table[block.start:block.stop])
                             for block in start_blocks(range(len(table)), bits_per_row)])
    table.flags.writeable = False
    return [Partition(n, row, int(c)) for row, c in zip(table, counts)]
