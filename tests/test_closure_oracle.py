"""The subset-table closure against the pairwise worklist it replaced.

``worklist_join_closure`` closes the generators under pairwise suprema and
orders the result with a dense ``finer_or_equal`` table, from which it also
reads each element's closure mask and, as meets of those, the closure mask
of every subset; ``per_subset_cartesian`` recomputes every
subset supremum from scratch.  Both share no code with the subset table and
the closure masks in ``diaglab.semilattice``, so the library's results must
match them field for field.  ``closure_masks`` itself is checked against one
``finer_or_equal`` test per (generator, subset).
"""

from __future__ import annotations

from functools import reduce
from operator import and_

import pytest

from diaglab.partitions import Partition, finer_or_equal, singletons, supremum
from diaglab.semilattice import (
    DiagonalSemilattice,
    check_cartesian,
    closure_masks,
    join_closure,
    minimal_partitions,
    subset_suprema,
    verify_semilattice_hypothesis,
)

from conftest import GRID, group_of


def worklist_join_closure(
        minimals: list[Partition]) -> tuple[DiagonalSemilattice, tuple[tuple[int, int], ...]]:
    """The semilattice and its cover pairs, which the library builds on
    first use."""
    n = minimals[0].size
    q = {len(blk) for p in minimals for blk in p.blocks()}.pop()

    elements: list[Partition] = [singletons(n)]
    index: dict[Partition, int] = {elements[0]: 0}
    for p in minimals:
        if p not in index:
            index[p] = len(elements)
            elements.append(p)

    frontier = list(range(1, len(elements)))
    done: set[tuple[int, int]] = set()
    while frontier:
        next_frontier = []
        for i in frontier:
            for j in range(1, len(elements)):
                pair = (i, j) if i < j else (j, i)
                if i == j or pair in done:
                    continue
                done.add(pair)
                s = supremum(elements[i], elements[j])
                if s not in index:
                    index[s] = len(elements)
                    elements.append(s)
                    next_frontier.append(len(elements) - 1)
        frontier = next_frontier

    elements.sort(key=lambda p: (-p.block_count, tuple(p.block_of.tolist())))
    count = len(elements)
    leq = [[False] * count for _ in range(count)]
    for i in range(count):
        leq[i][i] = True
        for j in range(i + 1, count):
            leq[i][j] = finer_or_equal(elements[i], elements[j])

    rank = [0] * count
    for j in range(count):
        for i in range(j):
            if leq[i][j]:
                rank[j] = max(rank[j], rank[i] + 1)

    hasse = [
        (i, j)
        for i in range(count)
        for j in range(i + 1, count)
        if leq[i][j] and not any(leq[i][k] and leq[k][j] for k in range(i + 1, j))
    ]
    # the closure of S is the meet of the closed masks containing it
    below = [sum(finer_or_equal(q_g, e) << g for g, q_g in enumerate(minimals))
             for e in elements]
    cl = [reduce(and_, (b for b in below if s & b == s)) for s in range(1 << len(minimals))]
    return DiagonalSemilattice(
        m=len(minimals) - 1,
        q=q,
        size=n,
        elements=tuple(elements),
        rank=tuple(rank),
        e_index=0,
        u_index=next(k for k, p in enumerate(elements) if p.is_single_block()),
        minimal_indices=tuple(elements.index(p) for p in minimals),
        below=tuple(below),
        cl=tuple(cl),
    ), tuple(hasse)


def per_subset_cartesian(parts: list[Partition], q: int) -> bool:
    m = len(parts)
    seen: set[Partition] = set()
    for mask in range(1 << m):
        chosen = [parts[i] for i in range(m) if mask >> i & 1]
        s = singletons(parts[0].size)
        for p in chosen:
            s = supremum(s, p)
        if any(len(blk) != q ** len(chosen) for blk in s.blocks()):
            return False
        if s in seen:
            return False
        seen.add(s)
    return True


def test_subset_suprema_table():
    qs = minimal_partitions(group_of("C3"), 3)
    sup = subset_suprema(qs)
    assert len(sup) == 16
    assert sup[0] == singletons(27)
    for i, p in enumerate(qs):
        assert sup[1 << i] == p
    assert sup[0b0110] == supremum(qs[1], qs[2])
    assert sup[0b1111].is_single_block()


def masks_by_refinement(parts: list[Partition]) -> list[int]:
    sup = subset_suprema(parts)
    return [sum(finer_or_equal(q_g, s) << g for g, q_g in enumerate(parts)) for s in sup]


@pytest.mark.parametrize("spec,m", [inst for inst in GRID if inst[1] <= 5])
def test_closure_masks_match_refinement(spec, m):
    qs = minimal_partitions(group_of(spec), m)
    assert closure_masks(subset_suprema(qs)).tolist() == masks_by_refinement(qs)


def test_closure_masks_with_repeated_parts():
    qs = minimal_partitions(group_of("C3"), 2)
    for parts in ([qs[1], qs[1]], [qs[0], qs[1], qs[0]], [qs[0], qs[0], qs[0]]):
        cl = closure_masks(subset_suprema(parts))
        assert cl.tolist() == masks_by_refinement(parts)
    # [Q0, Q1, Q0]: Q0 below anything containing either copy of Q0
    assert closure_masks(subset_suprema([qs[0], qs[1], qs[0]])).tolist() == [
        0b000, 0b101, 0b010, 0b111, 0b101, 0b101, 0b111, 0b111]


@pytest.mark.parametrize("spec,m", [inst for inst in GRID if inst[1] <= 5])
def test_join_closure_matches_worklist(spec, m):
    qs = minimal_partitions(group_of(spec), m)
    sl, hasse = worklist_join_closure(qs)
    got = join_closure(qs, subset_suprema(qs))
    assert got == sl
    assert got.hasse == hasse


@pytest.mark.parametrize("spec,m", [("C2", 3), ("C3", 3), ("C4", 2), ("S3", 2),
                                    ("C2xC2", 3), ("C2", 5)])
def test_check_cartesian_matches_per_subset(spec, m):
    g = group_of(spec)
    qs = minimal_partitions(g, m)
    subsets = [[qs[i] for i in range(m + 1) if i != drop] for drop in range(m + 1)]
    subsets += [qs, qs[:1], [qs[1], qs[1]], [qs[0], qs[1], qs[0]]]
    for parts in subsets:
        assert check_cartesian(parts, g.order) == per_subset_cartesian(parts, g.order)
    assert verify_semilattice_hypothesis(subset_suprema(qs), g.order) == all(
        per_subset_cartesian(parts, g.order) for parts in subsets[: m + 1]
    )


def test_check_cartesian_duplicate_part():
    qs = minimal_partitions(group_of("C3"), 2)
    assert check_cartesian([qs[1], qs[1]], 3) is False
    assert per_subset_cartesian([qs[1], qs[1]], 3) is False
    assert check_cartesian([qs[1], qs[2]], 3) is True
    assert check_cartesian(qs, 3) is False


def test_part_sizes_and_distinctness_each_decide():
    """With q >= 2, parts of size q^|S| already force distinct suprema, so
    each test is pinned here where the other one passes."""
    hexagon = [Partition.from_blocks([[0, 1], [2, 3], [4, 5]]),
               Partition.from_blocks([[1, 2], [3, 4], [5, 0]])]
    # E, the two matchings and U are distinct, but U has one part of 6, not 4
    assert check_cartesian(hexagon, 2) is False
    assert per_subset_cartesian(hexagon, 2) is False
    assert verify_semilattice_hypothesis(subset_suprema(hexagon + hexagon[:1]), 2) is False
    # every part has size 1^|S|, but the generator E repeats the empty supremum
    e = singletons(4)
    for parts in ([e], [e, e]):
        assert check_cartesian(parts, 1) is False
        assert per_subset_cartesian(parts, 1) is False
    assert verify_semilattice_hypothesis(subset_suprema([e, e]), 1) is False
