from __future__ import annotations

from math import comb

import numpy as np
import pytest

from diaglab.cli import EXIT_OK, main
from diaglab.errors import CapExceededError
from diaglab.groups import cyclic
from diaglab.partitions import Partition
from diaglab.semilattice import (
    build_q,
    expected_rank_counts,
    hasse_dot,
    join_closure,
    minimal_partitions,
    mobius_closed_form,
    subset_suprema,
    verify_mobius,
    vertex_codec,
)

from conftest import group_of, minimals_of, semilattice_of
from replaced import (
    check_cartesian,
    finer_or_equal,
    from_blocks,
    poset_matrices,
    singletons,
    supremum,
    verify_semilattice_hypothesis,
)


def test_codec_examples():
    c = vertex_codec(cyclic(3), 3)
    assert c.index((1, 0, 0)) == 1
    assert c.digits[26].tolist() == [2, 2, 2]
    c2 = vertex_codec(cyclic(2), 4)
    assert c2.index((1, 1, 0, 0)) == 3
    assert c.index(c.digits).tolist() == list(range(c.size))
    for idx in range(c.size):
        assert c.index(c.digits[idx]) == idx


def test_codec_cap():
    with pytest.raises(CapExceededError):
        vertex_codec(cyclic(2), 4, cap=8)


def test_codec_refuses_the_trivial_group():
    with pytest.raises(ValueError, match="order must be >= 2"):
        vertex_codec(cyclic(1), 2)
    with pytest.raises(ValueError, match="order must be >= 2"):
        build_q(cyclic(1), 2, 0)


@pytest.mark.parametrize("spec,m", [("C3", 3), ("C2", 5)])
def test_elements_are_named_without_hashing_a_partition(monkeypatch, capsys, spec, m):
    """Closure masks identify the elements, so no Partition is ever hashed."""
    def refuse(self):
        raise RuntimeError("a Partition was hashed")

    monkeypatch.setattr(Partition, "__hash__", refuse)
    g = group_of(spec)
    qs = minimal_partitions(g, m)
    sup = subset_suprema(qs)
    assert verify_semilattice_hypothesis(sup, g.order)
    assert len(join_closure(qs, sup).elements) == sum(expected_rank_counts(m).values())
    assert main(["check-all", "--group", spec, "--m", str(m)]) == EXIT_OK
    with pytest.raises(RuntimeError, match="hashed"):
        hash(qs[0])


def test_build_q_coordinate_blocks():
    p = build_q(cyclic(2), 2, 1)
    assert p == from_blocks([[0, 1], [2, 3]])


def test_build_q_diagonal_blocks():
    p = build_q(cyclic(2), 2, 0)
    assert p == from_blocks([[0, 3], [1, 2]])


def test_build_q_diagonal_c3_m3():
    p = build_q(cyclic(3), 3, 0)
    assert p.block_count == 9
    blocks = {tuple(b) for b in p.blocks()}
    assert (0, 13, 26) in blocks  # (0,0,0), (1,1,1), (2,2,2)
    assert all(len(b) == 3 for b in blocks)


def test_join_closure_counts_c2_m2():
    sl = semilattice_of("C2", 2)
    assert len(sl.elements) == 5
    assert sorted(sl.rank) == [0, 1, 1, 1, 2]


def test_join_closure_counts_c2_m3():
    sl = semilattice_of("C2", 3)
    counts = {}
    for r in sl.rank:
        counts[r] = counts.get(r, 0) + 1
    assert counts == {0: 1, 1: 4, 2: 6, 3: 1}
    assert len(sl.elements) == 12


def test_join_closure_c3_m2_supremum_of_minimals():
    sl = semilattice_of("C3", 2)
    assert len(sl.elements) == 5
    qs = minimal_partitions(cyclic(3), 2)
    for i in range(3):
        for j in range(i + 1, 3):
            assert supremum(qs[i], qs[j]).block_count == 1


def test_check_cartesian():
    qs = minimal_partitions(cyclic(3), 2)
    assert check_cartesian([qs[1], qs[2]], 3)
    assert check_cartesian([qs[0], qs[2]], 3)
    assert not check_cartesian([qs[1], qs[1]], 3)


@pytest.mark.parametrize("blocks", [[[0, 1], [2], [3]], [[0, 1, 2], [3]], [[0], [1], [2], [3]]])
def test_check_cartesian_needs_parts_of_size_q(blocks):
    # the largest part may have q points while a smaller one does not
    assert not check_cartesian([from_blocks(blocks)], 2)
    assert check_cartesian([from_blocks([[0, 1], [2, 3]])], 2)


@pytest.mark.parametrize("spec,m", [("C3", 3), ("C2", 2), ("C4", 2)])
def test_semilattice_hypothesis_examples(spec, m):
    assert verify_semilattice_hypothesis(subset_suprema(minimals_of(spec, m)),
                                         group_of(spec).order)


def test_mobius_closed_form_values():
    assert mobius_closed_form(0, 3, True, 3) == -3
    assert mobius_closed_form(0, 2, True, 2) == 2
    assert mobius_closed_form(1, 1, False, 3) == 1
    assert mobius_closed_form(2, 2, False, 3) == 1
    assert mobius_closed_form(3, 3, True, 3) == 1  # mu(top, top)
    assert mobius_closed_form(1, 2, False, 3) == -1
    with pytest.raises(ValueError):
        mobius_closed_form(2, 1, False, 3)


def test_verify_mobius_c2_m2_full_matrix():
    rep = verify_mobius(semilattice_of("C2", 2))
    assert rep.ok
    assert rep.element_count == 5
    assert rep.mu_bottom_top == 2


def test_verify_mobius_c3_m3_interval_values():
    sl = semilattice_of("C3", 3)
    rep = verify_mobius(sl)
    assert rep.ok
    assert rep.mu_bottom_top == -3
    mats = poset_matrices(list(sl.elements))
    for qi in sl.minimal_indices:
        assert mats.mobius[qi][sl.u_index] == 2


def test_verify_mobius_c2_m4():
    rep = verify_mobius(semilattice_of("C2", 4))
    assert rep.ok
    assert rep.mu_bottom_top == 4


def test_rank_matches_part_size():
    for spec, m in [("C2", 3), ("C3", 2), ("C4", 2), ("C3", 3)]:
        sl = semilattice_of(spec, m)
        for k, p in enumerate(sl.elements):
            sizes = {len(b) for b in p.blocks()}
            assert sizes == {sl.q ** sl.rank[k]}


def test_rank_two_intervals_are_boolean():
    for spec, m in [("C2", 3), ("C3", 3), ("C2", 4)]:
        sl = semilattice_of(spec, m)
        for j, p in enumerate(sl.elements):
            if sl.rank[j] != 2:
                continue
            below = [
                i for i in range(len(sl.elements))
                if finer_or_equal(sl.elements[i], p)
            ]
            assert len(below) == 4


def test_interval_above_rank_one_is_lower_dimensional():
    # the interval [S, top] for rank-1 S looks like the dimension m-1 lattice:
    # same rank-size vector, same Moebius values (ranks shifted down by one)
    for spec, m in [("C2", 3), ("C3", 3), ("C2", 4)]:
        sl = semilattice_of(spec, m)
        small_counts = sorted(semilattice_of(spec, m - 1).rank)
        mats = poset_matrices(list(sl.elements))
        for s in range(len(sl.elements)):
            if sl.rank[s] != 1:
                continue
            above = [
                t for t in range(len(sl.elements))
                if finer_or_equal(sl.elements[s], sl.elements[t])
            ]
            assert sorted(sl.rank[t] - 1 for t in above) == small_counts
            for t in above:
                want = mobius_closed_form(
                    0, sl.rank[t] - 1, t == sl.u_index, m - 1
                )
                assert mats.mobius[s][t] == want


def test_subset_suprema_rank_and_part_size():
    for spec, m in [("C3", 3), ("C2", 4)]:
        g = group_of(spec)
        qs = minimal_partitions(g, m)
        n = g.order**m
        for mask in range(1 << (m + 1)):
            chosen = [qs[i] for i in range(m + 1) if mask >> i & 1]
            if len(chosen) > m - 1:
                continue
            s = singletons(n)
            for p in chosen:
                s = supremum(s, p)
            assert {len(b) for b in s.blocks()} == {g.order ** len(chosen)}


def test_expected_rank_counts_formula():
    assert expected_rank_counts(3) == {0: 1, 1: 4, 2: 6, 3: 1}
    assert expected_rank_counts(2) == {0: 1, 1: 3, 2: 1}
    for m in range(1, 6):
        counts = expected_rank_counts(m)
        assert sum(counts.values()) == sum(comb(m + 1, i) for i in range(m)) + 1


def test_join_closure_rejects_mixed_ground_sets():
    with pytest.raises(ValueError):
        # the ground sets are checked before the subset table is read
        join_closure([build_q(cyclic(2), 2, 0), build_q(cyclic(2), 3, 0)], [])


def test_hasse_dot_output():
    sl = semilattice_of("C2", 2)
    dot = hasse_dot(sl)
    assert dot.startswith("digraph")
    assert dot.count("->") == len(sl.hasse) == 6
    assert '"E (rank 0)"' in dot and '"U (rank 2)"' in dot


def test_c2_m8_semilattice_and_mobius():
    qs = minimal_partitions(cyclic(2), 8)
    sl = join_closure(qs, subset_suprema(qs))
    assert len(sl.elements) == 503
    counts = {}
    for r in sl.rank:
        counts[r] = counts.get(r, 0) + 1
    assert counts == expected_rank_counts(8)
    assert verify_mobius(sl).ok


@pytest.mark.parametrize("spec,m", [("C3", 3), ("S3", 2), ("C2", 5), ("Q8", 2)])
def test_closure_elements_hold_read_only_int32_labels(spec, m):
    for p in semilattice_of(spec, m).elements:
        assert type(p.block_of) is np.ndarray and p.block_of.dtype == np.int32
        assert not p.block_of.flags.writeable


def test_grid_rank_counts(grid):
    for spec, m in grid:
        sl = semilattice_of(spec, m)
        counts = {}
        for r in sl.rank:
            counts[r] = counts.get(r, 0) + 1
        assert counts == expected_rank_counts(m), (spec, m)
