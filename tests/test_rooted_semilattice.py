"""The semilattice through vertex 0 against the table of subset suprema.

``semilattice.rooted_block_sizes`` reads the size of the block through
vertex 0 of every subset supremum from the blocks through 0 of the minimal
partitions, once their blocks are certified to be cosets; the table
(``subset_suprema``) builds every supremum as a partition.  The block
counts, closure masks, ranks, covers and Moebius reports must agree, and
partitions that fail the certificate, or whose blocks through 0 generate
no subgroup as a product, must send ``check-all`` to the table.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from diaglab.cli import main
from diaglab.partitions import Partition
from diaglab.semilattice import (
    join_closure,
    rooted_block_sizes,
    semilattice_and_hypothesis,
    subset_suprema,
    verify_mobius,
)

from conftest import GRID, SYMMETRY_EXTRAS, fields_of, group_of, minimals_of, semilattice_of
from replaced import closure_masks, from_blocks, verify_semilattice_hypothesis

INSTANCES = [inst for inst in GRID if 2 <= inst[1] <= 4] + SYMMETRY_EXTRAS


def covers_by_mask(sl) -> set[tuple[int, int]]:
    below = sl.below.tolist()
    return {(below[i], below[j]) for i, j in sl.hasse}


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_rooted_semilattice_matches_the_table(spec, m):
    g, minimals = group_of(spec), minimals_of(spec, m)
    sup = subset_suprema(minimals)
    sizes = rooted_block_sizes(g, minimals)
    assert sizes is not None
    assert (minimals[0].size // sizes).tolist() == [p.block_count for p in sup]

    sl, ok = semilattice_and_hypothesis(g, minimals)
    table = semilattice_of(spec, m)
    assert sl.elements is None
    assert sl.cl.tolist() == table.cl.tolist() == closure_masks(sup).tolist()
    assert ok == verify_semilattice_hypothesis(sup, g.order)
    # one order listed two ways: by (-block count, mask) and by the labels
    counts = minimals[0].size // sizes
    below = sl.below.tolist()
    assert below == sorted(below, key=lambda b: (-counts[b], b))
    assert (sorted(zip(below, sl.rank.tolist()))
            == sorted(zip(table.below.tolist(), table.rank.tolist())))
    assert covers_by_mask(sl) == covers_by_mask(table)
    # element 0 is the singleton partition on both routes
    assert sl.below[0] == table.below[0] == 0
    assert sl.below[sl.u_index] == table.below[table.u_index]
    assert (sl.below[sl.minimal_indices].tolist()
            == table.below[table.minimal_indices].tolist())
    rooted, full = verify_mobius(sl), verify_mobius(table)
    assert (rooted.element_count, rooted.mu_bottom_top, rooted.mismatches) == (
        full.element_count, full.mu_bottom_top, ())


@pytest.mark.parametrize("paranoid", [False, True])
def test_every_array_field_is_read_only(paranoid):
    """On both routes; the table's every mask is its own orbit, and only the
    route through vertex 0 keeps the blocks through 0."""
    g, minimals = group_of("C3"), minimals_of("C3", 3)
    sl, _ = semilattice_and_hypothesis(g, minimals, paranoid=paranoid)
    arrays = [sl.rank, sl.minimal_indices, sl.below, sl.cl, sl.orbit, *(sl.blocks or ())]
    for array in arrays:
        assert type(array) is np.ndarray and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    identity = np.arange(len(sl.cl))
    if paranoid:
        assert sl.blocks is None and np.array_equal(sl.orbit, identity)
    else:
        assert len(sl.blocks) == 4 and not np.array_equal(sl.orbit, identity)


def test_paranoid_reads_the_table():
    g, minimals = group_of("C3"), minimals_of("C3", 3)
    sl, ok = semilattice_and_hypothesis(g, minimals, paranoid=True)
    assert ok and fields_of(sl) == fields_of(semilattice_of("C3", 3))
    assert sl.elements is not None


def blocks_not_cosets() -> list[Partition]:
    """The minimal partitions of C3 m=2 with points 5 and 6 swapped between
    two blocks of Q_1 that miss vertex 0: every block keeps three points and
    the block through 0 is still a subgroup, but (1, 1) = 1·(0, 1) leaves the
    block {3, 4, 6} of (0, 1)."""
    minimals = list(minimals_of("C3", 2))
    assert minimals[1].blocks() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    minimals[1] = from_blocks([[0, 1, 2], [3, 4, 6], [5, 7, 8]])
    return minimals


def test_blocks_that_are_not_cosets_fail_the_certificate():
    assert rooted_block_sizes(group_of("C3"), blocks_not_cosets()) is None
    assert rooted_block_sizes(group_of("C3"), list(minimals_of("C3", 2))) is not None


def test_blocks_that_are_unions_of_cosets_fail_the_certificate():
    # Two blocks of Q_1 merged: multiplying by the points of the block
    # through 0 keeps every point in its block, but the blocks number 2, not
    # 9 / 3.
    minimals = list(minimals_of("C3", 2))
    minimals[1] = from_blocks([[0, 1, 2], [3, 4, 5, 6, 7, 8]])
    assert rooted_block_sizes(group_of("C3"), minimals) is None


@pytest.mark.parametrize("spec,m", [("C2", 7), ("C3", 4), ("S3", 3), ("Q8", 2)])
@pytest.mark.parametrize("low", [0, 1, 2])
def test_depth_first_walk_over_small_batches_matches_the_table(monkeypatch, spec, m, low):
    # A batch of 2^low masks: every generator from low on is added by the
    # depth-first walk rather than in the first batch.
    from diaglab import semilattice

    minimals = minimals_of(spec, m)
    monkeypatch.setattr(semilattice, "BLOCK_BYTES", minimals[0].size << low)
    sizes = rooted_block_sizes(group_of(spec), minimals)
    assert (minimals[0].size // sizes).tolist() == [
        p.block_count for p in subset_suprema(minimals)]


def test_partition_that_fails_the_certificate_sends_check_all_to_the_table(
        capsys, monkeypatch):
    from diaglab import semilattice

    built = []
    table = semilattice.subset_suprema
    monkeypatch.setattr(semilattice, "minimal_partitions",
                        lambda *args, **kwargs: blocks_not_cosets())
    monkeypatch.setattr(semilattice, "subset_suprema",
                        lambda parts: built.append(len(parts)) or table(parts))
    ledgers = []
    for paranoid in (False, True):
        code = main(["check-all", "--group", "C3", "--m", "2"] + ["--paranoid"] * paranoid)
        ledgers.append((code, capsys.readouterr().out))
    assert built == [3, 3]
    assert ledgers[0] == ledgers[1]
    assert json.loads(ledgers[0][1])["claims"][0]["claim"] == "cartesian-hypothesis"


def test_product_that_is_no_subgroup_falls_back_to_the_table():
    # Two subgroups of order 2 of S3, as the cosets of G^1: each partition
    # passes the certificate, but the product of the two is no subgroup.
    g = group_of("S3")
    mul = np.asarray(g.mul)
    a, b = [x for x in range(1, 6) if g.order_of(x) == 2][:2]
    parts = [Partition.from_labels(np.minimum(np.arange(6), mul[h])) for h in (a, b)]
    assert [p.blocks()[0] for p in parts] == [[0, a], [0, b]]
    assert rooted_block_sizes(g, parts) is None
    sl, ok = semilattice_and_hypothesis(g, parts)
    sup = subset_suprema(parts)
    assert fields_of(sl) == fields_of(join_closure(parts, sup))
    assert ok == verify_semilattice_hypothesis(sup, g.order)
