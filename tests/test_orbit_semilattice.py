"""The semilattice from one mask per orbit of the diagonal maps, against the
walk over every mask and against the table of subset suprema.

``semilattice_and_hypothesis`` grows the blocks through vertex 0 only for
the least mask of each orbit (``mask_orbits``) and its prefixes, and reads
the other masks from their orbits.  With ``diagonal_maps`` giving the
identity alone, every mask is its own orbit and the same code walks every
mask; the table (``join_closure`` over ``subset_suprema``) builds every
supremum as a partition.  The three must agree on the block counts, the closure masks,
the elements, ranks and covers, the Cartesian verdict and the Moebius
report, also against a doctored closed form.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from diaglab import partitions, semilattice
from diaglab.cli import main
from diaglab.partitions import Partition
from diaglab.semilattice import (
    join_closure,
    mask_orbits,
    rooted_block_sizes,
    semilattice_and_hypothesis,
    subset_suprema,
    verify_mobius,
)

from conftest import GRID, SYMMETRY_EXTRAS, fields_of, group_of, minimals_of, semilattice_of
from replaced import verify_semilattice_hypothesis

INSTANCES = [inst for inst in GRID if inst[1] <= 5] + SYMMETRY_EXTRAS + [("C2", 12)]
DOCTORED = [("C2", 2), ("C2", 5), ("C3", 3), ("S3", 3), ("C2xC2", 3), ("C2", 7)]


def all_masks_walk(monkeypatch, g, minimals):
    """``semilattice_and_hypothesis`` with every mask its own orbit: the
    one diagonal map is the identity."""
    with monkeypatch.context() as patch:
        patch.setattr(semilattice, "diagonal_maps",
                      lambda g, codec: [("identity", np.arange(codec.size))])
        return semilattice_and_hypothesis(g, minimals)


def by_mask(sl) -> dict:
    """Each element's rank and upper covers, keyed by its closed mask."""
    below, covers = sl.below.tolist(), {}
    for i, j in sl.hasse:
        covers.setdefault(below[i], set()).add(below[j])
    return {b: (r, covers.get(b, set())) for b, r in zip(below, sl.rank.tolist())}


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_orbit_route_matches_the_walk_and_the_table(monkeypatch, spec, m):
    g, minimals = group_of(spec), minimals_of(spec, m)
    orbit = mask_orbits(g, minimals)
    sl, ok = semilattice_and_hypothesis(g, minimals)
    walk, walk_ok = all_masks_walk(monkeypatch, g, minimals)
    sup = subset_suprema(minimals)
    table = join_closure(minimals, sup)

    # the diagonal maps induce S_(m+1): one orbit per generator count
    masks = np.arange(1 << (m + 1))
    assert (orbit == (1 << np.bitwise_count(masks).astype(np.int64)) - 1).all()
    assert sl.orbit.tolist() == orbit.tolist() and walk.orbit.tolist() == masks.tolist()

    # m+1 one-column steps grow the blocks of the representatives
    sizes = rooted_block_sizes(g, minimals, semilattice._prefix_closure(orbit))
    assert np.flatnonzero(sizes).tolist() == [(1 << k) - 1 for k in range(m + 2)]
    counts = (minimals[0].size // sizes[orbit]).tolist()
    assert counts == (minimals[0].size // rooted_block_sizes(g, minimals)).tolist()

    assert (sl.cl.tolist(), sl.below.tolist(), sl.rank.tolist(), sl.hasse, ok) == (
        walk.cl.tolist(), walk.below.tolist(), walk.rank.tolist(), walk.hasse, walk_ok)
    rooted, full = verify_mobius(sl), verify_mobius(walk)
    assert fields_of(rooted) == fields_of(full) and rooted.ok
    assert counts == [p.block_count for p in sup]
    assert np.array_equal(sl.cl, table.cl)
    assert by_mask(sl) == by_mask(table)
    assert ok == verify_semilattice_hypothesis(sup, g.order)
    exact = verify_mobius(table)
    assert (rooted.element_count, rooted.mu_bottom_top, rooted.mismatch_count) == (
        exact.element_count, exact.mu_bottom_top, exact.mismatch_count)
    assert (sorted(zip(sl.below.tolist(), rooted.ranks.tolist()))
            == sorted(zip(table.below.tolist(), exact.ranks.tolist())))


@pytest.mark.parametrize("spec,m", DOCTORED)
def test_a_wrong_closed_form_counts_alike_on_every_route(monkeypatch, wrong_top_interval,
                                                         spec, m):
    g, minimals = group_of(spec), minimals_of(spec, m)
    sl, _ = semilattice_and_hypothesis(g, minimals)
    walk, _ = all_masks_walk(monkeypatch, g, minimals)
    reports = [verify_mobius(x) for x in (sl, walk, semilattice_of(spec, m))]
    assert not any(rep.ok for rep in reports)
    assert len({(rep.mu_bottom_top, rep.mismatch_count) for rep in reports}) == 1
    # the walk and the table list every failing pair; the orbit route lists
    # those whose lower element is the least of its orbit
    assert reports[1].mismatch_count == len(reports[1].mismatches)
    assert reports[2].mismatch_count == len(reports[2].mismatches)
    orbit = sl.orbit
    listed = {(sl.below[i], sl.below[j]) for i, j, _, _ in reports[0].mismatches}
    assert listed == {(walk.below[i], walk.below[j]) for i, j, _, _ in reports[1].mismatches
                      if orbit[walk.below[i]] == walk.below[i]}


def test_a_tall_lattice_sums_in_one_batch(monkeypatch):
    cut = []
    original = semilattice.start_blocks

    def spy(starts, bits_per_start):
        blocks = original(starts, bits_per_start)
        cut.append(len(blocks))
        return blocks

    sl, _ = semilattice_and_hypothesis(group_of("C2"), minimals_of("C2", 7))
    monkeypatch.setattr(semilattice, "start_blocks", spy)
    assert verify_mobius(sl).ok
    assert cut == [1]


def test_small_batches_change_nothing(monkeypatch, wrong_top_interval):
    sl, _ = semilattice_and_hypothesis(group_of("C2"), minimals_of("C2", 7))
    whole = verify_mobius(sl)
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 128)
    assert fields_of(verify_mobius(sl)) == fields_of(whole)


def off_diagonal_family() -> list[Partition]:
    """The minimal partitions of C3 m=2 with Q_2 replaced by the cosets of
    {(x, 2x)}: every block is still a coset, but the transposition of the
    coordinates maps Q_1 onto the cosets of {(0, x)}, outside the family."""
    minimals = list(minimals_of("C3", 2))
    digits = np.arange(9)[:, None] // [1, 3] % 3
    coset = [(digits + [x, 2 * x]) % 3 @ [1, 3] for x in range(3)]
    minimals[2] = Partition.from_labels(np.min(coset, axis=0))
    assert minimals[2].block_through(0).tolist() == [0, 5, 7]
    return minimals


def repeated_family() -> list[Partition]:
    """The minimal partitions of C3 m=2 with Q_2 replaced by Q_1: still
    cosets, but sup(Q_1, Q_2) has parts of 3 points, not 9."""
    minimals = list(minimals_of("C3", 2))
    minimals[2] = minimals[1]
    return minimals


def repeated_first_family() -> list[Partition]:
    """The minimal partitions of C3 m=2 with Q_0 replaced by Q_1: the
    m-subsets without Q_0 or without Q_1 generate Cartesian lattices, and
    only the last one, without Q_2, does not."""
    minimals = list(minimals_of("C3", 2))
    minimals[0] = minimals[1]
    return minimals


@pytest.mark.parametrize("family", [off_diagonal_family, repeated_family,
                                    repeated_first_family])
def test_a_family_no_map_permutes_matches_the_table(family):
    g, minimals = group_of("C3"), family()
    sl, ok = semilattice_and_hypothesis(g, minimals)
    sup = subset_suprema(minimals)
    table = join_closure(minimals, sup)
    assert sl.orbit.tolist() == list(range(8))
    assert np.array_equal(sl.cl, table.cl) and by_mask(sl) == by_mask(table)
    assert ok == verify_semilattice_hypothesis(sup, g.order) == (family is off_diagonal_family)
    assert semilattice_and_hypothesis(g, minimals, paranoid=True)[1] == ok


def test_a_family_no_map_permutes_takes_the_walk(monkeypatch, capsys):
    g, minimals = group_of("C3"), off_diagonal_family()
    assert mask_orbits(g, minimals).tolist() == list(range(8))
    assert rooted_block_sizes(g, minimals) is not None

    walked, built = [], []
    walk, table = semilattice.rooted_block_sizes, semilattice.subset_suprema
    monkeypatch.setattr(semilattice, "minimal_partitions", lambda *args, **kwargs: minimals)
    monkeypatch.setattr(semilattice, "rooted_block_sizes",
                        lambda g, parts, needed, codec: (walked.append(needed.all())
                                                         or walk(g, parts, needed, codec)))
    monkeypatch.setattr(semilattice, "subset_suprema",
                        lambda parts: built.append(len(parts)) or table(parts))
    ledgers = []
    for paranoid in (False, True):
        code = main(["check-all", "--group", "C3", "--m", "2"] + ["--paranoid"] * paranoid)
        ledgers.append((code, capsys.readouterr().out))
    assert walked == [True] and built == [3]
    assert ledgers[0] == ledgers[1]
    assert json.loads(ledgers[0][1])["claims"][0]["claim"] == "cartesian-hypothesis"


def test_weighted_blocks_fit_the_budget(monkeypatch):
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 8)
    weights = np.array([16, 40, 8, 8, 100, 30, 30, 4])
    blocks = partitions.start_blocks(range(len(weights)), weights)
    assert [list(b) for b in blocks] == [[0, 1, 2], [3], [4], [5, 6, 7]]
    assert partitions.start_blocks(range(6), 16) == [range(0, 4), range(4, 6)]
