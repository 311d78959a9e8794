"""The connected-components kernel against the code it replaced.

``partitions.components`` serves partition suprema, orbit counts, suborbits
and block systems.  The oracles are the union-find ``supremum`` and
minimal block search it replaced, kept in ``replaced.py``; here the
union-find search also checks ``replaced.minimal_block_trivial``, the
oracle of Higman's criterion (``test_higman_oracle.py``).  Orbit counts
are checked in ``test_orbit_oracle.py``, and suborbits and block systems
on the grid in ``test_symmetry.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.partitions import Partition, components
from diaglab.semilattice import minimal_partitions, subset_suprema
from diaglab.symmetry import TaggedPerm

from conftest import GRID, group_of
from replaced import (
    minimal_block_trivial,
    single_block,
    singletons,
    supremum,
    unionfind_minimal_block_trivial,
    unionfind_supremum,
)


def test_components_without_links_are_singletons():
    assert components(0, []).tolist() == []
    assert components(4, []).tolist() == [0, 1, 2, 3]


def test_components_of_a_many_to_one_link():
    # Every point links to 2: a fancy-assignment push writes only the last
    # of the repeated targets and leaves each point alone.
    assert components(3, [np.array([2, 2, 2])]).tolist() == [0, 0, 0]


def test_supremum_carries_a_smaller_label_back_to_the_anchor():
    # p's block {1, 2, 3} is linked to its first point 1; q joins 2 to 0.
    # Label 0 reaches 2 through q and must be pushed back to the anchor 1
    # although 3, the last point linked to it, still carries label 1.
    p = Partition.from_labels([0, 1, 1, 1])
    q = Partition.from_labels([0, 1, 0, 2])
    assert supremum(p, q) == unionfind_supremum(p, q) == single_block(4)
    anchors = [np.array([0, 1, 1, 1]), np.array([0, 1, 0, 3])]
    assert components(4, anchors).tolist() == [0, 0, 0, 0]


def test_supremum_rejects_different_ground_sets():
    with pytest.raises(ValueError, match="ground sets differ"):
        supremum(singletons(3), singletons(4))


@pytest.mark.parametrize("spec,m", GRID)
def test_subset_suprema_match_unionfind_on_grid(spec, m):
    minimals = minimal_partitions(group_of(spec), m)
    expect = [singletons(minimals[0].size)]
    for mask in range(1, 1 << len(minimals)):
        low = mask & -mask
        expect.append(unionfind_supremum(expect[mask ^ low],
                                         minimals[low.bit_length() - 1]))
    assert subset_suprema(minimals) == expect


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(0, 12))
    labels = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
    return Partition.from_labels(draw(labels)), Partition.from_labels(draw(labels))


@settings(max_examples=300, deadline=None)
@given(partition_pairs())
def test_supremum_matches_unionfind_random(pair):
    p, q = pair
    assert supremum(p, q) == unionfind_supremum(p, q)


@st.composite
def actions_and_points(draw):
    """Random permutations of at most 10 points, transitive or not."""
    n = draw(st.integers(2, 10))
    perms = [
        TaggedPerm(tag=f"p{i}", image=tuple(draw(st.permutations(range(n)))))
        for i in range(draw(st.integers(0, 3)))
    ]
    return perms, n, draw(st.integers(1, n - 1))


@settings(max_examples=200, deadline=None)
@given(actions_and_points())
def test_minimal_block_trivial_matches_unionfind_random(case):
    perms, n, v = case
    assert (minimal_block_trivial(perms, n, v)
            == unionfind_minimal_block_trivial(perms, n, v))
