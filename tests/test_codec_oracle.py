"""The gathers over ``VertexCodec.digits`` against the per-vertex tuple
loops they replaced (kept in ``replaced.py``).

On every grid instance, plus C16 m=3 and C3 m=5: the same minimal
partitions, the same generators (tags and images, in order), the same
induced action on the minimal partitions and the same colourings.  The
numpy ``Partition.from_labels`` against a dict of the least point of each
class on random integer labellings.  The minimal partitions, built directly
in smallest-point form, against ``Partition.from_labels`` of the digit
labels they were built from before, on the grid groups at m = 1..4 and
``SYMMETRY_EXTRAS``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.chromatic import (
    Coloring,
    find_complete_mapping,
    latin_square_coloring,
    pull_back,
    q_coloring,
)
from diaglab.partitions import Partition
from diaglab.semilattice import VertexCodec
from diaglab.symmetry import action_on_partitions

from conftest import (
    GRID,
    GRID_GROUPS,
    SYMMETRY_EXTRAS,
    aut_of,
    generators_of,
    group_of,
    minimals_of,
)
from replaced import (
    dict_from_labels,
    labelled_build_q,
    tuple_action_on_partitions,
    tuple_build_q,
    tuple_generators,
    tuple_latin_square_coloring,
    tuple_pull_back,
    tuple_q_coloring,
)

INSTANCES = GRID + [("C16", 3), ("C3", 5)]


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_gathers_match_the_tuple_loops(spec, m):
    g = group_of(spec)
    minimals = minimals_of(spec, m)
    old_minimals = [tuple_build_q(g, m, i) for i in range(m + 1)]
    assert minimals == old_minimals

    perms = list(generators_of(spec, m))
    old_perms = tuple_generators(g, m, aut_of(spec))
    assert [(p.tag, tuple(p.image.tolist())) for p in perms] == [
        (p.tag, p.image) for p in old_perms]
    assert all(not p.image.flags.writeable for p in perms)

    assert action_on_partitions(perms, minimals) == tuple_action_on_partitions(
        old_perms, old_minimals)

    codec = VertexCodec(q=g.order, m=m)
    cm = find_complete_mapping(g) if m % 2 == 0 else None
    if m % 2 or cm is not None:
        assert q_coloring(g, codec, cm) == tuple_q_coloring(g, m, cm)
    # an injective base colouring: equal pull-backs mean an equal cascade
    base = Coloring(colors=tuple(range(g.order**2)))
    if m % 2 == 0:
        assert pull_back(g, codec, base) == tuple_pull_back(g, m, base)
    if cm is not None:
        assert latin_square_coloring(g, cm) == tuple_latin_square_coloring(g, cm)


@pytest.mark.parametrize("spec,m", sorted(
    {(spec, m) for spec in GRID_GROUPS for m in range(1, 5)} | set(SYMMETRY_EXTRAS)))
def test_smallest_point_build_matches_the_digit_labels(spec, m):
    g = group_of(spec)
    assert minimals_of(spec, m) == [labelled_build_q(g, m, i) for i in range(m + 1)]


def test_from_labels_examples():
    assert Partition.from_labels([]) == Partition(0, (), 0)
    assert Partition.from_labels([7, -3, 7, 2, -3]) == Partition(5, (0, 1, 0, 3, 1), 3)
    assert Partition.from_labels([5, 5, 0, 9, 0, 9]) == Partition(6, (0, 0, 2, 3, 2, 3), 3)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2**62, 2**62) | st.integers(0, 4), max_size=40))
def test_from_labels_matches_dict_canonicalisation(labels):
    assert Partition.from_labels(labels) == dict_from_labels(labels)
