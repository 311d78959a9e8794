"""Higman's criterion and the one chain of the symmetry report against the
code they replaced.

``is_vertex_primitive`` tests each suborbit of D_0 by Higman's criterion
(``symmetry.higman_block_trivial``): the minimal block through 0 and v is
the subgroup of G^m that v's suborbit generates.  The oracle is the
fixpoint over every generator of D, ``replaced.minimal_block_trivial``.
``symmetry.partition_chain`` is one chain of D_0 on the minimal partitions
followed by the vertices; its order must be that of the generic chain over
the vertices alone (its first m+1 levels are checked against the closure
of the induced permutations in ``test_oracles.py``).  The instances are
the grid at m <= 4 and a few more, primitive and not.
"""

from __future__ import annotations

import numpy as np
import pytest

from diaglab.partitions import components
from diaglab.semilattice import VertexCodec
from diaglab.symmetry import (
    build_chain,
    higman_block_trivial,
    is_vertex_primitive,
    partition_chain,
    vertex_stabiliser_generators,
)

from conftest import (
    GRID,
    SYMMETRY_EXTRAS,
    generators_of,
    group_of,
    minimals_of,
    stabiliser_images_of,
)
from replaced import minimal_block_trivial

INSTANCES = [(spec, m) for spec, m in GRID if m <= 4] + SYMMETRY_EXTRAS


def higman_verdicts(spec: str, m: int) -> tuple[list[int], list[bool]]:
    """The suborbit representatives of D_0 and Higman's verdict on each."""
    g = group_of(spec)
    codec = VertexCodec(q=g.order, m=m)
    lab = components(codec.size, stabiliser_images_of(spec, m))
    reps = np.flatnonzero(lab == np.arange(codec.size))[1:].tolist()
    return reps, [higman_block_trivial(g, codec, np.flatnonzero(lab == v)) for v in reps]


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_higman_matches_the_fixpoint_oracle(spec, m):
    g = group_of(spec)
    perms = list(generators_of(spec, m))
    reps, verdicts = higman_verdicts(spec, m)
    n = g.order ** m
    assert verdicts == [minimal_block_trivial(perms, n, v) for v in reps]
    report = is_vertex_primitive(g, VertexCodec(q=g.order, m=m), stabiliser_images_of(spec, m))
    assert (report.primitive, report.analysed_points) == (all(verdicts), len(reps))


def test_both_verdicts_occur():
    # a trivial and a proper minimal block in one imprimitive instance, and
    # an instance whose every block is trivial
    assert set(higman_verdicts("C4", 2)[1]) == {False, True}
    assert set(higman_verdicts("C3", 3)[1]) == {True}


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_one_chain_matches_the_generic_chain(spec, m):
    g = group_of(spec)
    perms = list(generators_of(spec, m))
    stabiliser = vertex_stabiliser_generators(g, VertexCodec(q=g.order, m=m), perms)
    chain = partition_chain(perms, stabiliser, minimals_of(spec, m))
    assert chain.bases[:m + 1] == list(range(m + 1))
    assert chain.order() == build_chain(stabiliser).order()
