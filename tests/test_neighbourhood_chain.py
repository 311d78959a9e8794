"""D_0's chain on the minimal partitions and N[0], the closed neighbourhood
of vertex 0, against the chain on the minimal partitions and every vertex.

``diaggraph.neighbourhood_is_a_base`` certifies that an automorphism fixing
N[0] pointwise is the identity, so D_0 acts faithfully on N[0];
``symmetry.partition_chain`` then builds its chain on k + |N[0]| points
instead of k + n.  Both chains must give the same |D_0| and the same
induced group on the partitions.  The certificate fails on two graphs of
the grid, K4,4 (C2 m=3) and K3,3,3 (C3 m=2), whose twins no refinement
separates; there the chain keeps every vertex.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from diaglab import diaggraph, symmetry
from diaglab.cli import main
from diaglab.diaggraph import neighbourhood_is_a_base
from diaglab.semilattice import VertexCodec
from diaglab.symmetry import TaggedPerm, partition_chain

from conftest import GRID, SYMMETRY_EXTRAS, generators_of, graph_of, group_of, minimals_of
from replaced import vertex_stabiliser_generators

UNCERTIFIED = {("C2", 3), ("C3", 2)}
INSTANCES = [(spec, m) for spec, m in GRID if m <= 4] + SYMMETRY_EXTRAS


def stabiliser_of(spec: str, m: int) -> list[TaggedPerm]:
    g = group_of(spec)
    return vertex_stabiliser_generators(g, VertexCodec(q=g.order, m=m),
                                        list(generators_of(spec, m)))


@pytest.mark.parametrize("spec,m", GRID)
def test_the_certificate_fails_only_on_two_grid_graphs(spec, m):
    assert neighbourhood_is_a_base(graph_of(spec, m)) is ((spec, m) not in UNCERTIFIED)


def test_a_disconnected_graph_fails_the_certificate():
    # The Cayley graph of C4^2 on the connection set {(1, 0), (3, 0)}: four
    # 4-cycles.  The right translations are automorphisms and the ball about
    # 0 refines to single points, but an automorphism may turn one of the
    # other cycles and fix N[0].
    g = group_of("C4")
    a, b = VertexCodec(q=4, m=2).digits.T
    nbr = np.sort(np.stack([(a + 1) % 4, (a + 3) % 4], axis=1) + 4 * b[:, None], axis=1)
    graph = diaggraph.DiagGraph.from_neighbours(g, 2, nbr, np.zeros_like(nbr))
    assert graph.translations_certified
    assert neighbourhood_is_a_base(graph) is False


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_chain_on_the_neighbourhood_matches_the_chain_on_every_vertex(spec, m):
    graph, minimals = graph_of(spec, m), minimals_of(spec, m)
    perms, stabiliser = list(generators_of(spec, m)), stabiliser_of(spec, m)
    k = m + 1
    every = partition_chain(perms, stabiliser, minimals)
    local = partition_chain(perms, stabiliser, minimals, graph)
    paranoid = partition_chain(perms, stabiliser, minimals, graph, paranoid=True)
    certified = (spec, m) not in UNCERTIFIED
    assert every.degree == paranoid.degree == k + graph.size
    assert local.degree == (k + graph.valency + 1 if certified else k + graph.size)
    assert local.bases[:k] == list(range(k))
    assert local.order() == every.order()
    assert local.order(k) == every.order(k)


def test_the_certificate_is_computed_only_off_the_paranoid_path(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(diaggraph, "neighbourhood_is_a_base",
                        lambda graph: calls.append(graph.size) or True)
    for paranoid, expected in ((True, []), (False, [27])):
        calls.clear()
        assert main(["check-all", "--group", "C3", "--m", "3"] + ["--paranoid"] * paranoid) == 0
        capsys.readouterr()
        assert calls == expected


@pytest.mark.parametrize("spec,m", sorted(UNCERTIFIED))
def test_an_uncertified_graph_keeps_every_vertex_and_the_paranoid_ledger(
        capsys, monkeypatch, spec, m):
    degrees = []
    chain = symmetry.StabilizerChain
    monkeypatch.setattr(symmetry, "StabilizerChain",
                        lambda degree, *base: degrees.append(degree) or chain(degree, *base))
    ledgers = []
    for paranoid in (False, True):
        code = main(["check-all", "--group", spec, "--m", str(m)] + ["--paranoid"] * paranoid)
        ledgers.append((code, capsys.readouterr().out))
    assert ledgers[0] == ledgers[1]
    assert ledgers[0][0] == 0
    n = group_of(spec).order ** m
    assert [d for d in degrees if d > m + 1] == [m + 1 + n] * 2


# In C3^3 vertex 1 = (1, 0, 0) is a neighbour of 0 and vertex 4 = (1, 1, 0)
# is not; the swap fixes 0 but maps N[0] outside itself.
SWAP = np.arange(27)
SWAP[[1, 4]] = 4, 1
MESSAGE = "generator injected maps the closed neighbourhood of vertex 0 outside itself"


def test_a_restriction_that_leaves_the_neighbourhood_is_refused():
    graph, minimals = graph_of("C3", 3), minimals_of("C3", 3)
    stabiliser = stabiliser_of("C3", 3) + [TaggedPerm(tag="injected", image=SWAP)]
    with pytest.raises(AssertionError, match=f"^{MESSAGE}$"):
        partition_chain(list(generators_of("C3", 3)), stabiliser, minimals, graph)


def test_a_restriction_that_leaves_the_neighbourhood_fails_symmetry_order(
        capsys, monkeypatch):
    # the orbit counts, which check every generator, see the stabiliser
    # without the swap; only the chain gets it
    chain = symmetry.partition_chain

    def with_the_swap(perms, stabiliser, *args, **kwargs):
        swap = TaggedPerm(tag="injected", image=SWAP)
        return chain(perms, stabiliser + [swap], *args, **kwargs)

    monkeypatch.setattr(symmetry, "partition_chain", with_the_swap)
    code = main(["check-all", "--group", "C3", "--m", "3"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["failures"] == ["symmetry-order"]
    failed = next(c for c in data["claims"] if c["claim"] == "symmetry-order")
    assert failed["detail"] == MESSAGE
