"""Maximal cliques translated from vertex 0 against whole-graph Bron-Kerbosch.

``all_maximal_cliques`` enumerates the cliques through vertex 0 and
right-translates them, once a certificate shows that every right translation
is an automorphism.  It must list exactly the cliques that Bron-Kerbosch
finds on the whole graph, on diagonal graphs, on other Cayley graphs of G^m,
and, through the fallback, on graphs that fail the certificate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab import diaggraph
from diaglab.diaggraph import (
    _translated_cliques,
    all_maximal_cliques,
    bron_kerbosch,
    build_graph,
    maximal_cliques,
)
from diaglab.semilattice import VertexCodec, minimal_partitions

from conftest import GRID, edge_set, graph_of, group_of, minimals_of
from replaced import TupleCodec, from_rows, tagged_rows

EXCEPTIONAL = [("C2", 2), ("C3", 2), ("C2xC2", 2), ("C4", 2)]
COMPLETE = ["C2", "C3", "C5", "C2xC2", "S3", "Q8"]


def assert_same_cliques(g, graph) -> None:
    got = all_maximal_cliques(g, graph)
    assert all(list(c) == sorted(set(c)) for c in got)
    assert sorted(got) == sorted(bron_kerbosch(graph.adjacency))


def record_sizes(monkeypatch) -> list[int]:
    """Replace Bron-Kerbosch by a wrapper that records each graph's size."""
    sizes: list[int] = []
    original = diaggraph.bron_kerbosch

    def counted(adjacency):
        sizes.append(len(adjacency))
        return original(adjacency)

    monkeypatch.setattr(diaggraph, "bron_kerbosch", counted)
    return sizes


def two_switch(graph):
    """The graph with edges ab and cd replaced by ac and bd, for the first
    such pair (a, b, c, d distinct, ac and bd not edges, 0 not among them).
    The result is regular, and N(a) loses b while N(0) is unchanged."""
    edges = edge_set(graph)
    linked = lambda u, v: (min(u, v), max(u, v)) in edges  # noqa: E731
    for a, b in sorted(edges):
        for c, d in sorted(edges):
            if 0 in (a, b, c, d) or len({a, b, c, d}) < 4:
                continue
            if not linked(a, c) and not linked(b, d):
                rows = [(u, v, 0) for u, v in edges - {(a, b), (c, d)}]
                rows += [(min(a, c), max(a, c), 0), (min(b, d), max(b, d), 0)]
                return from_rows(graph.codec, rows)
    raise AssertionError("no 2-switch found")


@pytest.mark.parametrize("spec,m", GRID + [("C16", 3)] + EXCEPTIONAL)
def test_grid_graphs(spec, m):
    assert _translated_cliques(group_of(spec), graph_of(spec, m)) is not None
    assert_same_cliques(group_of(spec), graph_of(spec, m))


@pytest.mark.parametrize("spec", COMPLETE)
def test_complete_graphs_of_dimension_1(spec):
    g = group_of(spec)
    graph = build_graph(g, minimal_partitions(g, 1))
    assert all_maximal_cliques(g, graph) == [tuple(range(g.order))]
    assert_same_cliques(g, graph)


@pytest.mark.parametrize("spec,m", [("C3", 3), ("S3", 2), ("Q8", 2)])
def test_two_switch_falls_back(spec, m):
    g = group_of(spec)
    switched = two_switch(graph_of(spec, m))
    assert len({len(a) for a in switched.adjacency}) == 1  # still regular
    assert _translated_cliques(g, switched) is None
    assert_same_cliques(g, switched)


def test_irregular_graph_falls_back():
    g = group_of("C3")
    graph = graph_of("C3", 2)
    broken = from_rows(graph.codec, tagged_rows(graph)[1:])
    assert _translated_cliques(g, broken) is None
    assert_same_cliques(g, broken)


def test_edgeless_graph_gives_singletons():
    g = group_of("C3")
    empty = from_rows(VertexCodec(q=3, m=2), [])
    assert sorted(all_maximal_cliques(g, empty)) == [(v,) for v in range(9)]


@pytest.mark.parametrize("spec,m", GRID)
def test_default_path_enumerates_only_the_neighbourhood(monkeypatch, spec, m):
    g, graph = group_of(spec), graph_of(spec, m)
    sizes = record_sizes(monkeypatch)
    maximal_cliques(g, graph, minimals_of(spec, m))
    assert sizes and max(sizes) <= graph.valency


@pytest.mark.parametrize("spec,m", [("C3", 3), ("Q8", 2), ("C4", 3)])
def test_paranoid_runs_the_full_enumeration(monkeypatch, spec, m):
    g, graph = group_of(spec), graph_of(spec, m)
    sizes = record_sizes(monkeypatch)
    report = maximal_cliques(g, graph, minimals_of(spec, m), paranoid=True)
    assert sizes == [graph.size]
    assert report == maximal_cliques(g, graph, minimals_of(spec, m))


@st.composite
def cayley_graphs(draw):
    """Cay(G^m, S) for a random inverse-closed S, with v ~ s·v."""
    spec = draw(st.sampled_from(["C2", "C3", "C4", "C2xC2", "S3", "C5"]))
    g = group_of(spec)
    m = draw(st.integers(1, 3 if g.order <= 3 else 2))
    codec = TupleCodec(q=g.order, m=m)
    chosen = draw(st.sets(st.integers(1, codec.size - 1)))
    conn = set()
    for s in chosen:
        tup = codec.decode(s)
        conn |= {tup, tuple(g.inv[x] for x in tup)}
    tagged = {}
    for v in range(codec.size):
        u = codec.decode(v)
        for s in conn:
            w = codec.encode(tuple(g.mul[s[i]][u[i]] for i in range(m)))
            tagged[(min(v, w), max(v, w))] = 0
    return g, from_rows(VertexCodec(q=g.order, m=m), [(u, v, 0) for u, v in tagged])


@settings(max_examples=150, deadline=None)
@given(cayley_graphs())
def test_random_cayley_graphs(case):
    g, graph = case
    assert _translated_cliques(g, graph) is not None
    assert_same_cliques(g, graph)
