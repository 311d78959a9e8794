"""The blocked distance-regularity check against the per-base one it replaced.

``is_distance_regular`` searches a block of bases in one numpy pass; the
oracle in ``replaced.py`` runs one breadth-first search per base.  Both must
give the same verdict and the same intersection arrays, from vertex 0 and
from every vertex, including on graphs that are not regular, not
distance-regular or not connected.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab import diaggraph, partitions
from diaglab.diaggraph import build_graph, is_distance_regular
from diaglab.semilattice import minimal_partitions

from conftest import GRID, graph_of, group_of
from replaced import is_distance_regular as bfs_is_distance_regular
from test_packed_oracles import graph_from_edges, spy_blocks


def assert_matches_oracle(graph) -> None:
    # without the translation certificate the blocked search takes every
    # base, and so must the oracle
    for paranoid in (False, True):
        got = is_distance_regular(graph, paranoid)
        assert got == bfs_is_distance_regular(graph, not graph.rooted(paranoid)), paranoid


@pytest.mark.parametrize("spec,m", GRID)
def test_grid_graphs(spec, m):
    if group_of(spec).order ** m > 1024:
        assert is_distance_regular(graph_of(spec, m)) == bfs_is_distance_regular(
            graph_of(spec, m))
    else:
        assert_matches_oracle(graph_of(spec, m))


def test_c2_m8_from_every_vertex():
    graph = build_graph(group_of("C2"), minimal_partitions(group_of("C2"), 8))
    assert_matches_oracle(graph)
    assert is_distance_regular(graph, paranoid=True) == (
        True, ((9, 8, 7, 6), (1, 2, 3, 4)))


def test_several_blocks(monkeypatch):
    # each base takes one int32 per entry of nbr
    cut = spy_blocks(monkeypatch, diaggraph)
    graph = graph_of("C3", 3)  # not distance-regular; 27 bases, 216 entries
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 4 * 32 * 216 // 8)
    assert_matches_oracle(graph)
    assert [len(b) for b in cut[-1]] == [4] * 6 + [3]
    graph = graph_of("C2", 4)
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 1)
    assert_matches_oracle(graph)
    assert [len(b) for b in cut[-1]] == [1] * graph.size


def test_paranoid_c2_m10_is_fast():
    graph = build_graph(group_of("C2"), minimal_partitions(group_of("C2"), 10))
    started = time.perf_counter()
    verdict = is_distance_regular(graph, paranoid=True)
    elapsed = time.perf_counter() - started
    assert verdict == (True, ((11, 10, 9, 8, 7), (1, 2, 3, 4, 5)))
    assert elapsed < 0.5, elapsed  # the per-base search took about 0.8 s


@pytest.mark.parametrize("n,edges", [
    (1, []),
    (4, []),
    (5, [(0, 1), (2, 3), (3, 4), (4, 2)]),  # an edge and a triangle
    (6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),  # a path and a triangle
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two triangles
    (4, [(0, 1), (1, 2), (2, 3)]),  # a path: not regular
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # a star
])
def test_small_graphs(n, edges):
    assert_matches_oracle(graph_from_edges(n, edges))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):  # dense graphs too
        edges = set(pairs) - edges
    return graph_from_edges(n, edges)


@st.composite
def disjoint_unions(draw):
    """Copies of one graph side by side: disconnected, and distance-regular
    whenever the copy is."""
    base = draw(st.sampled_from([("C2", 2), ("C2", 3), ("C3", 2), ("C2xC2", 2),
                                 ("C4", 2), ("S3", 2)]))
    copies = draw(st.integers(2, 3))
    graph = graph_of(*base)
    n = graph.size
    edges = [(u + k * n, v + k * n) for k in range(copies)
             for u, v in graph.edges().tolist()]
    return graph_from_edges(n * copies, edges)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_random_graphs(graph):
    assert_matches_oracle(graph)


@settings(max_examples=30, deadline=None)
@given(disjoint_unions())
def test_disconnected_unions(graph):
    assert_matches_oracle(graph)
