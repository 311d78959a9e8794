"""The array-backed graph constructions against the ones they replaced.

``build_graph`` and ``cayley_graph`` each build one padded neighbour array
``nbr`` with its ``tag`` array alongside.  Here both must give the (u, v,
tag) rows of the dict-based constructions in ``replaced.py`` (read back by
``replaced.tagged_rows``), their neighbour lists, and the same graph6, DOT
and edge-list bytes, and the arrays that ``replaced.from_rows`` built from
the pair rows of each part; and the construction invariants (an edge in two
minimal partitions, a tag or an edge that differs, a neighbour listed at
one end only, blocks of unequal size) must be caught.  Bron-Kerbosch
must read the padding of an irregular graph as no neighbour.
"""

from __future__ import annotations

import numpy as np
import pytest

from diaglab.diaggraph import (
    DiagGraph,
    bron_kerbosch,
    build_graph,
    cayley_graph,
    same_edge_set,
    to_dot,
    to_edgelist,
    to_graph6,
)
from diaglab.groups import cyclic
from diaglab.partitions import Partition
from diaglab.semilattice import minimal_partitions

from conftest import GRID, graph_of, group_of
from replaced import (
    TupleCodec,
    adjacency_lists,
    adjacency_of,
    block_rows,
    cayley_edge_tags,
    dot_of,
    edgelist_of,
    from_rows,
    graph6_of,
    partition_edge_tags,
    tagged_rows,
)
from test_packed_oracles import SMALL_GRID

INSTANCES = GRID + [(spec, 1) for spec in ("C2", "C3", "C4", "C5")] + [("C16", 3)]


def rows_of(tagged: dict[tuple[int, int], int]) -> np.ndarray:
    return np.array([(u, v, t) for (u, v), t in sorted(tagged.items())],
                    dtype=np.int32).reshape(-1, 3)


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_rows_match_the_python_constructions(spec, m):
    g = group_of(spec)
    for graph, tagged in ((build_graph(g, minimal_partitions(g, m)),
                           partition_edge_tags(g, m)),
                          (cayley_graph(g, m), cayley_edge_tags(g, m))):
        assert graph.nbr.dtype == np.int32 and graph.tag.dtype == np.int8
        assert not graph.nbr.flags.writeable and not graph.tag.flags.writeable
        assert np.array_equal(tagged_rows(graph), rows_of(tagged)), (spec, m)
        assert np.array_equal(graph.edges(), rows_of(tagged)[:, :2]), (spec, m)
        want = adjacency_of(graph.size, tagged)
        assert [tuple(a) for a in adjacency_lists(graph)] == list(want)
        assert np.array_equal(graph.nbr, np.array(want, dtype=np.int32))
        assert to_graph6(graph) == graph6_of(graph.size, tagged)
        assert to_dot(graph) == dot_of(TupleCodec(q=graph.q, m=graph.m), tagged)
        assert to_edgelist(graph) == edgelist_of(tagged)


@pytest.mark.parametrize("spec,m", SMALL_GRID)
def test_neighbours_first_matches_the_pair_rows(spec, m):
    g = group_of(spec)
    minimals = minimal_partitions(g, m)
    rows = np.concatenate([block_rows(part, i) for i, part in enumerate(minimals)])
    want = from_rows(g, m, rows)
    for graph in (build_graph(g, minimals), cayley_graph(g, m)):
        for got, expect in ((graph.nbr, want.nbr), (graph.tag, want.tag),
                            (tagged_rows(graph), tagged_rows(want))):
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert got.tobytes() == expect.tobytes(), (spec, m)


def test_blocks_of_unequal_size_raise():
    g = group_of("C3")
    q0, q1, _ = minimal_partitions(g, 2)
    lopsided = Partition.from_labels([0, 0, 1, 1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError, match="unequal size"):
        build_graph(g, [q0, q1, lopsided])


def test_an_edge_in_two_minimal_partitions_raises():
    g = group_of("C3")
    q0, q1, _, q3 = minimal_partitions(g, 3)
    doctored = [q0, q1, q1, q3]
    with pytest.raises(AssertionError, match="lies in two minimal partitions"):
        partition_edge_tags(g, 3, doctored)
    with pytest.raises(AssertionError, match="lies in two minimal partitions"):
        build_graph(g, doctored)


def test_dimension_one_keeps_the_first_of_two_equal_partitions():
    g = group_of("C4")
    q0, q1 = minimal_partitions(g, 1)
    assert q0 == q1
    graph = build_graph(g, [q0, q0])
    assert np.array_equal(tagged_rows(graph), rows_of(partition_edge_tags(g, 1, [q0, q0])))
    assert (graph.tag == 0).all() and graph.edge_count == 6


def test_dimension_one_pads_the_rows_that_lose_a_copy():
    # two partitions of C6 that share the edges 0-1 and 4-5 only: vertices
    # 0, 1, 4 and 5 keep two neighbours, 2 and 3 keep three
    g = group_of("C6")
    halves = Partition.from_labels([0, 0, 0, 1, 1, 1])
    pairs = Partition.from_labels([0, 0, 1, 1, 2, 2])
    graph = build_graph(g, [halves, pairs])
    rows = np.concatenate([block_rows(halves, 0), block_rows(pairs, 1)])
    want = from_rows(cyclic(6), 1, rows)
    assert graph.nbr.tolist() == want.nbr.tolist() == [
        [1, 2, 6], [0, 2, 6], [0, 1, 3], [2, 4, 5], [3, 5, 6], [3, 4, 6]]
    assert graph.tag.tobytes() == want.tag.tobytes()
    assert graph.tag.tolist() == [
        [0, 0, -1], [0, 0, -1], [0, 0, 1], [1, 0, 0], [0, 0, -1], [0, 0, -1]]
    assert tagged_rows(graph).tolist() == tagged_rows(want).tolist()
    assert tagged_rows(graph)[:, 2].tolist() == [0, 0, 0, 1, 0, 0, 0]


def test_same_edge_set_compares_tags_and_edges():
    graph = graph_of("C3", 3)
    rows = tagged_rows(graph)
    assert same_edge_set(graph, from_rows(graph.group, graph.m, rows))
    retagged = rows.copy()
    retagged[5, 2] = (retagged[5, 2] + 1) % 4
    assert not same_edge_set(graph, from_rows(graph.group, graph.m, retagged))
    assert not same_edge_set(graph, from_rows(graph.group, graph.m, rows[1:]))
    # two 4-cycles on 0..3: the same degrees and tags, other edges
    square = from_rows(cyclic(4), 1, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0)])
    crossed = from_rows(cyclic(4), 1, [(0, 2, 0), (1, 2, 0), (1, 3, 0), (0, 3, 0)])
    assert np.array_equal(square.tag, crossed.tag)
    assert not same_edge_set(square, crossed)


def test_same_edge_set_compares_the_tag_at_the_larger_end():
    graph = graph_of("C3", 3)
    u, k = map(int, np.argwhere(graph.nbr < np.arange(graph.size)[:, None])[0])
    tag = graph.tag.copy()
    tag[u, k] = (tag[u, k] + 1) % 4
    doctored = DiagGraph.from_neighbours(graph.group, graph.m, graph.nbr, tag)
    # the rows tagged at the smaller end alone cannot tell them apart
    assert np.array_equal(tagged_rows(doctored), tagged_rows(graph))
    assert not same_edge_set(graph, doctored)


def test_same_edge_set_catches_a_neighbour_listed_at_one_end_only():
    # a star on 0..3 plus the edge 4-5, where 3 no longer lists 0 back
    graph = from_rows(cyclic(6), 1, [(0, 1, 0), (0, 2, 0), (0, 3, 1), (4, 5, 2)])
    nbr = graph.nbr.copy()
    nbr[3, 0] = 6
    doctored = DiagGraph.from_neighbours(graph.group, graph.m, nbr, graph.tag)
    assert doctored.tag[3].tolist() == [-1, -1, -1]
    # the rows read at the smaller end alone cannot tell them apart
    assert np.array_equal(tagged_rows(doctored), tagged_rows(graph))
    assert not same_edge_set(graph, doctored)


def test_from_rows_pads_an_irregular_graph():
    # a star on 0..3 plus the edge 4-5, in no order, with one edge given twice
    rows = [(4, 5, 2), (0, 3, 1), (0, 1, 0), (0, 2, 0), (0, 3, 7)]
    graph = from_rows(cyclic(6), 1, rows)
    assert tagged_rows(graph).tolist() == [[0, 1, 0], [0, 2, 0], [0, 3, 1], [4, 5, 2]]
    assert graph.edges().tolist() == [[0, 1], [0, 2], [0, 3], [4, 5]]
    assert graph.nbr.tolist() == [[1, 2, 3], [0, 6, 6], [0, 6, 6], [0, 6, 6],
                                  [5, 6, 6], [4, 6, 6]]
    assert np.array_equal(graph.tag == -1, graph.nbr == 6)
    assert graph.tag.tolist() == [[0, 0, 1], [0, -1, -1], [0, -1, -1], [1, -1, -1],
                                  [2, -1, -1], [2, -1, -1]]
    empty = from_rows(cyclic(3), 1, [])
    assert empty.edges().shape == (0, 2) and empty.edge_count == 0
    assert empty.nbr.shape == empty.tag.shape == (3, 0)


def test_bron_kerbosch_skips_the_padding():
    # the padding n = 6 of the irregular star is no vertex, so no neighbour
    rows = [(4, 5, 2), (0, 3, 1), (0, 1, 0), (0, 2, 0)]
    graph = from_rows(cyclic(6), 1, rows)
    assert sorted(bron_kerbosch(graph.nbr)) == [(0, 1), (0, 2), (0, 3), (4, 5)]
    empty = from_rows(cyclic(3), 1, [])
    assert sorted(bron_kerbosch(empty.nbr)) == [(0,), (1,), (2,)]
