from __future__ import annotations

import gc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from diaglab.diaggraph import (
    CLIQUE_VERTEX_CAP,
    bron_kerbosch,
    cayley_graph,
    clique_cover,
    connection_set,
    diameter,
    export_graph,
    is_distance_regular,
    maximal_cliques,
    same_edge_set,
    to_graph6,
)
from diaglab.groups import cyclic
from diaglab.semilattice import minimal_partitions

from conftest import clique_list_of, cliques_of, edge_set, graph_of, group_of, minimals_of
from replaced import (
    adjacency_lists,
    bfs_distances,
    common_neighbours,
    from_blocks,
    padded,
    parse_graph6,
    tagged_rows,
)


def test_k4():
    g = graph_of("C2", 2)
    assert g.size == 4
    assert all(len(nb) == 3 for nb in adjacency_lists(g))


def test_k333():
    g = graph_of("C3", 2)
    assert g.size == 9
    assert all(len(nb) == 6 for nb in adjacency_lists(g))
    # complement classes are three disjoint transversal triples
    non_adj = [
        (u, v) for u, v in combinations(range(9), 2) if v not in adjacency_lists(g)[u]
    ]
    assert len(non_adj) == 9


def test_c3_m3_valency_8():
    g = graph_of("C3", 3)
    assert g.size == 27
    assert all(len(nb) == 8 for nb in adjacency_lists(g))


def test_m1_is_complete_graph():
    g = graph_of("C5", 1)
    assert g.size == 5
    assert all(len(nb) == 4 for nb in adjacency_lists(g))


def test_group_order_one_rejected():
    from diaglab.diaggraph import build_graph

    with pytest.raises(ValueError):
        build_graph(cyclic(1), minimal_partitions(cyclic(1), 2))


def test_connection_set_c3_m3():
    conn = connection_set(cyclic(3), 3)
    expected = {
        (1, 0, 0), (2, 0, 0),  # a, a^2
        (0, 1, 0), (0, 2, 0),  # b, b^2
        (0, 0, 1), (0, 0, 2),  # c, c^2
        (1, 1, 1), (2, 2, 2),  # abc, (abc)^2
    }
    assert set(conn.tuples) == expected


def test_connection_set_k4():
    conn = connection_set(cyclic(2), 2)
    assert set(conn.tuples) == {(1, 0), (0, 1), (1, 1)}


def test_connection_set_size_and_inverse_closure(grid):
    for spec, m in grid:
        g = group_of(spec)
        conn = connection_set(g, m)
        assert len(conn.tuples) == (m + 1) * (g.order - 1)
        for s in conn.tuples:
            assert any(x != 0 for x in s)
            assert tuple(g.inv[x] for x in s) in set(conn.tuples)


def test_constructions_agree(grid):
    for spec, m in grid:
        a = graph_of(spec, m)
        b = cayley_graph(group_of(spec), m)
        assert same_edge_set(a, b), (spec, m)
        assert np.array_equal(tagged_rows(a), tagged_rows(b)), (spec, m)


def test_valency_and_edge_count(grid):
    for spec, m in grid:
        g = graph_of(spec, m)
        k = (m + 1) * (g.q - 1)
        assert all(len(nb) == k for nb in adjacency_lists(g)), (spec, m)
        assert 2 * len(g.edges()) == 2 * g.edge_count == g.size * k


def test_edge_tags_unique_and_consistent(grid):
    from diaglab.semilattice import minimal_partitions

    for spec, m in grid[:6]:
        g = graph_of(spec, m)
        parts = minimal_partitions(group_of(spec), m)
        for u, v, tag in zip(np.arange(g.size).repeat(g.nbr.shape[1]).tolist(),
                             g.nbr.ravel().tolist(), g.tag.ravel().tolist()):
            owners = [
                i for i, p in enumerate(parts) if p.block_of[u] == p.block_of[v]
            ]
            assert owners == [tag]


def test_bfs_example_distance_two():
    g = graph_of("C3", 3)
    ab = g.codec.index((1, 1, 0))
    dist = bfs_distances(g, 0)
    assert dist[ab] == 2
    assert dist[0] == 0


def test_eccentricity_k4():
    g = graph_of("C2", 2)
    for v in range(4):
        assert max(bfs_distances(g, v)) == 1


@pytest.mark.parametrize(
    "spec,m,expected",
    [("C3", 3, 2), ("C2", 2, 1), ("C5", 2, 2), ("C2", 5, 3), ("C4", 3, 3)],
)
def test_diameter_examples(spec, m, expected):
    rep = diameter(graph_of(spec, m))
    assert rep.bfs == rep.formula == expected


def test_diameter_formula_grid(grid):
    # diameter = m exactly when q >= m+1 (the formula's ceiling term is 1);
    # q = m+1 already attains the maximum, e.g. the complete tripartite case
    for spec, m in grid:
        g = graph_of(spec, m)
        rep = diameter(g)
        assert rep.ok, (spec, m)
        assert (rep.bfs == m) == (g.q >= m + 1), (spec, m)


def test_diameter_equals_m_at_q_equal_m_plus_one():
    rep = diameter(graph_of("C3", 2))
    assert rep.bfs == rep.formula == 2


def test_common_neighbours_example():
    g = graph_of("C3", 3)
    def enc(tup):
        return int(g.codec.index(tup))

    ab = enc((1, 1, 0))
    a2b = enc((2, 1, 0))
    # the four common neighbours of the identity and ab, by the quotient
    # rule: a, b, c^2 and abc
    assert common_neighbours(g, 0, ab) == sorted(
        [enc((1, 0, 0)), enc((0, 1, 0)), enc((0, 0, 2)), enc((1, 1, 1))]
    )
    assert common_neighbours(g, 0, a2b) == sorted([enc((2, 0, 0)), enc((0, 1, 0))])
    assert len(common_neighbours(g, 0, ab)) == 4
    assert len(common_neighbours(g, 0, a2b)) == 2


def test_edge_in_unique_maximal_clique_above_dim_two():
    g = graph_of("C3", 3)
    cliques = clique_list_of("C3", 3)
    for u, v in g.edges().tolist():
        containing = [c for c in cliques if u in c and v in c]
        assert len(containing) == 1


def test_cliques_c3_m3():
    rep = cliques_of("C3", 3)
    assert rep.clique_number == 3
    assert rep.count == rep.max_count == 36
    assert len(rep.through_zero) == 4 and all(len(c) == 3 for c in rep.through_zero)
    assert not rep.exceptional


def test_cliques_exceptional_k4():
    rep = cliques_of("C2", 2)
    assert rep.exceptional
    assert rep.clique_number == 4
    assert rep.count == 1


def test_cliques_exceptional_pair_distinguished():
    shr = cliques_of("C4", 2)
    rook = cliques_of("C2xC2", 2)
    assert shr.exceptional and rook.exceptional
    assert shr.clique_number == rook.clique_number == 4
    assert (rook.max_count, shr.max_count) == (24, 16)
    assert shr.count != rook.count


def test_cliques_grid_m_above_two(grid):
    for spec, m in grid:
        if m <= 2:
            continue
        g = graph_of(spec, m)
        rep = cliques_of(spec, m)
        assert rep.clique_number == g.q, (spec, m)
        assert rep.count == (m + 1) * g.q ** (m - 1), (spec, m)
        assert rep.max_count == rep.count
        assert all(len(c) == g.q for c in rep.through_zero)


def test_clique_cover_examples():
    cover = clique_cover(graph_of("C3", 2), minimals_of("C3", 2))
    assert cover.size == 3
    cover = clique_cover(graph_of("C2", 3), minimals_of("C2", 3))
    assert cover.size == 4
    assert cover.lower_bound == 4
    cover = clique_cover(graph_of("C3", 3), minimals_of("C3", 3))
    assert cover.size == 9
    assert cover.lower_bound == 9


def test_clique_cover_names_the_first_block_that_is_no_clique():
    # the last points of Q_1's last two blocks swapped: both blocks stop
    # being cliques, and the one with the smaller first point is named
    graph, minimals = graph_of("C3", 3), minimals_of("C3", 3)
    blocks = minimals[1].blocks()
    x, y = blocks[-2][-1], blocks[-1][-1]
    doctored = from_blocks(blocks[:-2] + [blocks[-2][:-1] + [y],
                                                    blocks[-1][:-1] + [x]])
    adjacent = [set(row.tolist()) for row in graph.nbr]
    bad = [blk for blk in doctored.blocks()
           if any(v not in adjacent[u] for u in blk for v in blk if u != v)]
    assert len(bad) == 2
    with pytest.raises(AssertionError, match=rf"cover block \({', '.join(map(str, bad[0]))}\) "
                       "is not a clique"):
        clique_cover(graph, [minimals[0], doctored] + minimals[2:])


def test_clique_cover_catches_one_missing_edge():
    # one edge inside Q_1's last block taken out of nbr at both ends: the
    # block falls short by a single pair
    graph, minimals = graph_of("C3", 3), minimals_of("C3", 3)
    block = minimals[1].blocks()[-1]
    u, v = block[:2]
    nbr = graph.nbr.copy()
    nbr[u][nbr[u] == v] = graph.size
    nbr[v][nbr[v] == u] = graph.size
    with pytest.raises(AssertionError, match=rf"cover block \({', '.join(map(str, block))}\) "
                       "is not a clique"):
        clique_cover(replace(graph, nbr=nbr), minimals)


def test_distance_regular_verdicts():
    assert is_distance_regular(graph_of("C3", 3)) == (False, None)
    ok, arrays = is_distance_regular(graph_of("C2", 4))
    assert ok and arrays == ((5, 4), (1, 2))
    ok, arrays = is_distance_regular(graph_of("C4", 2))
    assert ok and arrays == ((9, 4), (1, 6))


def test_distance_regular_paranoid_matches():
    for spec, m in [("C3", 3), ("C2", 4), ("C4", 2), ("S3", 2)]:
        g = graph_of(spec, m)
        assert is_distance_regular(g, paranoid=True)[0] == is_distance_regular(g)[0]


def test_distance_regular_iff_grid(grid):
    for spec, m in grid:
        g = graph_of(spec, m)
        verdict, _ = is_distance_regular(g)
        assert verdict == (m == 2 or g.q == 2), (spec, m)


def test_folded_cube_identity():
    # binary tuples: cube edges flip one bit, the extra matching flips all
    for m in (3, 4, 5):
        g = graph_of("C2", m)
        expected = set()
        for v in range(g.size):
            for i in range(m):
                w = v ^ (1 << i)
                expected.add((min(v, w), max(v, w)))
            w = v ^ ((1 << m) - 1)
            expected.add((min(v, w), max(v, w)))
        assert edge_set(g) == expected


def test_graph6_k4():
    assert to_graph6(graph_of("C2", 2)) == b"C~"


def test_graph6_round_trip(grid):
    for spec, m in grid[:8]:
        g = graph_of(spec, m)
        adj = parse_graph6(to_graph6(g))
        assert adj == adjacency_lists(g)


def test_graph6_long_form():
    g = graph_of("C3", 5)  # 243 vertices forces the long size form
    s = to_graph6(g)
    assert s.startswith(b"~")
    adj = parse_graph6(s)
    assert adj == adjacency_lists(g)


def test_export_dot_and_edgelist():
    g = graph_of("C2", 2)
    dot = export_graph(g, "dot")
    assert '"0,0"' in dot and dot.count("--") == 6
    edges = export_graph(g, "edgelist")
    assert len(edges.splitlines()) == 6
    with pytest.raises(ValueError):
        export_graph(g, "adjacency")


def property_report(g, graph, minimals) -> dict:
    """JSON-ready summary of the graph's headline parameters."""
    diam = diameter(graph)
    dr, arrays = is_distance_regular(graph)
    report = {
        "q": graph.q,
        "m": graph.m,
        "N": graph.size,
        "valency": graph.valency,
        "edges": graph.edge_count,
        "diameter": diam.bfs,
        "diameter_formula": diam.formula,
        "dr": dr,
    }
    if arrays is not None and dr:
        report["intersection_array"] = [list(arrays[0]), list(arrays[1])]
    if graph.size <= CLIQUE_VERTEX_CAP:
        report["clique_number"] = maximal_cliques(graph, minimals).clique_number
    return report


def test_property_report_keys():
    rep = property_report(group_of("C3"), graph_of("C3", 3), minimals_of("C3", 3))
    assert rep["q"] == 3 and rep["m"] == 3 and rep["N"] == 27
    assert rep["valency"] == 8
    assert rep["diameter"] == rep["diameter_formula"] == 2
    assert rep["dr"] is False
    assert rep["clique_number"] == 3


def test_bron_kerbosch_small_reference():
    # path 0-1-2 plus triangle 2-3-4
    adjacency = ((1,), (0, 2), (1, 3, 4), (2, 4), (2, 3))
    cliques = bron_kerbosch(padded(adjacency))
    assert sorted(cliques) == [(0, 1), (1, 2), (2, 3, 4)]


def test_bron_kerbosch_leaves_no_garbage():
    # a reference cycle would keep the sets and the clique list alive until
    # the cyclic collector ran
    nbr = graph_of("C8", 3).nbr
    gc.collect()
    gc.disable()
    try:
        cliques = bron_kerbosch(nbr)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert len(cliques) == 4 * 512 // 8
