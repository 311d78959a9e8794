"""The coset route of ``check-all`` and the one breadth-first search from 0.

Where the minimal partitions are certified to be the cosets of their blocks
B_i through vertex 0, ``coset_construction_agrees`` decides
``construction-agreement`` from the blocks, and ``is_coset_partition_graph``
certifies that the Cayley array is the partition graph.  Both must agree
with the entry-for-entry comparison of ``build_graph`` and ``cayley_graph``
on the grid and ``SYMMETRY_EXTRAS``, and on doctored inputs: a connection
set with a tuple dropped or retagged, and Q_1 given in place of Q_0, where
B_1 meets itself.  A 2-switched Cayley array keeps row 0 and its tags, so
only the translation certificate sees the switch.

The rooted diameter, distance-regularity check and neighbourhood
certificate read one search from vertex 0, ``DiagGraph.layers``, run once
per graph; its answers must equal the every-vertex path on vertex-
transitive graphs, and the search from vertex 0 alone on any graph.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings

from diaglab import diaggraph
from diaglab.cli import main
from diaglab.diaggraph import (
    _max_eccentricity,
    _sphere_counts,
    build_graph,
    cayley_graph,
    connection_vertices,
    coset_construction_agrees,
    diameter,
    is_coset_partition_graph,
    is_distance_regular,
    neighbourhood_is_a_base,
    same_edge_set,
)
from diaglab.semilattice import semilattice_and_hypothesis

from conftest import GRID_GROUPS, SYMMETRY_EXTRAS, graph_of, group_of, minimals_of
from replaced import bfs_distances, from_rows, tagged_rows
from replaced import is_distance_regular as bfs_is_distance_regular
from test_distance_regular_oracle import disjoint_unions, small_graphs
from test_translated_cliques import record_searches, two_switch

ROUTED = sorted({(spec, m) for spec in GRID_GROUPS for m in range(2, 5)
                 if group_of(spec).order ** m <= 4096} | set(SYMMETRY_EXTRAS))


def blocks_of(spec: str, m: int):
    sl, _ = semilattice_and_hypothesis(group_of(spec), minimals_of(spec, m))
    assert sl.blocks is not None
    return sl.blocks


def both_paths(spec: str, m: int, blocks=None, minimals=None):
    """``construction-agreement`` by the blocks and by the two arrays, each
    as its verdict or the message of its AssertionError."""
    g = group_of(spec)
    out = []
    for decide in (lambda: coset_construction_agrees(blocks or blocks_of(spec, m), g,
                                                     graph_of(spec, m).codec),
                   lambda: same_edge_set(build_graph(g, minimals or minimals_of(spec, m)),
                                         cayley_graph(g, m))):
        try:
            out.append(decide())
        except AssertionError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("spec,m", ROUTED)
def test_both_paths_agree(spec, m):
    assert both_paths(spec, m) == [True, True]
    cay = cayley_graph(group_of(spec), m)
    assert is_coset_partition_graph(cay, blocks_of(spec, m))
    assert same_edge_set(cay, graph_of(spec, m))


@pytest.mark.parametrize("spec", ["C2", "C3", "S3"])
def test_dimension_1_takes_both_constructions(spec):
    # Q_0 and Q_1 are both the one block G, so every edge lies in both; the
    # partition construction keeps one copy, and the blocks cannot tell
    blocks = blocks_of(spec, 1)
    assert not is_coset_partition_graph(cayley_graph(group_of(spec), 1), blocks)
    assert same_edge_set(cayley_graph(group_of(spec), 1), graph_of(spec, 1))


def drop_a_tuple(tuples, tag):
    return tuples[1:], tag[1:]


def retag_a_tuple(tuples, tag):
    tag = tag.copy()
    tag[-1] = (tag[-1] + 1) % 3
    return tuples, tag


@pytest.mark.parametrize("doctor", [drop_a_tuple, retag_a_tuple])
@pytest.mark.parametrize("spec,m", [("C3", 2), ("S3", 2), ("C2", 4)])
def test_a_doctored_connection_set_fails_on_both_paths(monkeypatch, capsys, doctor, spec, m):
    original = diaggraph.tagged_connection_set
    monkeypatch.setattr(diaggraph, "tagged_connection_set",
                        lambda g, m: doctor(*original(g, m)))
    assert both_paths(spec, m) == [False, False]
    ledgers = []
    for extra in ((), ("--paranoid",)):
        code = main(["check-all", "--group", spec, "--m", str(m), *extra])
        ledgers.append((code, capsys.readouterr().out))
    assert ledgers[0] == ledgers[1]
    agreement = next(c for c in json.loads(ledgers[0][1])["claims"]
                     if c["claim"] == "construction-agreement")
    assert agreement == {"claim": "construction-agreement", "passed": False,
                         "detail": "partition-based and connection-set edge sets coincide",
                         "conjectural": False}


@pytest.mark.parametrize("spec,m", [("C3", 2), ("S3", 2), ("C2", 4), ("C4", 3)])
def test_a_block_that_meets_another_fails_on_both_paths(spec, m):
    # Q_1 in place of Q_0: B_1 meets itself, and every edge of Q_1 lies in
    # two minimal partitions
    blocks, minimals = blocks_of(spec, m), minimals_of(spec, m)
    got = both_paths(spec, m, blocks[1:2] + blocks[1:], minimals[1:2] + minimals[1:])
    assert got == ["edge (0, 1) lies in two minimal partitions"] * 2
    # a block of Q_2 in place of Q_0 meets Q_2's at its least point, q
    got = both_paths(spec, m, blocks[2:3] + blocks[1:], minimals[2:3] + minimals[1:])
    q = group_of(spec).order
    assert got == [f"edge (0, {q}) lies in two minimal partitions"] * 2


@pytest.mark.parametrize("spec,m", [("C3", 3), ("S3", 2), ("Q8", 2)])
def test_a_two_switched_cayley_array_fails_the_translation_certificate(spec, m):
    switched = two_switch(cayley_graph(group_of(spec), m))
    star, tags = connection_vertices(switched.group, switched.codec)
    assert np.array_equal(switched.nbr[0], star) and np.array_equal(switched.tag[0], tags)
    assert coset_construction_agrees(blocks_of(spec, m), switched.group, switched.codec)
    assert not is_coset_partition_graph(switched, blocks_of(spec, m))
    assert not switched.translations_certified


def test_row_0_must_list_the_connection_set():
    # the tags of row 0 changed at both ends of each edge: the array still
    # passes the translation certificate, but not the check of its row 0
    spec, m = "C3", 3
    cay = cayley_graph(group_of(spec), m)
    rows = tagged_rows(cay)
    rows[:, 2] = (rows[:, 2] + 1) % (m + 1)
    retagged = from_rows(cay.group, m, rows)
    assert retagged.translations_certified
    assert not is_coset_partition_graph(retagged, blocks_of(spec, m))


# --- the one search from vertex 0 ------------------------------------------

def rooted_answers(graph):
    """The diameter and the distance-regularity verdict from vertex 0,
    read off the graph's layers."""
    return len(graph.layers) - 1, _sphere_counts(graph)


def assert_rooted_search_matches(graph) -> None:
    """The single search against the search from vertex 0 that each kernel
    ran before, on any graph."""
    ecc, regular = rooted_answers(graph)
    assert ecc == _max_eccentricity(graph, range(1)) == max(bfs_distances(graph, 0))
    assert regular == bfs_is_distance_regular(graph, False)
    reached = np.concatenate(graph.layers)
    assert sorted(reached.tolist()) == [v for v, d in enumerate(bfs_distances(graph, 0))
                                        if d >= 0]


@pytest.mark.parametrize("spec,m", ROUTED + [(spec, 1) for spec in GRID_GROUPS])
def test_single_search_matches_every_vertex(spec, m):
    graph = graph_of(spec, m)
    assert_rooted_search_matches(graph)
    assert rooted_answers(graph) == (diameter(graph, paranoid=True).bfs,
                                     is_distance_regular(graph, paranoid=True))


@pytest.mark.parametrize("spec,m", [("C3", 3), ("S3", 2), ("Q8", 2)])
def test_single_search_on_two_switched_graphs(spec, m):
    assert_rooted_search_matches(two_switch(graph_of(spec, m)))


def test_single_search_on_irregular_and_edgeless_graphs():
    graph = graph_of("C3", 2)
    assert_rooted_search_matches(from_rows(graph.group, graph.m, tagged_rows(graph)[1:]))
    empty = from_rows(group_of("C3"), 2, [])
    assert_rooted_search_matches(empty)
    assert rooted_answers(empty) == (0, (True, ((), ())))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_single_search_on_random_graphs(graph):
    assert_rooted_search_matches(graph)


@settings(max_examples=30, deadline=None)
@given(disjoint_unions())
def test_single_search_on_disconnected_unions(graph):
    assert_rooted_search_matches(graph)


def test_single_search_runs_once_per_graph(monkeypatch):
    searched = record_searches(monkeypatch)
    for spec, m in [("C3", 3), ("Q8", 2)]:
        graph = cayley_graph(group_of(spec), m)
        assert (diameter(graph).bfs, is_distance_regular(graph)[0]) == (2, m == 2)
        assert neighbourhood_is_a_base(graph)
        assert diameter(graph, paranoid=True).bfs == 2
    assert searched.get("distance_layers") == [1, 1]
    assert searched["_max_eccentricity"] == [27, 64]


def test_sphere_counts_within_small_blocks(monkeypatch):
    monkeypatch.setattr(diaggraph, "BLOCK_BYTES", 1)
    for spec, m in [("C2", 4), ("C3", 3)]:
        graph = cayley_graph(group_of(spec), m)
        assert rooted_answers(graph) == (diameter(graph, paranoid=True).bfs,
                                         is_distance_regular(graph, paranoid=True))
