"""The rooted clique census and the translation certificate against
whole-graph Bron-Kerbosch.

``maximal_cliques`` reads the cliques through vertex 0 once
``translations_are_automorphisms`` certifies that every right translation
is an automorphism, and counts the rest.  Bron-Kerbosch on the whole graph
lists every maximal clique; both must agree in the clique number, the
numbers of maximal and of maximum cliques and the cliques through 0, on
diagonal graphs and on other Cayley graphs of G^m.  Graphs that fail the
certificate must also fail the N(v) = N(0)·v check of the list-based
translation, ``replaced.translated_cliques``.

The certificate tests N(v) = N(0)·v at every v in one sort of translated
rows.  It must agree with the check it replaced, one whole-graph check per
right multiplication by a generator
(``replaced.generator_translations_are_automorphisms``), on the grid at
m = 1..4, ``SYMMETRY_EXTRAS``, C16 m=3, the exceptional graphs, the
2-switched, irregular and edgeless graphs and random Cayley graphs, and on
random graphs and graphs that only one coordinate's right multiplications
preserve, where both fail.
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab import diaggraph, spectral
from diaglab.diaggraph import (
    DiagGraph,
    _clique_census,
    bron_kerbosch,
    build_graph,
    diameter,
    is_distance_regular,
    maximal_cliques,
    translations_are_automorphisms,
)
from diaglab.errors import CapExceededError
from diaglab.partitions import Partition
from diaglab.semilattice import minimal_partitions
from diaglab.spectral import spectrum_trace_moments

from conftest import GRID, GRID_GROUPS, SYMMETRY_EXTRAS, edge_set, graph_of, group_of, minimals_of
from replaced import (
    TupleCodec,
    adjacency_lists,
    from_rows,
    generator_translations_are_automorphisms,
    tagged_rows,
    translated_cliques,
)

EXCEPTIONAL = [("C2", 2), ("C3", 2), ("C2xC2", 2), ("C4", 2)]
CERTIFIED = sorted({(spec, m) for spec in GRID_GROUPS for m in range(1, 5)}
                   | set(SYMMETRY_EXTRAS) | {("C16", 3)} | set(EXCEPTIONAL))
COMPLETE = ["C2", "C3", "C5", "C2xC2", "S3", "Q8"]


def oracle_census(g, graph) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """The number of maximal cliques of each size, and those through 0, from
    Bron-Kerbosch on the whole graph."""
    cliques = bron_kerbosch(graph.nbr)
    return dict(Counter(map(len, cliques))), sorted(c for c in cliques if 0 in c)


def assert_census_matches(g, graph, whole: bool = False) -> None:
    cliques, counts = _clique_census(graph, whole)
    assert all(list(c) == sorted(set(c)) for c in cliques)
    want_counts, want_at_zero = oracle_census(g, graph)
    assert counts == want_counts
    assert sorted(c for c in cliques if c[0] == 0) == want_at_zero


def record_sizes(monkeypatch) -> list[int]:
    """Replace Bron-Kerbosch by a wrapper that records each graph's size."""
    sizes: list[int] = []
    original = diaggraph.bron_kerbosch

    def counted(nbr):
        sizes.append(len(nbr))
        return original(nbr)

    monkeypatch.setattr(diaggraph, "bron_kerbosch", counted)
    return sizes


def record_searches(monkeypatch) -> dict[str, list[int]]:
    """Spy on the shortcuts from vertex 0 and their every-vertex forms:
    how many base vertices or walk starts each kernel cuts into blocks,
    keyed by the kernel's name, and under "bron_kerbosch" the size of each
    graph the clique census searches.  The every-vertex forms give n."""
    searched: dict[str, list[int]] = {"bron_kerbosch": record_sizes(monkeypatch)}
    for module in (diaggraph, spectral):
        def spy(starts, bits_per_start, cut=module.start_blocks):
            caller = sys._getframe(1).f_code.co_name
            if caller != "bron_kerbosch":  # its graphs are sized by record_sizes
                searched.setdefault(caller, []).append(len(starts))
            return cut(starts, bits_per_start)

        monkeypatch.setattr(module, "start_blocks", spy)
    return searched


def certified(graph) -> bool:
    """The certificate, held to the per-generator oracle."""
    verdict = translations_are_automorphisms(graph)
    assert verdict == generator_translations_are_automorphisms(graph)
    return verdict


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
                return from_rows(graph.group, graph.m, rows)
    raise AssertionError("no 2-switch found")


@pytest.mark.parametrize("spec,m", GRID + [("C16", 3)] + EXCEPTIONAL)
def test_grid_graphs(spec, m):
    g, graph = group_of(spec), graph_of(spec, m)
    assert certified(graph)
    assert_census_matches(g, graph)
    counts, at_zero = oracle_census(g, graph)
    rep = maximal_cliques(graph, minimals_of(spec, m))
    omega = max(counts)
    assert (rep.clique_number, rep.count, rep.max_count, list(rep.through_zero)) == (
        omega, sum(counts.values()), counts[omega], at_zero)


@pytest.mark.parametrize("spec", COMPLETE)
def test_complete_graphs_of_dimension_1(spec):
    g = group_of(spec)
    minimals = minimal_partitions(g, 1)
    graph = build_graph(g, minimals)
    everything = tuple(range(g.order))
    assert certified(graph)
    assert _clique_census(graph, False) == ([everything], {g.order: 1})
    assert_census_matches(g, graph)
    rep = maximal_cliques(graph, minimals)
    assert (rep.clique_number, rep.count, rep.through_zero) == (g.order, 1, (everything,))


@pytest.mark.parametrize("spec,m", [("C3", 3), ("S3", 2), ("Q8", 2)])
def test_two_switch_falls_back(spec, m):
    g = group_of(spec)
    switched = two_switch(graph_of(spec, m))
    assert len({len(a) for a in adjacency_lists(switched)}) == 1  # still regular
    assert not certified(switched)
    assert translated_cliques(switched) is None
    assert_census_matches(g, switched, whole=True)


@pytest.mark.parametrize("spec,m", [("C3", 3), ("S3", 2)])
def test_shortcuts_search_every_vertex_of_a_two_switched_graph(monkeypatch, spec, m):
    # with default arguments, each shortcut from vertex 0 reads the failed
    # certificate and searches from every vertex, whatever it then finds
    switched = two_switch(graph_of(spec, m))
    searched = record_searches(monkeypatch)
    diameter(switched)
    is_distance_regular(switched)
    with contextlib.suppress(AssertionError):
        spectrum_trace_moments(switched)
    with contextlib.suppress(AssertionError):
        maximal_cliques(switched, minimals_of(spec, m))
    n = switched.size
    assert searched == {"_max_eccentricity": [n], "is_distance_regular": [n],
                        "_walk_blocks": [n], "bron_kerbosch": [n]}
    assert not switched.translations_certified


def test_irregular_graph_falls_back():
    g = group_of("C3")
    graph = graph_of("C3", 2)
    broken = from_rows(graph.group, graph.m, tagged_rows(graph)[1:])
    assert not certified(broken)
    assert translated_cliques(broken) is None
    assert_census_matches(g, broken, whole=True)


def test_edgeless_graph_gives_singletons():
    g = group_of("C3")
    empty = from_rows(g, 2, [])
    assert certified(empty)
    assert _clique_census(empty, False) == ([(0,)], {1: 9})
    assert _clique_census(empty, True) == ([(v,) for v in range(9)], {1: 9})


@pytest.mark.parametrize("spec,m", GRID)
def test_default_path_enumerates_only_the_neighbourhood(monkeypatch, spec, m):
    g, graph = group_of(spec), graph_of(spec, m)
    sizes = record_sizes(monkeypatch)
    maximal_cliques(graph, minimals_of(spec, m))
    assert sizes and max(sizes) <= graph.valency


@pytest.mark.parametrize("spec,m", [("C3", 3), ("Q8", 2), ("C4", 3)])
def test_paranoid_runs_the_full_enumeration(monkeypatch, spec, m):
    g, graph = group_of(spec), graph_of(spec, m)
    sizes = record_sizes(monkeypatch)
    report = maximal_cliques(graph, minimals_of(spec, m), paranoid=True)
    assert sizes == [graph.size]
    assert report == maximal_cliques(graph, minimals_of(spec, m))


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
    return g, from_rows(g, m, [(u, v, 0) for u, v in tagged])


@settings(max_examples=150, deadline=None)
@given(cayley_graphs())
def test_random_cayley_graphs(case):
    g, graph = case
    assert certified(graph)
    assert translated_cliques(graph) is not None
    assert_census_matches(g, graph)


def test_census_that_does_not_spread_evenly_is_caught():
    # vertex 0 lies in one maximal 2-clique, and 9 * 1 / 2 is not whole
    one_edge = from_rows(group_of("C3"), 2, [(0, 1, 0)])
    with pytest.raises(AssertionError, match="1 maximal cliques of 2 vertices through "
                       "vertex 0 do not spread evenly over 9 vertices"):
        _clique_census(one_edge, False)


@pytest.mark.parametrize("spec,m", CERTIFIED)
def test_certificate_agrees_with_the_per_generator_oracle(spec, m):
    assert certified(graph_of(spec, m))


def test_edgeless_row_0_of_a_graph_with_edges_fails():
    g = group_of("C3")
    assert not certified(from_rows(g, 2, [(1, 2, 0)]))


@st.composite
def random_graphs(draw):
    """A graph on G^m with random edges, most of them not invariant under
    right translation."""
    spec = draw(st.sampled_from(["C2", "C3", "C2xC2", "S3"]))
    g = group_of(spec)
    m = draw(st.integers(1, 3 if g.order <= 3 else 2))
    n = g.order**m
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))
    return from_rows(g, m, [(u, v, 0) for u, v in pairs if u < v])


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_random_graphs_agree_with_the_oracle(graph):
    certified(graph)


def test_certificate_needs_transitive_generators():
    # the edges {h, u·h} for h in the first coordinate's subgroup added to
    # the diagonal graph of C3^3, with u = (1, 1, 0) no neighbour of 0:
    # the first coordinate's right multiplications still preserve the
    # graph, but those of the second move the edge {0, u} to a non-edge
    g, graph = group_of("C3"), graph_of("C3", 3)
    u = 1 + 3
    extra = [(a, (a + 1) % 3 + 3, 0) for a in range(3)]
    assert u not in graph.nbr[0] and (0, u, 0) in extra
    grown = from_rows(g, 3, tagged_rows(graph).tolist() + extra)
    first, second = diaggraph.right_translations(g, grown.codec)[:2]
    diaggraph.check_automorphisms(grown, [first])
    with pytest.raises(AssertionError):
        diaggraph.check_automorphisms(grown, [second])
    assert not certified(grown)


PARTS_MESSAGE = "maximum cliques are not exactly the partition parts"


def test_extra_partition_of_non_cliques_is_caught():
    # every maximum clique is still a part, but the extra partition's
    # blocks are no cliques, and the parts outnumber the maximum cliques
    g, graph, minimals = group_of("C3"), graph_of("C3", 3), minimals_of("C3", 3)
    order = np.random.default_rng(3).permutation(graph.size)
    bogus = Partition.from_labels(order // 3)
    block = np.flatnonzero(bogus.block_of == bogus.block_of[0])
    assert not set(block.tolist()) - {0} <= set(graph.nbr[0].tolist())
    for paranoid in (False, True):
        with pytest.raises(AssertionError, match=PARTS_MESSAGE + ": 36 maximum "
                           "cliques, 45 parts"):
            maximal_cliques(graph, minimals + [bogus], paranoid=paranoid)


@pytest.mark.parametrize("paranoid", [False, True])
def test_partition_with_a_larger_block_is_caught(paranoid):
    # two blocks of Q_1 away from 0 merged and one of Q_2 split: the parts
    # still number as many as the maximum cliques, and those through 0 are
    # parts, but some parts do not have q points
    g, graph, minimals = group_of("C3"), graph_of("C3", 3), minimals_of("C3", 3)
    q1, q2 = minimals[1].blocks(), minimals[2].blocks()
    merged = q1[:-2] + [q1[-2] + q1[-1]]
    split = q2[:-1] + [q2[-1][:1], q2[-1][1:]]
    doctored = [minimals[0], Partition.from_blocks(merged),
                Partition.from_blocks(split)] + minimals[3:]
    assert sum(p.block_count for p in doctored) == sum(p.block_count for p in minimals)
    with pytest.raises(AssertionError, match=PARTS_MESSAGE + "$"):
        maximal_cliques(graph, doctored, paranoid=paranoid)


@pytest.mark.parametrize("paranoid", [False, True])
def test_maximum_clique_outside_the_parts_is_caught(paranoid):
    # Q_1 in place of Q_m: as many parts as maximum cliques, but the parts
    # of Q_m through 0 are maximum cliques in no given part
    g, graph, minimals = group_of("C3"), graph_of("C3", 3), minimals_of("C3", 3)
    with pytest.raises(AssertionError, match=PARTS_MESSAGE + "$"):
        maximal_cliques(graph, minimals[:-1] + minimals[1:2], paranoid=paranoid)


@pytest.mark.parametrize("paranoid", [False, True])
@pytest.mark.parametrize("spec,m,cliques,parts", [("C3", 3, 36, 45), ("C5", 2, 15, 20)])
def test_more_parts_than_maximum_cliques_is_caught(paranoid, spec, m, cliques, parts):
    # Q_1 twice: every part is a maximum clique, and only the count of the
    # parts against the maximum cliques sees the repeat
    g, graph, minimals = group_of(spec), graph_of(spec, m), minimals_of(spec, m)
    with pytest.raises(AssertionError, match=PARTS_MESSAGE + f": {cliques} maximum "
                       f"cliques, {parts} parts"):
        maximal_cliques(graph, minimals + minimals[1:2], paranoid=paranoid)


def test_paranoid_checks_the_parts_away_from_0():
    # Q_1 with one point swapped between two blocks away from 0: blocks of
    # q points that are no cliques.  Vertex 0 sees only true parts and the
    # count still holds; only the whole-graph scope sees the two maximum
    # cliques that lie in no part
    g, graph, minimals = group_of("C3"), graph_of("C3", 3), minimals_of("C3", 3)
    members = minimals[1].blocks()
    a, b = members[-1][0], members[-2][0]
    labels = minimals[1].block_of.copy()
    labels[[a, b]] = labels[[b, a]]
    doctored = [minimals[0], Partition.from_labels(labels)] + minimals[2:]
    maximal_cliques(graph, doctored)
    with pytest.raises(AssertionError, match=PARTS_MESSAGE + "$"):
        maximal_cliques(graph, doctored, paranoid=True)


@pytest.mark.parametrize("paranoid", [False, True])
def test_smaller_maximal_clique_above_dimension_two_is_caught(monkeypatch, paranoid):
    census = diaggraph._clique_census

    def with_an_edge(graph, paranoid):
        cliques, counts = census(graph, paranoid)
        return cliques + [(0, graph.size - 1)], {**counts, 2: graph.size // 2}

    monkeypatch.setattr(diaggraph, "_clique_census", with_an_edge)
    with pytest.raises(AssertionError, match="a maximal clique below maximum size exists"):
        maximal_cliques(graph_of("C3", 3), minimals_of("C3", 3),
                        paranoid=paranoid)


def test_clique_number_against_the_wrong_group_is_caught():
    # the edgeless graph on C3^3: its translations are automorphisms, and
    # its maximal cliques are single vertices
    empty = from_rows(group_of("C3"), 3, [])
    with pytest.raises(AssertionError, match="clique number 1 differs from group order 3"):
        maximal_cliques(empty, minimals_of("C3", 3))


def test_exceptional_counts_are_checked():
    # the rook's graph complement carrying the cyclic group of order 4,
    # which names the Shrikhande complement, whose counts it does not have
    graph = graph_of("C2xC2", 2)
    relabelled = DiagGraph.from_neighbours(group_of("C4"), 2, graph.nbr, graph.tag)
    with pytest.raises(AssertionError, match="exceptional graph complement of the "
                       "Shrikhande graph does not match its table entry"):
        maximal_cliques(relabelled, minimals_of("C2xC2", 2))


def test_whole_graph_enumeration_keeps_its_cap(monkeypatch):
    monkeypatch.setattr(diaggraph, "CLIQUE_VERTEX_CAP", 8)
    g, graph, minimals = group_of("C3"), graph_of("C3", 2), minimals_of("C3", 2)
    with pytest.raises(CapExceededError, match="9 vertices exceeds clique cap 8"):
        maximal_cliques(graph, minimals, paranoid=True)
    assert maximal_cliques(graph, minimals).count == 27
