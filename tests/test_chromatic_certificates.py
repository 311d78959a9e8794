"""Certificates behind the chromatic verdict, checked against exact searches.

The absence certificate (product of all elements outside G') and the
existence witnesses are compared with the raw backtracking search and with
the Hall-Paige predicate.  The m = 2 lower bound chi >= q+2 rests on every
independent set of the dimension-2 graph having at most q-1 vertices when no
complete mapping exists; that is checked on the graphs themselves by an
exact maximum-clique search on the complement.
"""

from __future__ import annotations

import numpy as np
import pytest

from diaglab import chromatic
from diaglab.chromatic import (
    CompleteMapping,
    chromatic_verdict,
    find_complete_mapping,
    hall_paige_obstruction,
    hall_paige_predicate,
    is_complete_mapping,
    search_complete_mapping,
    tabucol,
    validate_coloring,
)
from diaglab.diaggraph import bron_kerbosch
from diaglab.groups import parse_group_spec

from conftest import graph_of, group_of
from replaced import adjacency_lists, from_rows, list_tabucol, padded
from test_chromatic import ORDER_AT_MOST_12, dicyclic12_table


def test_absence_certificate_matches_search_and_predicate(tmp_path):
    path = tmp_path / "dic3.tbl"
    path.write_text(dicyclic12_table())
    for spec in ORDER_AT_MOST_12 + [f"file:{path}"]:
        g = parse_group_spec(spec)
        absent = hall_paige_obstruction(g)
        assert absent == (search_complete_mapping(g) is None), spec
        assert absent == (not hall_paige_predicate(g)), spec
        assert absent == (find_complete_mapping(g) is None), spec


@pytest.mark.parametrize("spec", ["C17", "C5xC5", "C3xC3", "C2xC2xC5", "C5xC2xC2",
                                  "C3xD4", "Q8xC3"])
def test_witnesses_are_complete_mappings(spec):
    g = parse_group_spec(spec)
    cm = find_complete_mapping(g)
    assert cm is not None
    everything = list(range(g.order))
    assert sorted(cm.phi) == everything
    assert sorted(cm.psi(g)) == everything


def test_bad_witness_is_refused(monkeypatch):
    g = parse_group_spec("C2xC2xC5")
    monkeypatch.setattr(chromatic, "_product_mapping", lambda g, limit: (0,) * g.order)
    assert not is_complete_mapping(g, CompleteMapping(phi=(0,) * g.order))
    with pytest.raises(AssertionError, match="not a bijection"):
        find_complete_mapping(g)


def independence_number(graph) -> int:
    """Exact: the largest maximal clique of the complement."""
    everyone = set(range(graph.size))
    complement = [sorted(everyone - set(a) - {v})
                  for v, a in enumerate(adjacency_lists(graph))]
    return max(len(c) for c in bron_kerbosch(padded(complement)))


@pytest.mark.parametrize("spec", ["C2", "C4", "C6", "S3", "C8"])
def test_dimension_2_independent_sets_are_partial_transversals(spec):
    g = group_of(spec)
    assert find_complete_mapping(g) is None
    assert independence_number(graph_of(spec, 2)) == g.order - 1


@pytest.mark.parametrize("spec", ["C2", "C4", "C6", "S3", "C8", "D5", "C12"])
def test_tabucol_is_deterministic_and_proper(spec):
    q = group_of(spec).order
    graph = graph_of(spec, 2)
    first = tabucol(graph, q + 2)
    second = tabucol(graph, q + 2)
    assert first is not None and first == second
    assert validate_coloring(graph, first)
    assert first.count <= q + 2


@pytest.mark.parametrize("spec", ["C2", "C4", "C6", "S3", "C8", "C10", "C12", "C14",
                                  "C16", "C18", "C20"])
def test_tabucol_follows_the_list_based_search(spec):
    # the same seeded draws over the same moves in the same order
    graph = graph_of(spec, 2)
    k = group_of(spec).order + 2
    assert tabucol(graph, k) == list_tabucol(graph, k)


def test_tabucol_follows_the_list_based_search_on_an_irregular_graph():
    # degrees 1 to 6, so nbr is padded; 300 moves leave a conflict with two
    # colours and find a colouring with three
    rng = np.random.default_rng(5)
    rows = [(u, v, 0) for u in range(25) for v in range(u + 1, 25) if rng.random() < 0.15]
    graph = from_rows(group_of("C5"), 2, rows)
    assert (graph.nbr == graph.size).any()
    for k in (2, 3):
        assert tabucol(graph, k, 300) == list_tabucol(graph, k, 300), k
    assert tabucol(graph, 2, 300) is None and tabucol(graph, 3, 300) is not None


def test_tabucol_budget():
    graph = graph_of("C6", 2)
    assert tabucol(graph, 8, max_moves=0) is None
    # no 7-colouring exists, so no budget can find one
    assert tabucol(graph, 7, max_moves=200) is None


@pytest.mark.parametrize("spec", ["C2", "C4", "C6", "S3", "C8", "C10"])
def test_verdict_closes_q_plus_2_at_dimension_2(spec):
    g = group_of(spec)
    q = g.order
    v = chromatic_verdict(graph_of(spec, 2))
    assert (v.chi, v.lower, v.upper, v.conjecture) == (q + 2, q, q + 2, q + 2)
    assert validate_coloring(graph_of(spec, 2), v.coloring)


@pytest.mark.parametrize("spec,m", [("C2", 4), ("C2", 6), ("C4", 4)])
def test_verdict_pulls_back_at_even_dimension(spec, m):
    g = group_of(spec)
    v = chromatic_verdict(graph_of(spec, m))
    assert (v.chi, v.lower, v.upper) == (None, g.order, g.order + 2)
    assert validate_coloring(graph_of(spec, m), v.coloring)
    assert "pulled back through the homomorphism cascade to dimension 2" in v.reason


def test_verdict_without_upper_bound(monkeypatch):
    monkeypatch.setattr(chromatic, "tabucol", lambda graph, k: None)
    v = chromatic_verdict(graph_of("C6", 2))
    assert (v.chi, v.lower, v.upper) == (None, 6, None)
    assert any("no 8-colouring" in r for r in v.reason)
