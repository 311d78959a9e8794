"""The bitset Bron-Kerbosch enumerator against the set-based one it replaced.

The oracle below is the earlier enumerator, copied unchanged: Python sets,
the pivot taken by a full ``max`` over P | X, and no early exit.  Both must
list the same maximal cliques, each exactly once.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab import diaggraph

from conftest import GRID, graph_of
from replaced import adjacency_lists, padded


def _bk_expand(
    r: list[int], p: set[int], x: set[int],
    nbr: list[set[int]], cliques: list[tuple[int, ...]],
) -> None:
    if not p and not x:
        cliques.append(tuple(sorted(r)))
        return
    pivot = max(p | x, key=lambda u: (len(p & nbr[u]), -u))
    for v in sorted(p - nbr[pivot]):
        _bk_expand(r + [v], p & nbr[v], x & nbr[v], nbr, cliques)
        p.remove(v)
        x.add(v)


def bron_kerbosch(adjacency: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """All maximal cliques, via pivoting over a fixed vertex order.

    The outer loop peels vertices in index order (each vertex only looks at
    later neighbours), which keeps subproblems at most the size of a
    neighbourhood.  The recursion is a module-level function, not a closure,
    so no reference cycle keeps the sets alive after the call returns.
    """
    nbr = [set(a) for a in adjacency]
    cliques: list[tuple[int, ...]] = []
    for v in range(len(adjacency)):
        later = {u for u in nbr[v] if u > v}
        earlier = {u for u in nbr[v] if u < v}
        _bk_expand([v], later, earlier, nbr, cliques)
    return cliques


def check_against_oracle(nbr) -> None:
    """``nbr`` is a padded neighbour array; the oracle reads it as lists."""
    got = diaggraph.bron_kerbosch(nbr)
    assert all(list(c) == sorted(set(c)) for c in got)
    n = len(nbr)
    adjacency = tuple(tuple(w for w in row if w < n) for row in nbr.tolist())
    assert sorted(got) == sorted(bron_kerbosch(adjacency))


def complement(adjacency) -> tuple[tuple[int, ...], ...]:
    everyone = set(range(len(adjacency)))
    return tuple(
        tuple(sorted(everyone - set(a) - {v})) for v, a in enumerate(adjacency)
    )


@pytest.mark.parametrize("spec,m", GRID + [("C16", 3)])
def test_grid_graphs(spec, m):
    check_against_oracle(graph_of(spec, m).nbr)


@pytest.mark.parametrize("spec", ["C2", "C4", "C6", "S3", "C8"])
def test_dense_complements_of_dimension_2(spec):
    check_against_oracle(padded(complement(adjacency_lists(graph_of(spec, 2)))))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):  # dense graphs too
        edges = set(pairs) - edges
    nbrs = [[] for _ in range(n)]
    for u, v in sorted(edges):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(a)) for a in nbrs)


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_random_graphs(adjacency):
    check_against_oracle(padded(adjacency))


def test_empty_graph():
    assert diaggraph.bron_kerbosch(padded(())) == []


def _record_expansions(monkeypatch) -> list[tuple[list[int], int, int]]:
    calls: list[tuple[list[int], int, int]] = []
    original = diaggraph._bk_expand

    def recorded(r, p, x, nbr, cliques):
        calls.append((list(r), p, x))
        original(r, p, x, nbr, cliques)

    monkeypatch.setattr(diaggraph, "_bk_expand", recorded)
    return calls


def test_outer_loop_branches_on_later_neighbours_only(monkeypatch):
    calls = _record_expansions(monkeypatch)
    graph = graph_of("C3", 3)
    adjacency = adjacency_lists(graph)
    diaggraph.bron_kerbosch(graph.nbr)
    outer = [(r, p, x) for r, p, x in calls if len(r) == 1]
    assert [r for r, _, _ in outer] == [[v] for v in range(len(adjacency))]
    for [v], p, x in outer:
        assert p == sum(1 << u for u in adjacency[v] if u > v)
        assert x == sum(1 << u for u in adjacency[v] if u < v)


def test_dominated_branch_returns_at_once(monkeypatch):
    # K4 on 0..3: with P = {1, 2} and X = {3}, vertex 3 is adjacent to all
    # of P, so no clique of this branch is maximal and nothing is expanded.
    nbr = [0b1110, 0b1101, 0b1011, 0b0111]
    calls = _record_expansions(monkeypatch)
    cliques: list[tuple[int, ...]] = []
    diaggraph._bk_expand([0], 0b0110, 0b1000, nbr, cliques)
    assert cliques == []
    assert calls == [([0], 0b0110, 0b1000)]
