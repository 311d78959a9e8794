"""The exact colouring search against plain fixed-order backtracking.

The oracle colours vertices in index order, trying every colour below k
that no earlier neighbour has, with no saturation ordering, no clique
seeding and no symmetry break.  It is slow but obviously correct on the
graphs used here.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.chromatic import chromatic_number_exact

from conftest import GRID, graph_of
from replaced import adjacency_lists, padded


def k_colourable(adjacency, k: int) -> bool:
    n = len(adjacency)
    colors = [-1] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        taken = {colors[w] for w in adjacency[v] if w < v}
        for c in range(k):
            if c not in taken:
                colors[v] = c
                if place(v + 1):
                    return True
        colors[v] = -1
        return False

    return place(0)


def oracle_chromatic_number(adjacency) -> int:
    k = 1
    while not k_colourable(adjacency, k):
        k += 1
    return k


def proper(adjacency, colors) -> bool:
    return all(colors[u] != colors[v] for u, nbrs in enumerate(adjacency) for v in nbrs)


def check_against_oracle(graph) -> None:
    adjacency = adjacency_lists(graph)
    chi = oracle_chromatic_number(adjacency)
    res = chromatic_number_exact(graph)
    assert (res.lower, res.upper, res.search_complete) == (chi, chi, True)
    assert proper(adjacency, res.coloring.colors)
    assert res.coloring.count == chi


def test_exact_matches_backtracking_on_small_grid_graphs():
    specs = [spec for spec, m in GRID if m == 2 and graph_of(spec, 2).size <= 25]
    assert specs == ["C2", "C3", "C4", "C5", "C2xC2"]
    for spec in specs:
        check_against_oracle(graph_of(spec, 2))


def test_exact_improves_on_a_suboptimal_greedy_start():
    # An 8-vertex graph that the greedy DSATUR pass colours with 4 colours
    # although 3 suffice, joined to a 5-cycle (every cycle vertex adjacent
    # to all 8).  The join has clique number 5 and chromatic number 6, and
    # greedy uses 7, so the search must open a colour beyond the seeded
    # clique and find the 6-colouring itself.
    small = [(0, 1), (0, 2), (0, 3), (0, 7), (1, 4), (1, 5), (1, 6), (2, 3),
             (2, 4), (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)]
    cycle = [(8 + i, 8 + (i + 1) % 5) for i in range(5)]
    join = [(a, b) for a in range(8) for b in range(8, 13)]
    nbrs = [set() for _ in range(13)]
    for u, v in small + cycle + join:
        nbrs[u].add(v)
        nbrs[v].add(u)
    graph = SimpleNamespace(size=13, nbr=padded([sorted(a) for a in nbrs]))
    greedy_only = chromatic_number_exact(graph, node_budget=0)
    assert (greedy_only.lower, greedy_only.upper, greedy_only.search_complete) == (5, 7, False)
    check_against_oracle(graph)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return SimpleNamespace(size=n, nbr=padded([sorted(a) for a in nbrs]))


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_exact_matches_backtracking_on_random_graphs(graph):
    check_against_oracle(graph)
