"""The whole-set array orbit count against the union-find count it replaced.

``replaced.orbit_count``, now the oracle for ``symmetry.rooted_orbit_counts``,
maps every item row through each generator as one numpy pass, finds the
image rows column by column and counts components by label propagation.  The oracle here is the per-item union-find loop over hashable
items that it replaced, kept verbatim.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.diaggraph import build_graph
from diaglab.semilattice import minimal_partitions
from diaglab.symmetry import TaggedPerm, diagonal_group_generators

from conftest import GRID, aut_of, clique_list_of, generators_of, graph_of, group_of
from replaced import UnionFind, all_maximal_cliques, orbit_count


def unionfind_orbit_count(perms: list[TaggedPerm], items: list) -> int:
    """Orbits of the induced action on hashable items."""
    index = {item: i for i, item in enumerate(items)}
    uf = UnionFind(len(items))

    def apply(perm: tuple[int, ...], item):
        if isinstance(item, int):
            return perm[item]
        return tuple(sorted(perm[x] for x in item))

    for p in perms:
        for i, item in enumerate(items):
            j = index[apply(p.image, item)]
            uf.union(i, j)
    return len({uf.find(i) for i in range(len(items))})


def top_cliques(cliques) -> list[tuple[int, ...]]:
    omega = max(len(c) for c in cliques)
    return sorted(c for c in cliques if len(c) == omega)


@pytest.mark.parametrize("spec,m", GRID)
def test_orbit_count_matches_unionfind_on_grid(spec, m):
    perms = list(generators_of(spec, m))
    graph = graph_of(spec, m)
    vertices = list(range(graph.size))
    edges = list(map(tuple, graph.edges().tolist()))
    assert orbit_count(perms, vertices) == unionfind_orbit_count(perms, vertices)
    assert orbit_count(perms, graph.edges()) == unionfind_orbit_count(perms, edges)
    top = top_cliques(clique_list_of(spec, m))
    assert orbit_count(perms, top) == unionfind_orbit_count(perms, top)


def test_orbit_count_wide_rows_c16_m3():
    # 16-point cliques on 4096 points: a radix key 4096^16 overflows int64
    g = group_of("C16")
    minimals = minimal_partitions(g, 3)
    graph = build_graph(g, minimals)
    top = top_cliques(all_maximal_cliques(graph))
    assert len(top[0]) == 16 and 4096**16 > 2**63
    perms = diagonal_group_generators(g, graph.codec, aut_of("C16"))
    assert orbit_count(perms, top) == unionfind_orbit_count(perms, top) == 1


@st.composite
def closed_actions(draw):
    """Random permutations of at most 12 points and the closure of random
    sorted k-tuples under them (k = 0 stands for bare int items)."""
    n = draw(st.integers(1, 12))
    perms = [
        TaggedPerm(tag=f"p{i}", image=tuple(draw(st.permutations(range(n)))))
        for i in range(draw(st.integers(0, 4)))
    ]
    k = draw(st.integers(0, 4))
    seeds = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=max(k, 1), max_size=max(k, 1)),
        min_size=1, max_size=6,
    ))
    found = {row[0] if k == 0 else tuple(sorted(row)) for row in seeds}
    frontier = list(found)
    while frontier:
        nxt = []
        for item in frontier:
            for p in perms:
                image = (int(p.image[item]) if k == 0
                         else tuple(sorted(int(p.image[x]) for x in item)))
                if image not in found:
                    found.add(image)
                    nxt.append(image)
        frontier = nxt
    return perms, sorted(found)


@settings(max_examples=200, deadline=None)
@given(closed_actions())
def test_orbit_count_matches_unionfind_random(action):
    perms, items = action
    assert orbit_count(perms, items) == unionfind_orbit_count(perms, items)


def test_orbit_count_rejects_unclosed_items():
    perms = list(generators_of("C3", 2))
    edges = graph_of("C3", 2).edges()
    with pytest.raises(AssertionError, match="generator (right-mult|diag-left-mult"
                       "|aut|coord-perm|inversion-map) maps an item outside"):
        orbit_count(perms, edges[:3])
    with pytest.raises(AssertionError, match="outside the item set"):
        orbit_count(perms, [0, 1])


def test_orbit_count_empty_items():
    assert orbit_count(list(generators_of("C3", 2)), []) == 0
