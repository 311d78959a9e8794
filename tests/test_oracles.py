"""Brute-force cross-checks for the three backtracking/chain algorithms.

Each search result is compared against an exhaustive enumeration small
enough to be obviously correct.
"""

from __future__ import annotations

from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.chromatic import find_complete_mapping
from diaglab.groups import automorphism_group, parse_group_spec
from diaglab.semilattice import VertexCodec
from diaglab.symmetry import (
    TaggedPerm,
    action_on_partitions,
    build_chain,
    partition_chain,
    vertex_stabiliser_generators,
)

from conftest import GRID, SYMMETRY_EXTRAS, generators_of, group_of, minimals_of


def closure_order(gens: list[tuple[int, ...]]) -> int:
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                c = tuple(a[x] for x in s)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 8).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(n))), min_size=1, max_size=4
        )
    )
)
def test_schreier_sims_matches_closure(perm_lists):
    gens = [tuple(p) for p in perm_lists]
    tagged = [TaggedPerm(tag="t", image=p) for p in gens]
    assert build_chain(tagged).order() == closure_order(gens)


def test_induced_closure_matches_bfs_on_grid():
    # the first m+1 levels of the one chain of D_0 against the closure of
    # the action of D's generators
    for spec, m in GRID + SYMMETRY_EXTRAS:  # m <= 7, so at most 8! elements
        perms = list(generators_of(spec, m))
        minimals = minimals_of(spec, m)
        g = group_of(spec)
        stabiliser = vertex_stabiliser_generators(g, VertexCodec(q=g.order, m=m), perms)
        chain = partition_chain(perms, stabiliser, minimals)
        induced = action_on_partitions(perms, minimals)
        assert chain.order(m + 1) == closure_order(induced), (spec, m)


def brute_force_automorphisms(g) -> list[tuple[int, ...]]:
    out = []
    for phi in permutations(range(g.order)):
        if phi[0] != 0:
            continue
        if all(
            phi[g.mul[a][b]] == g.mul[phi[a]][phi[b]]
            for a in range(g.order)
            for b in range(g.order)
        ):
            out.append(phi)
    return out


def test_automorphism_search_matches_brute_force():
    for spec in ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7", "D4", "Q8", "C8"]:
        g = parse_group_spec(spec)
        assert sorted(automorphism_group(g)) == sorted(brute_force_automorphisms(g)), spec


def brute_force_complete_mappings(g) -> int:
    count = 0
    for phi in permutations(range(g.order)):
        prods = {g.mul[x][phi[x]] for x in range(g.order)}
        if len(prods) == g.order:
            count += 1
    return count


def test_complete_mapping_search_matches_brute_force():
    for spec in ["C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7"]:
        g = parse_group_spec(spec)
        total = brute_force_complete_mappings(g)
        found = find_complete_mapping(g)
        assert (found is not None) == (total > 0), spec
        if found is not None:
            prods = {g.mul[x][found.phi[x]] for x in range(g.order)}
            assert len(prods) == g.order
