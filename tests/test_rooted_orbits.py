"""Orbit counts rooted at vertex 0 against the whole-set count they replaced.

``rooted_orbit_counts`` checks that every generator is a graph automorphism,
then counts the orbits on the edges and cliques from those through vertex 0,
linked by the stabiliser's generators and by re-rooting at each point; the
maximum cliques through 0 and their number come from the clique census.
The oracle ``replaced.orbit_count`` looks every generator's image of every
item up in a table of all items, here every maximum clique of the list-based
oracle ``replaced.all_maximal_cliques``.  Besides the diagonal group's own generators,
two smaller groups are checked: the right translations alone, whose vertex
stabiliser is trivial, so that every link is a re-rooting, and the
translations with one seeded automorphism of G acting coordinatewise.
"""

from __future__ import annotations

import numpy as np
import pytest

from diaglab.cli import GRID_DEFAULT_GROUPS
from diaglab.diaggraph import cayley_graph
from diaglab.semilattice import VertexCodec
from diaglab.symmetry import (
    TaggedPerm,
    diagonal_group_generators,
    rooted_orbit_counts,
    stabiliser_and_normalisers,
)

from conftest import aut_of, clique_list_of, cliques_of, generators_of, graph_of, group_of
from replaced import orbit_count, vertex_stabiliser_generators

INSTANCES = [(spec, m) for spec in GRID_DEFAULT_GROUPS for m in (2, 3)] + [
    ("S3", 4), ("Q8", 4), ("C16", 3)]
GENERATOR_SETS = ("diagonal", "translations", "translations+aut")


def top_cliques(spec: str, m: int) -> list[tuple[int, ...]]:
    cliques = clique_list_of(spec, m)
    omega = max(map(len, cliques))
    return [c for c in cliques if len(c) == omega]


def through_zero(cliques: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], int]:
    """The cliques through vertex 0 and the number of all of them."""
    return [c for c in cliques if 0 in c], len(cliques)


def generator_set(spec: str, m: int, which: str) -> list[TaggedPerm]:
    perms = list(generators_of(spec, m))
    if which == "diagonal":
        return perms
    shifts = [p for p in perms if p.tag == "right-mult"]
    if which == "translations":
        return shifts
    aut = aut_of(spec)
    moving = [a for a in aut if list(a) != sorted(a)] or aut
    alpha = np.asarray(moving[np.random.default_rng(15).integers(len(moving))])
    codec = VertexCodec(q=group_of(spec).order, m=m)
    return shifts + [TaggedPerm(tag="aut", image=codec.index(alpha[codec.digits]))]


@pytest.mark.parametrize("which", GENERATOR_SETS)
@pytest.mark.parametrize("spec,m", INSTANCES)
def test_rooted_counts_match_whole_set_counts(spec, m, which):
    g, graph = group_of(spec), graph_of(spec, m)
    perms = generator_set(spec, m, which)
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    top = top_cliques(spec, m)
    census = cliques_of(spec, m)
    assert through_zero(top) == (census.top_through_zero, census.max_count)
    assert rooted_orbit_counts(graph, perms, stabiliser, through_zero(top)) == (
        orbit_count(perms, list(range(graph.size))),
        orbit_count(perms, graph.edges()),
        orbit_count(perms, top),
    )


def test_rooted_counts_c16_m4():
    g = group_of("C16")
    graph = cayley_graph(g, 4)
    perms = diagonal_group_generators(g, graph.codec, aut_of("C16"))
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    assert rooted_orbit_counts(graph, perms, stabiliser) == (1, 4, None)


def test_rooted_counts_without_cliques():
    g, graph = group_of("C3"), graph_of("C3", 3)
    perms = list(generators_of("C3", 3))
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    assert rooted_orbit_counts(graph, perms, stabiliser, None) == (1, 1, None)


def test_non_automorphism_fixing_the_neighbourhood_of_0_is_caught():
    # The swap fixes 0 and every neighbour of 0, so it maps every edge and
    # clique through 0 into the set: only the whole-graph check sees it.
    g, graph = group_of("C3"), graph_of("C3", 3)
    perms = list(generators_of("C3", 3))
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    far = sorted(set(range(1, graph.size)) - set(graph.nbr[0].tolist()))
    nbrs = [set(graph.nbr[v].tolist()) for v in range(graph.size)]
    u, v = next((u, v) for u in far for v in far
                if u < v and nbrs[u] - {v} != nbrs[v] - {u})
    swap = np.arange(graph.size)
    swap[[u, v]] = v, u
    bad = TaggedPerm(tag="injected", image=swap)
    with pytest.raises(AssertionError,
                       match="generator injected maps an item outside the item set"):
        rooted_orbit_counts(graph, perms + [bad], stabiliser,
                            through_zero(top_cliques("C3", 3)))


def test_the_link_lookup_names_the_first_mover_that_fails():
    # Two stabiliser generators that are no automorphisms: each swaps a
    # neighbour of 0 with a non-neighbour, so maps an edge through 0 to a
    # non-edge.  No automorphism check reads the stabiliser's generators;
    # the one lookup of every link image must name the first of them.
    g, graph = group_of("C3"), graph_of("C3", 3)
    perms = list(generators_of("C3", 3))
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    near = int(graph.nbr[0][0])
    far = next(v for v in range(1, graph.size) if v not in graph.nbr[0])
    swap = np.arange(graph.size)
    swap[[near, far]] = far, near
    bad = [TaggedPerm(tag=tag, image=swap) for tag in ("first", "second")]
    with pytest.raises(AssertionError,
                       match="^generator first maps an item outside the item set$"):
        rooted_orbit_counts(graph, perms, stabiliser + bad)


def test_clique_list_missing_an_item_away_from_0_is_caught():
    # The cliques through 0 and their links are all kept; only the count
    # of incidences tells that the list is not closed.
    g, graph = group_of("C3"), graph_of("C3", 3)
    perms = list(generators_of("C3", 3))
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    top = top_cliques("C3", 3)
    away = next(i for i, c in enumerate(top) if 0 not in c)
    with pytest.raises(AssertionError, match="35 items of 3 points, 4 of them through "
                       "vertex 0, on 27 vertices"):
        rooted_orbit_counts(graph, perms, stabiliser,
                            through_zero(top[:away] + top[away + 1:]))


def test_clique_list_not_closed_under_the_stabiliser_is_caught():
    # The parts of Q_1 and Q_2: each vertex lies in two of them and the
    # translations keep both families, but a coordinate swap moves a part of
    # Q_2 to one of Q_3.
    g, graph = group_of("C3"), graph_of("C3", 3)
    perms = list(generators_of("C3", 3))
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms)
    digits = VertexCodec(q=3, m=3).digits
    parts = [tuple(np.flatnonzero((np.delete(digits, i, axis=1) == key).all(axis=1)))
             for i in (0, 1) for key in np.unique(np.delete(digits, i, axis=1), axis=0)]
    assert len(parts) == 18 and all(len(p) == 3 for p in parts)
    with pytest.raises(AssertionError, match="maps an item outside the item set"):
        rooted_orbit_counts(graph, perms, stabiliser, through_zero(parts))


def inverted_first_coordinate() -> TaggedPerm:
    """(x1, x2, x3) -> (x1^-1, x2, x3) on C3^3: a group automorphism of
    G^3, so it normalises the right translations, but it maps the diagonal
    neighbour (1, 1, 1) of 0 to (2, 1, 1), which is none."""
    codec = VertexCodec(q=3, m=3)
    digits = codec.digits.copy()
    digits[:, 0] = (-digits[:, 0]) % 3
    return TaggedPerm(tag="injected", image=codec.index(digits))


@pytest.mark.parametrize("paranoid", [False, True])
def test_normalising_map_that_is_no_automorphism_is_caught(paranoid):
    # Under the certificate the map is checked at vertex 0 alone, under
    # paranoid on the whole graph; either check must refuse it.  The
    # stabiliser is given without the map's own generator, whose links the
    # orbit count would also refuse, so only the generator check can.
    g, graph = group_of("C3"), graph_of("C3", 3)
    perms = list(generators_of("C3", 3)) + [inverted_first_coordinate()]
    _, normalisers = stabiliser_and_normalisers(g, graph.codec, perms)
    stabiliser = vertex_stabiliser_generators(g, graph.codec, perms[:-1])
    assert normalisers[-1] and graph.rooted(paranoid) is not paranoid
    with pytest.raises(AssertionError,
                       match="^generator injected maps an item outside the item set$"):
        rooted_orbit_counts(graph, perms, stabiliser, paranoid=paranoid,
                            normalisers=normalisers)


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_normalisers_are_the_generators_that_conjugate_translations_to_translations(spec, m):
    g, graph = group_of(spec), graph_of(spec, m)
    perms = list(generators_of(spec, m))
    stabiliser, normalisers = stabiliser_and_normalisers(g, graph.codec, perms)
    assert [(s.tag, s.image.tolist()) for s in stabiliser] == [
        (s.tag, s.image.tolist()) for s in vertex_stabiliser_generators(g, graph.codec, perms)]
    # every generator but the inversion map normalises the translations;
    # that one does iff G is abelian
    expect = [p.tag != "inversion-map" or g.is_abelian() for p in perms]
    assert normalisers == expect
    counts = rooted_orbit_counts(graph, perms, stabiliser, normalisers=normalisers)
    assert counts == rooted_orbit_counts(graph, perms, stabiliser, paranoid=True)
