from __future__ import annotations

import numpy as np
import pytest

from diaglab.groups import is_elementary_abelian
from diaglab.semilattice import VertexCodec, minimal_partitions
from diaglab.symmetry import (
    TaggedPerm,
    action_on_partitions,
    build_chain,
    diagonal_group_generators,
    diagonal_group_order_formula,
    is_vertex_primitive,
    partition_chain,
    symmetry_report,
)

from conftest import (
    GRID,
    aut_of,
    clique_list_of,
    cliques_of,
    edge_set,
    generators_of,
    graph_of,
    group_of,
    minimals_of,
    primitivity_of,
    stabiliser_images_of,
)
from replaced import (
    bfs_suborbit_representatives,
    minimal_block_trivial,
    orbit_count,
    unionfind_minimal_block_trivial,
    vertex_stabiliser_generators,
)


def test_generators_are_bijections(grid):
    for spec, m in grid[:10]:
        for perm in generators_of(spec, m):
            assert sorted(perm.image) == list(range(len(perm.image)))


def test_fifth_map_fixes_identity_vertex():
    for spec, m in [("C3", 2), ("C4", 3), ("S3", 2)]:
        perms = [p for p in generators_of(spec, m) if p.tag == "inversion-map"]
        assert len(perms) == 1
        assert perms[0].image[0] == 0


def test_fifth_map_is_involution():
    for spec, m in [("C3", 2), ("C4", 3), ("S3", 2), ("Q8", 2)]:
        (fifth,) = [p for p in generators_of(spec, m) if p.tag == "inversion-map"]
        img = fifth.image
        assert all(img[img[v]] == v for v in range(len(img)))


@pytest.mark.parametrize(
    "spec,m,expected",
    [("C2", 2, 24), ("C3", 2, 108), ("C3", 3, 1296)],
)
def test_schreier_sims_order_examples(spec, m, expected):
    order = build_chain(list(generators_of(spec, m))).order()
    assert order == expected
    assert diagonal_group_order_formula(group_of(spec), m, aut_of(spec)) == expected


def test_order_formula_grid(grid):
    for spec, m in grid:
        formula = diagonal_group_order_formula(group_of(spec), m, aut_of(spec))
        if formula > 10**9:
            continue
        order = build_chain(list(generators_of(spec, m))).order()
        assert order == formula, (spec, m)


def test_chain_order_c2_m9():
    # 1 857 945 600 > 10^9: past the order cap that check-all used to apply
    g = group_of("C2")
    chain = build_chain(diagonal_group_generators(g, VertexCodec(q=2, m=9), aut_of("C2")))
    assert chain.order() == diagonal_group_order_formula(g, 9, aut_of("C2")) == 1857945600


@pytest.mark.parametrize("spec,m", GRID)
def test_primitivity_with_given_chain(spec, m):
    g = group_of(spec)
    perms = list(generators_of(spec, m))
    stabiliser = stabiliser_images_of(spec, m)
    given = is_vertex_primitive(g, VertexCodec(q=g.order, m=m), stabiliser)
    # Suborbits and block systems against the BFS, fixpoint and union-find
    # code that the components kernel and Higman's criterion replaced.
    n = len(perms[0].image)
    reps = bfs_suborbit_representatives(n, stabiliser)
    assert given.analysed_points == len(reps)
    verdicts = [minimal_block_trivial(perms, n, v) for v in reps]
    assert verdicts == [unionfind_minimal_block_trivial(perms, n, v) for v in reps]
    assert given.primitive == all(verdicts)


def test_primitivity_rejects_mismatched_chain():
    g = group_of("C3")
    stabiliser = stabiliser_images_of("C3", 2)
    with pytest.raises(ValueError):
        is_vertex_primitive(g, VertexCodec(q=3, m=3), stabiliser)
    with pytest.raises(ValueError):
        is_vertex_primitive(g, VertexCodec(q=3, m=2), stabiliser_images_of("C3", 3))
    with pytest.raises(ValueError):
        is_vertex_primitive(group_of("C4"), VertexCodec(q=3, m=2), stabiliser)


def test_vertex_orbits_always_one(grid):
    for spec, m in grid[:12]:
        g = graph_of(spec, m)
        assert orbit_count(list(generators_of(spec, m)), list(range(g.size))) == 1


def test_edge_orbits_iff_elementary_abelian():
    for spec, m in [("C3", 2), ("C2", 3), ("C2xC2", 2), ("S3", 2), ("C4", 2), ("Q8", 2)]:
        g = graph_of(spec, m)
        orbits = orbit_count(list(generators_of(spec, m)), g.edges())
        elem = is_elementary_abelian(group_of(spec)) is not None
        assert (orbits == 1) == elem, spec
        if spec == "S3":
            assert g.edge_count == 270
            assert orbits > 1


def test_generators_preserve_edges(grid):
    for spec, m in grid[:10]:
        g = graph_of(spec, m)
        edges = edge_set(g)
        for perm in generators_of(spec, m):
            img = perm.image
            for u, v in edges:
                e = (img[u], img[v]) if img[u] < img[v] else (img[v], img[u])
                assert e in edges


def test_clique_transitivity_on_maximum_cliques():
    # transitivity is on cliques of maximum size; Latin-square graphs also
    # have maximal triangles and intercalates, which sit in other orbits
    for spec, m in [("C3", 3), ("C5", 2), ("C2", 4), ("S3", 2)]:
        cliques = clique_list_of(spec, m)
        omega = max(len(c) for c in cliques)
        top = [c for c in cliques if len(c) == omega]
        assert orbit_count(list(generators_of(spec, m)), top) == 1


def test_primitivity_examples():
    rep = primitivity_of("C3", 2)
    assert rep.primitive is False and rep.criterion is False and rep.agrees

    rep = primitivity_of("C3", 3)
    assert rep.primitive is True and rep.criterion is True and rep.agrees

    rep = primitivity_of("C2", 2)
    assert rep.primitive is True and rep.criterion is True

    rep = primitivity_of("C2", 3)  # p=2 divides m+1=4
    assert rep.primitive is False and rep.criterion is False

    rep = primitivity_of("C4", 2)  # not characteristically simple
    assert rep.criterion is None and rep.agrees is None


def test_primitivity_criterion_matches_blocks_on_elementary_grid(grid):
    for spec, m in grid:
        g = group_of(spec)
        if is_elementary_abelian(g) is None:
            continue
        if g.order**m > 1024:
            continue
        rep = primitivity_of(spec, m)
        assert rep.agrees is True, (spec, m)


def test_action_on_partitions():
    g = group_of("C4")
    m = 3
    perms = list(generators_of("C4", 3))
    minimals = minimal_partitions(g, m)
    induced = action_on_partitions(perms, minimals)
    by_tag = {}
    for perm, row in zip(perms, induced):
        by_tag.setdefault(perm.tag, []).append(row)
    # coordinate transposition swaps Q1 and Q2, fixing Q0 and Q3
    assert (0, 2, 1, 3) in by_tag["coord-perm"]
    # the inversion twist swaps Q0 and Q1 and fixes the rest
    assert by_tag["inversion-map"] == [(1, 0, 2, 3)]
    # diagonal left multiplication fixes every minimal partition
    assert all(row == (0, 1, 2, 3) for row in by_tag["diag-left-mult"])
    # and so do the right translations
    assert all(row == (0, 1, 2, 3) for row in by_tag["right-mult"])
    stabiliser = vertex_stabiliser_generators(g, VertexCodec(q=4, m=3), perms)
    assert partition_chain(perms, stabiliser, minimals).order(4) == 24


def test_action_on_partitions_names_the_first_generator_that_breaks_a_block():
    # Swapping the two non-neighbours of 0 in C3^2, (2, 1) and (1, 2), keeps
    # every block through 0 but breaks the other blocks of Q_1 and Q_2.
    swap = np.arange(9)
    swap[[5, 7]] = 7, 5
    broken = [TaggedPerm(tag=tag, image=swap) for tag in ("first", "second")]
    with pytest.raises(AssertionError, match="^generator first maps a minimal partition "
                       "outside the family$"):
        action_on_partitions(list(generators_of("C3", 2)) + broken, minimals_of("C3", 2))


def test_induced_action_full_symmetric_grid(grid):
    import math

    for spec, m in grid[:14]:
        perms = list(generators_of(spec, m))
        stabiliser = vertex_stabiliser_generators(
            group_of(spec), VertexCodec(q=group_of(spec).order, m=m), perms)
        chain = partition_chain(perms, stabiliser, minimals_of(spec, m))
        assert chain.order(m + 1) == math.factorial(m + 1)
        assert chain.order() == diagonal_group_order_formula(
            group_of(spec), m, aut_of(spec)) // group_of(spec).order ** m


def test_symmetry_report_fields():
    graph = graph_of("C3", 2)
    census = cliques_of("C3", 2)
    rep = symmetry_report(graph, minimals_of("C3", 2),
                          (census.top_through_zero, census.max_count))
    data = rep.to_dict()
    assert data["order"] == data["order_formula"] == 108
    assert data["vertex_orbits"] == 1
    assert data["edge_orbits"] == 1
    assert data["primitive"] is False and data["criterion"] is False
    assert data["criterion_agrees"] is True
    assert data["induced_partition_group"] == 6
    assert data["about_diagonal_action_only"] is True  # m=2, |G|<=4
