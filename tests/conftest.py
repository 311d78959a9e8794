"""Shared grid definition and a per-instance artifact cache.

Several test modules walk the same grid of (group, dimension) instances;
building graphs, semilattices and stabiliser chains once per instance keeps
the suite fast.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest

from diaglab import semilattice
from diaglab.diaggraph import build_graph, maximal_cliques
from diaglab.groups import automorphism_group, parse_group_spec
from diaglab.semilattice import VertexCodec, join_closure, minimal_partitions, subset_suprema
from diaglab.symmetry import diagonal_group_generators, is_vertex_primitive

from replaced import all_maximal_cliques, vertex_stabiliser_generators

GRID_GROUPS = ("C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8")
GRID_M = (2, 3, 4, 5)
GRID_VERTEX_LIMIT = 4096


def grid_instances() -> list[tuple[str, int]]:
    out = []
    for spec in GRID_GROUPS:
        q = parse_group_spec(spec).order
        for m in GRID_M:
            if q**m <= GRID_VERTEX_LIMIT:
                out.append((spec, m))
    return out


GRID = grid_instances()

# Beyond the grid, for the symmetry oracles: long lattices, odd primes, a
# rank-3 elementary abelian group, and three groups of order 10 and 12.
SYMMETRY_EXTRAS = [("C2", 6), ("C2", 7), ("C5", 3), ("C7", 3), ("C2xC2xC2", 3),
                   ("A4", 2), ("D5", 2), ("C10", 2)]


@lru_cache(maxsize=None)
def group_of(spec: str):
    return parse_group_spec(spec)


@lru_cache(maxsize=None)
def aut_of(spec: str):
    return automorphism_group(group_of(spec))


@lru_cache(maxsize=None)
def minimals_of(spec: str, m: int):
    return minimal_partitions(group_of(spec), m)


@lru_cache(maxsize=None)
def graph_of(spec: str, m: int):
    return build_graph(group_of(spec), minimals_of(spec, m))


@lru_cache(maxsize=None)
def semilattice_of(spec: str, m: int):
    minimals = minimals_of(spec, m)
    return join_closure(minimals, subset_suprema(minimals))


def fields_of(obj) -> dict:
    """The fields of a dataclass instance, by name, an array as a list and a
    tuple of arrays as a list of lists, so that two compare field by field."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
            return [v.tolist() for v in value]
        return value
    return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}


@lru_cache(maxsize=None)
def cliques_of(spec: str, m: int):
    return maximal_cliques(graph_of(spec, m), minimals_of(spec, m))


@lru_cache(maxsize=None)
def clique_list_of(spec: str, m: int) -> list[tuple[int, ...]]:
    """Every maximal clique, sorted, from the list-based oracle."""
    return sorted(all_maximal_cliques(graph_of(spec, m)))


@lru_cache(maxsize=None)
def generators_of(spec: str, m: int):
    g = group_of(spec)
    return tuple(diagonal_group_generators(g, VertexCodec(q=g.order, m=m), aut_of(spec)))


def stabiliser_images_of(spec: str, m: int) -> list:
    """Image arrays of generators of the stabiliser of vertex 0, from
    ``vertex_stabiliser_generators``."""
    g = group_of(spec)
    stabiliser = vertex_stabiliser_generators(g, VertexCodec(q=g.order, m=m),
                                              list(generators_of(spec, m)))
    return [s.image for s in stabiliser]


def primitivity_of(spec: str, m: int):
    """``is_vertex_primitive`` over the generators of the stabiliser of
    vertex 0."""
    g = group_of(spec)
    return is_vertex_primitive(g, VertexCodec(q=g.order, m=m), stabiliser_images_of(spec, m))


@pytest.fixture
def wrong_top_interval(monkeypatch):
    """Closed form off by one on every interval [s, U] with s below U."""
    original = semilattice.mobius_closed_form

    def wrong(rank_s, rank_t, t_is_u, m):
        value = original(rank_s, rank_t, t_is_u, m)
        return value + 1 if t_is_u and rank_s < m else value

    monkeypatch.setattr(semilattice, "mobius_closed_form", wrong)


def cycle_chromatic_polynomial(length: int, q: int) -> int:
    """Chromatic polynomial of the cycle graph: (q-1)^n + (-1)^n (q-1)."""
    return (q - 1) ** length + (-1) ** length * (q - 1)


def edge_set(graph) -> set[tuple[int, int]]:
    """The graph's edges as (u, v) pairs, u < v."""
    return set(map(tuple, graph.edges().tolist()))


@pytest.fixture(scope="session")
def grid():
    return GRID
