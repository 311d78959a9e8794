"""Shared grid definition and a per-instance artifact cache.

Several test modules walk the same grid of (group, dimension) instances;
building graphs, semilattices and stabiliser chains once per instance keeps
the suite fast.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from diaglab.diaggraph import build_graph, maximal_cliques
from diaglab.groups import parse_group_spec
from diaglab.semilattice import build_semilattice
from diaglab.symmetry import diagonal_group_generators

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


@lru_cache(maxsize=None)
def group_of(spec: str):
    return parse_group_spec(spec)


@lru_cache(maxsize=None)
def graph_of(spec: str, m: int):
    return build_graph(group_of(spec), m)


@lru_cache(maxsize=None)
def semilattice_of(spec: str, m: int):
    return build_semilattice(group_of(spec), m)


@lru_cache(maxsize=None)
def cliques_of(spec: str, m: int):
    return maximal_cliques(group_of(spec), graph_of(spec, m))


@lru_cache(maxsize=None)
def generators_of(spec: str, m: int):
    return tuple(diagonal_group_generators(group_of(spec), m))


def edge_set(graph) -> set[tuple[int, int]]:
    """The graph's edges as (u, v) pairs, u < v."""
    return set(map(tuple, graph.rows[:, :2].tolist()))


@pytest.fixture(scope="session")
def grid():
    return GRID
