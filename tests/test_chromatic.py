from __future__ import annotations

import random

import pytest

from diaglab.chromatic import (
    Coloring,
    chromatic_number_exact,
    chromatic_verdict,
    find_complete_mapping,
    hall_paige_predicate,
    latin_square_coloring,
    q_coloring,
    reduce_hom,
    search_complete_mapping,
    validate_coloring,
)
from diaglab.errors import CapExceededError
from diaglab.groups import cyclic, dihedral, parse_group_spec

from conftest import edge_set, graph_of, group_of


def dicyclic12_table() -> str:
    """Multiplication table of the dicyclic group of order 12.

    Elements a^i b^j with 0 <= i < 6, 0 <= j < 2, where b^2 = a^3 and
    b a = a^-1 b; index = i + 6j after moving the identity to index 0.
    """
    def mul(x, y):
        i1, j1 = x % 6, x // 6
        i2, j2 = y % 6, y // 6
        # (a^i1 b^j1)(a^i2 b^j2): move b^j1 past a^i2
        i = (i1 + (-i2 if j1 else i2)) % 6
        j = j1 + j2
        if j == 2:
            i = (i + 3) % 6  # b^2 = a^3
            j = 0
        return i + 6 * j

    rows = ["12"]
    for x in range(12):
        rows.append(" ".join(str(mul(x, y)) for y in range(12)))
    return "\n".join(rows)


def test_complete_mapping_c3():
    cm = find_complete_mapping(cyclic(3))
    assert cm is not None
    # squaring is a bijection in odd order, so the identity map works
    g = cyclic(3)
    assert sorted(g.mul[x][x] for x in range(3)) == [0, 1, 2]


def test_complete_mapping_absent_c2():
    assert find_complete_mapping(cyclic(2)) is None


def test_complete_mapping_v4():
    g = parse_group_spec("C2xC2")
    cm = find_complete_mapping(g)
    assert cm is not None
    assert sorted(cm.phi) == [0, 1, 2, 3]
    assert sorted(cm.psi(g)) == [0, 1, 2, 3]


def test_complete_mapping_cap():
    # The order-16 cap guards only the backtracking search.  C17 has the
    # odd-order witness; D10 (order 20, Sylow 2-subgroup C2xC2) has a
    # complete mapping that no construction here covers.
    with pytest.raises(CapExceededError):
        search_complete_mapping(cyclic(17))
    assert find_complete_mapping(cyclic(17)) is not None
    with pytest.raises(CapExceededError):
        find_complete_mapping(dihedral(10))


@pytest.mark.parametrize(
    "spec,expected",
    [("C6", False), ("S3", False), ("C2xC2", True), ("C5", True), ("D4", True)],
)
def test_hall_paige_predicate(spec, expected):
    assert hall_paige_predicate(parse_group_spec(spec)) == expected


ORDER_AT_MOST_12 = [
    "C1", "C2", "C3", "C4", "C2xC2", "C5", "C6", "S3", "C7",
    "C8", "C2xC4", "C2xC2xC2", "D4", "Q8",
    "C9", "C3xC3", "C10", "D5", "C11",
    "C12", "C2xC6", "D6", "A4",
]


def test_hall_paige_matches_search_all_orders_up_to_12(tmp_path):
    specs = list(ORDER_AT_MOST_12)
    # the dicyclic group of order 12 completes the classification
    path = tmp_path / "dic3.tbl"
    path.write_text(dicyclic12_table())
    specs.append(f"file:{path}")
    for spec in specs:
        g = parse_group_spec(spec)
        assert g.order <= 12
        cm = find_complete_mapping(g)
        assert (cm is not None) == hall_paige_predicate(g), spec
        if cm is not None:
            assert sorted(cm.phi) == list(range(g.order))
            assert sorted(cm.psi(g)) == list(range(g.order))


def test_reduce_hom_examples():
    g = cyclic(5)
    assert reduce_hom((2, 2, 2, 3), g).tolist() == [2, 3]
    assert reduce_hom((0, 0, 0), g).tolist() == [0]
    with pytest.raises(ValueError):
        reduce_hom((0, 0), g)


def test_reduce_hom_sampled_edges():
    g = group_of("C3")
    big = graph_of("C3", 4)
    small = graph_of("C3", 2)
    small_edges = edge_set(small)
    rng = random.Random(7)
    edges = big.edges().tolist()
    for u, v in rng.sample(edges, 200):
        iu = int(small.codec.index(reduce_hom(big.codec.digits[u], g)))
        iv = int(small.codec.index(reduce_hom(big.codec.digits[v], g)))
        assert iu != iv
        assert (min(iu, iv), max(iu, iv)) in small_edges


def test_reduce_hom_exhaustive_small_groups():
    # every edge maps to an edge, for all instances with m in 3..5, q <= 4
    for spec in ("C2", "C3", "C4", "C2xC2"):
        g = group_of(spec)
        for m in (3, 4, 5):
            big = graph_of(spec, m)
            small = graph_of(spec, m - 2)
            small_edges = edge_set(small)
            image = small.codec.index(reduce_hom(big.codec.digits, g)).tolist()
            for u, v in big.edges().tolist():
                iu, iv = image[u], image[v]
                assert (min(iu, iv), max(iu, iv)) in small_edges, (spec, m)


def test_exact_chromatic_k333():
    res = chromatic_number_exact(graph_of("C3", 2))
    assert res.value == 3


def test_exact_chromatic_k4():
    res = chromatic_number_exact(graph_of("C2", 2))
    assert res.value == 4


def test_exact_chromatic_folded_4_cube():
    res = chromatic_number_exact(graph_of("C2", 4))
    assert res.value == 4
    assert validate_coloring(graph_of("C2", 4), res.coloring)


def test_exact_chromatic_cap():
    with pytest.raises(CapExceededError):
        chromatic_number_exact(graph_of("C3", 5))


def test_exact_chromatic_budget_flag():
    res = chromatic_number_exact(graph_of("C2", 4), node_budget=1)
    if not res.search_complete:
        assert res.lower <= 4 <= res.upper


@pytest.mark.parametrize("spec", ["C6", "S3"])
def test_exact_chromatic_hall_paige_failing_dimension_2(spec):
    # chi = |G| + 2 = 8 on the 36-vertex Latin square graphs: the exact
    # search has to rule out every 7-colouring.
    graph = graph_of(spec, 2)
    res = chromatic_number_exact(graph)
    assert res.search_complete
    assert res.value == 8
    assert res.coloring.count == 8
    assert validate_coloring(graph, res.coloring)


@pytest.mark.parametrize("spec", ["C6", "S3"])
def test_exact_chromatic_budget_path(spec):
    graph = graph_of(spec, 2)
    res = chromatic_number_exact(graph, node_budget=50)
    assert res.search_complete is False
    assert res.value is None
    assert res.lower <= 8 <= res.upper
    assert validate_coloring(graph, res.coloring)


def test_latin_square_coloring_c3():
    g = group_of("C3")
    cm = find_complete_mapping(g)
    col = latin_square_coloring(g, cm)
    assert col.count == 3
    assert validate_coloring(graph_of("C3", 2), col)


def test_q_coloring_odd_dimension_uses_q_colors():
    for spec, m in [("C3", 3), ("C2", 3), ("C2", 5), ("S3", 3), ("C4", 3)]:
        g = group_of(spec)
        col = q_coloring(g, graph_of(spec, m).codec, None)
        assert col.count == g.order
        assert validate_coloring(graph_of(spec, m), col)


def test_q_coloring_even_dimension_with_mapping():
    for spec, m in [("C3", 4), ("C2xC2", 2), ("D4", 2), ("Q8", 2), ("C5", 4)]:
        g = group_of(spec)
        cm = find_complete_mapping(g)
        assert cm is not None
        col = q_coloring(g, graph_of(spec, m).codec, cm)
        assert col.count == g.order
        assert validate_coloring(graph_of(spec, m), col)


def test_validate_coloring_rejects_constant():
    g4 = graph_of("C2", 2)
    assert not validate_coloring(g4, Coloring(colors=(0, 0, 0, 0)))


def test_verdict_c3_m4():
    v = chromatic_verdict(graph_of("C3", 4))
    assert v.chi == 3
    assert v.coloring is not None and v.coloring.count == 3


def test_verdict_v4_m2():
    v = chromatic_verdict(graph_of("C2xC2", 2))
    assert v.chi == 4


def test_verdict_c4_m2_bounds_and_conjecture():
    v = chromatic_verdict(graph_of("C4", 2), exact=True)
    assert v.lower == 4
    assert v.upper == 6
    assert v.chi == 6
    assert v.conjecture == 6
    data = v.to_dict()
    assert data["conjecture"] == 6 and data["chi"] == 6


def test_verdict_c2_even_dimension_bounds():
    v = chromatic_verdict(graph_of("C2", 4), exact=True)
    assert v.lower == 2
    assert v.upper == 4  # chi of the dimension-2 graph, which is K4
    assert v.chi == 4


def test_verdict_reuses_given_graph_and_mapping(monkeypatch):
    from diaglab import chromatic

    searched = {(spec, m): chromatic_verdict(graph_of(spec, m)).to_dict()
                for spec, m in [("C3", 2), ("C4", 2), ("C2", 2), ("C2xC2", 4), ("C4", 3)]}
    mappings = {spec: find_complete_mapping(group_of(spec)) for spec, _ in searched}
    monkeypatch.setattr(chromatic, "find_complete_mapping", None)  # no search below
    for (spec, m), data in searched.items():
        g = group_of(spec)
        given = chromatic_verdict(graph_of(spec, m), mapping=mappings[spec])
        assert (given.q, given.m) == (g.order, m)
        assert "mapping" not in given.to_dict()
        assert given.to_dict() == data


def test_verdict_m1_complete_graph():
    v = chromatic_verdict(graph_of("C5", 1))
    assert v.chi == 5


def test_verdict_grid_proven_cases(grid):
    for spec, m in grid:
        g = group_of(spec)
        if m % 2 == 0 and not hall_paige_predicate(g):
            continue
        v = chromatic_verdict(graph_of(spec, m))
        assert v.chi == g.order, (spec, m)
