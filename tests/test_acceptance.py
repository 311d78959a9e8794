"""Acceptance suite: one test per verified claim, one printed line each.

Grid: groups {C2,C3,C4,C5,C6,V4,S3,D4,Q8} x dimensions {2,3,4,5} with at
most 4096 vertices.  Every check is exact integer equality.
"""

from __future__ import annotations

import time
from math import comb

from diaglab.chromatic import (
    chromatic_number_exact,
    chromatic_verdict,
    find_complete_mapping,
    hall_paige_predicate,
    reduce_hom,
)
from diaglab.diaggraph import build_graph, clique_cover, diameter, is_distance_regular
from diaglab.groups import is_elementary_abelian, parse_group_spec
from diaglab.semilattice import (
    expected_rank_counts,
    minimal_partitions,
    subset_suprema,
    verify_mobius,
)
from diaglab.spectral import (
    spectrum_closed_form,
    spectrum_trace_moments,
    stratum_dimension,
    verify_stratum_identity,
)
from diaglab.symmetry import build_chain, diagonal_group_order_formula

from conftest import (
    GRID,
    aut_of,
    cliques_of,
    cycle_chromatic_polynomial,
    edge_set,
    generators_of,
    graph_of,
    group_of,
    minimals_of,
    primitivity_of,
    semilattice_of,
)
from replaced import adjacency_lists, common_neighbours, orbit_count, verify_semilattice_hypothesis
from test_chromatic import ORDER_AT_MOST_12, dicyclic12_table


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_mobius():
    bad = []
    for spec, m in GRID:
        sl = semilattice_of(spec, m)
        rep = verify_mobius(sl)
        if not rep.ok or rep.mu_bottom_top != (-1) ** m * m:
            bad.append((spec, m))
    report(1, "mobius-closed-form", not bad, f"{len(GRID)} instances, mu(E,U)=(-1)^m*m")


def test_criterion_02_spectrum():
    bad = []
    for spec, m in GRID:
        g = graph_of(spec, m)
        closed = spectrum_closed_form(g.q, m)
        moments = spectrum_trace_moments(g)
        if closed.entries != moments.entries:
            bad.append((spec, m))
        if g.q == 2:
            for k in range(m):
                mult = comb(m + 1, k) * stratum_dimension(2, m - k)
                if (m - k) % 2 == 0 and mult != 0:
                    bad.append((spec, m, k))
    pinned = spectrum_closed_form(3, 2).entries == ((-3, 2), (0, 6), (6, 1))
    report(2, "spectrum-trace-vs-closed-form", not bad and pinned,
           f"{len(GRID)} instances; q=3,m=2 report pinned")


def test_criterion_03_valency_and_edges():
    bad = []
    slow = []
    for spec, m in GRID:
        g = group_of(spec)
        t0 = time.perf_counter()
        graph = build_graph(g, minimal_partitions(g, m))
        k = (m + 1) * (g.order - 1)
        ok = all(len(nb) == k for nb in adjacency_lists(graph))
        ok = ok and 2 * graph.edge_count == graph.size * k
        elapsed = time.perf_counter() - t0
        if not ok:
            bad.append((spec, m))
        if elapsed >= 1.0:
            slow.append((spec, m, round(elapsed, 2)))
    report(3, "valency-and-edge-count", not bad and not slow,
           f"degree (m+1)(q-1) everywhere, each instance under 1 s {slow or ''}")


def test_criterion_04_diameter():
    bad = []
    for spec, m in GRID:
        g = graph_of(spec, m)
        rep = diameter(g)
        if not rep.ok:
            bad.append((spec, m))
        if g.q > m + 1 and rep.bfs != m:
            bad.append((spec, m, "expected diameter m"))
    c5 = diameter(graph_of("C5", 2))
    report(4, "diameter-formula", not bad and c5.bfs == 2,
           "bfs equals m+1-ceil((m+1)/q); C5,m=2 gives 2")


def test_criterion_05_example_regression():
    g = graph_of("C3", 3)
    ab, a2b = g.codec.index([(1, 1, 0), (2, 1, 0)]).tolist()
    ok = len(common_neighbours(g, 0, ab)) == 4
    ok = ok and len(common_neighbours(g, 0, a2b)) == 2
    dr, _ = is_distance_regular(g)
    report(5, "order-27-regression", ok and dr is False,
           "common-neighbour counts 4 and 2; not distance-regular")


def test_criterion_06_cliques():
    bad = []
    for spec, m in GRID:
        g = graph_of(spec, m)
        rep = cliques_of(spec, m)  # raises if structure violated
        if m > 2:
            want = (m + 1) * g.q ** (m - 1)
            if rep.count != want or (rep.clique_number, rep.max_count) != (g.q, want):
                bad.append((spec, m))
        cover = clique_cover(g, minimals_of(spec, m))
        if cover.size != g.q ** (m - 1):
            bad.append((spec, m, "cover"))
    exceptional = {
        ("C2", 2): "complete graph K4",
        ("C3", 2): "complete tripartite graph K333",
        ("C2xC2", 2): "complement of the 4x4 rook's graph",
        ("C4", 2): "complement of the Shrikhande graph",
    }
    for (spec, m), name in exceptional.items():
        if cliques_of(spec, m).exceptional_name != name:
            bad.append((spec, m, "exceptional table"))
    rook, shr = cliques_of("C2xC2", 2), cliques_of("C4", 2)
    spectra_equal = (
        spectrum_trace_moments(graph_of("C2xC2", 2)).entries
        == spectrum_trace_moments(graph_of("C4", 2)).entries
    )
    distinguished = rook.count != shr.count and spectra_equal
    report(6, "clique-structure", not bad and distinguished,
           "(m+1)q^(m-1) cliques for m>2; 4 exceptional graphs table-checked; "
           "cospectral order-16 pair split by clique counts")


def test_criterion_07_chromatic(tmp_path):
    bad = []
    specs = list(ORDER_AT_MOST_12)
    path = tmp_path / "dic3.tbl"
    path.write_text(dicyclic12_table())
    specs.append(f"file:{path}")
    for spec in specs:
        g = parse_group_spec(spec)
        if (find_complete_mapping(g) is not None) != hall_paige_predicate(g):
            bad.append(("hall-paige", spec))
    for spec, m in GRID:
        g = group_of(spec)
        if m % 2 == 1 or hall_paige_predicate(g):
            verdict = chromatic_verdict(graph_of(spec, m))
            if verdict.chi != g.order or verdict.coloring is None:
                bad.append((spec, m))
    folded = chromatic_number_exact(graph_of("C2", 4))
    if folded.value != 4:
        bad.append(("folded-4-cube", folded.value))
    shrike = chromatic_number_exact(graph_of("C4", 2))
    conjectured = 4 + 2
    if shrike.value is None:
        bad.append(("order-16-exact-search incomplete",))
    report(7, "chromatic-numbers", not bad,
           f"Hall-Paige matches search through order 12; chi=q colourings "
           f"validated; folded 4-cube is 4; order-16 search gives "
           f"{shrike.value} vs conjectured {conjectured} (compared, not asserted)")


def test_criterion_08_homomorphism():
    bad = []
    for spec, m_from, m_to in [("C3", 4, 2), ("C2", 5, 3)]:
        g = group_of(spec)
        big, small = graph_of(spec, m_from), graph_of(spec, m_to)
        small_edges = edge_set(small)
        image = small.codec.index(reduce_hom(big.codec.digits, g)).tolist()
        for u, v in big.edges().tolist():
            iu, iv = image[u], image[v]
            if iu == iv or (min(iu, iv), max(iu, iv)) not in small_edges:
                bad.append((spec, u, v))
    report(8, "dimension-reducing-homomorphism", not bad,
           "every edge maps to an edge, exhaustively")


def test_criterion_09_symmetry():
    bad = []
    for spec, m in GRID:
        g = group_of(spec)
        perms = list(generators_of(spec, m))
        formula = diagonal_group_order_formula(g, m, aut_of(spec))
        chain = build_chain(perms)
        if formula <= 10**9:
            if chain.order() != formula:
                bad.append((spec, m, "order"))
        graph = graph_of(spec, m)
        if orbit_count(perms, list(range(graph.size))) != 1:
            bad.append((spec, m, "vertex orbits"))
        edge_orbits = orbit_count(perms, graph.edges())
        if (edge_orbits == 1) != (is_elementary_abelian(g) is not None):
            bad.append((spec, m, "edge orbits"))
        del chain
        prim = primitivity_of(spec, m)
        if prim.criterion is not None and prim.agrees is not True:
            bad.append((spec, m, "primitivity"))
    spot = (
        build_chain(list(generators_of("C3", 3))).order() == 1296
        and primitivity_of("C3", 2).primitive is False
        and primitivity_of("C3", 3).primitive is True
    )
    report(9, "symmetry", not bad and spot,
           "orders match |G|^m|Aut||(m+1)!|; transitivity and primitivity as classified")


def test_criterion_10_semilattice_hypothesis():
    bad = []
    for spec, m in GRID:
        if not verify_semilattice_hypothesis(subset_suprema(minimals_of(spec, m)),
                                             group_of(spec).order):
            bad.append((spec, m, "hypothesis"))
        sl = semilattice_of(spec, m)
        counts: dict[int, int] = {}
        for r in sl.rank:
            counts[r] = counts.get(r, 0) + 1
        if counts != expected_rank_counts(m):
            bad.append((spec, m, "rank counts"))
    report(10, "cartesian-hypothesis-and-rank-counts", not bad,
           f"every m-subset Cartesian; C(m+1,i) elements of rank i")


def test_criterion_11_stratum_identities():
    bad = []
    for q in range(2, 11):
        for m in range(1, 9):
            if not verify_stratum_identity(q, m):
                bad.append((q, m))
    # q * n(q, s) is the chromatic polynomial of a cycle; the correct cycle
    # length is s+1 (the s+2 attribution fails already at q=4, s=1, where
    # q*n = 12 but the 3-cycle polynomial is 24)
    for q in range(2, 11):
        for s in range(0, 9):
            if q * stratum_dimension(q, s) != cycle_chromatic_polynomial(s + 1, q):
                bad.append((q, s, "cycle"))
    assert 4 * stratum_dimension(4, 1) != cycle_chromatic_polynomial(3, 4)
    report(11, "stratum-identities", not bad,
           "interval sums q^s, multiplicity grouping, cycle polynomial (length s+1)")
