#!/usr/bin/env python3
"""Side-by-side tour of the four exceptional dimension-2 diagonal graphs.

Prints the clique census (counted from the cliques through vertex 0),
spectrum and chromatic data for the graphs over groups of order at most 4,
including the cospectral order-16 pair that only the clique counts tell
apart.
"""

from __future__ import annotations

from diaglab.chromatic import chromatic_number_exact
from diaglab.diaggraph import build_graph, maximal_cliques
from diaglab.groups import parse_group_spec
from diaglab.semilattice import minimal_partitions
from diaglab.spectral import spectrum_trace_moments

CASES = ["C2", "C3", "C2xC2", "C4"]


def main() -> None:
    for spec in CASES:
        g = parse_group_spec(spec)
        minimals = minimal_partitions(g, 2)
        graph = build_graph(g, minimals)
        rep = maximal_cliques(graph, minimals)
        spectrum = spectrum_trace_moments(graph)
        chi = chromatic_number_exact(graph)
        print(f"== {rep.exceptional_name}  (group {g.label}, {graph.size} vertices)")
        print(f"   valency {graph.valency}, clique number {rep.clique_number}")
        print(f"   maximal cliques by size: {dict(sorted(rep.sizes.items()))}")
        print(f"   spectrum: {dict(spectrum.entries)}")
        print(f"   chromatic number: {chi.value}")
        print()


if __name__ == "__main__":
    main()
