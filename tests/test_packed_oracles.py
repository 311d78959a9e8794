"""The walk counts, eccentricities and graph6 encoder against oracles.

The paranoid walk counts and the paranoid diameter run a block of start
vertices in one pass over ``nbr``: one column per start for the walk
counts, in the narrowest unsigned type (or int64, or Python ints) that
holds its step's entries, one bit of a ``uint64`` bitset per base for the
eccentricities.  The oracles here run nothing side by side: exact matrix
powers for the walk counts, one breadth-first search per base for the
eccentricities, and the bit-list graph6 encoder the packed one replaced.
The Python-int kernels that packed each block into one int per vertex are
checked against too.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab import diaggraph, partitions, spectral
from diaglab.diaggraph import DiagGraph, _max_eccentricity, diameter, to_graph6
from diaglab.groups import cyclic
from diaglab.partitions import start_blocks
from diaglab.spectral import _walk_blocks, _walk_counts

from conftest import GRID, edge_set, graph_of, group_of
from replaced import (
    adjacency_lists,
    bfs_distances,
    from_rows,
    packed_max_eccentricity,
    packed_walk_counts,
)

SMALL_GRID = [(spec, m) for spec, m in GRID if group_of(spec).order ** m <= 256]


def matrix_power_traces(adjacency, steps: int) -> list[int]:
    """tr(A^j) for j = 0..steps from the full matrices A^j in Python ints."""
    n = len(adjacency)
    power = [[int(r == c) for c in range(n)] for r in range(n)]
    traces = [n]
    for _ in range(steps):
        # (A^j A)[r][c] sums row r of A^j over the neighbours of c
        power = [
            [sum(map(row.__getitem__, adjacency[c])) for c in range(n)]
            for row in power
        ]
        traces.append(sum(power[r][r] for r in range(n)))
    return traces


def bfs_eccentricity(graph, bases) -> int:
    return max(max(bfs_distances(graph, b)) for b in bases)


def bit_list_graph6(graph) -> bytes:
    """The graph6 encoder as it was before the scattered-bit one."""
    n = graph.size
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    edges = edge_set(graph)
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = bytearray()
    for i in range(0, len(bits), 6):
        val = 0
        for bit in bits[i: i + 6]:
            val = val << 1 | bit
        out.append(val + 63)
    return head + bytes(out)


def graph_from_edges(n: int, edges) -> DiagGraph:
    """The graph on 0..n-1 with these edges, each in either order."""
    rows = [(min(u, v), max(u, v), 0) for u, v in edges]
    return from_rows(cyclic(n), 1, rows)


def cycle(n: int) -> DiagGraph:
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def spy_blocks(monkeypatch, module) -> list[list[range]]:
    """Record the blocks of starts each call of ``module.start_blocks`` cuts."""
    cut: list[list[range]] = []

    def spy(starts, bits_per_start):
        cut.append(start_blocks(starts, bits_per_start))
        return cut[-1]

    monkeypatch.setattr(module, "start_blocks", spy)
    return cut


@st.composite
def small_graphs(draw, max_n: int):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_edges(n, edges)


# --- walk counts -----------------------------------------------------------

def test_walk_counts_match_matrix_powers_on_grid():
    for spec, m in SMALL_GRID:
        g = graph_of(spec, m)
        want = matrix_power_traces(adjacency_lists(g), m + 1)
        assert _walk_counts(g, m + 1, paranoid=True) == want, (spec, m)
        assert _walk_counts(g, m + 1, paranoid=False) == want, (spec, m)


@settings(max_examples=150, deadline=None)
@given(small_graphs(12), st.integers(0, 9))
def test_paranoid_walk_counts_on_irregular_graphs(graph, steps):
    assert _walk_counts(graph, steps, paranoid=True) == matrix_power_traces(
        adjacency_lists(graph), steps
    )


def test_walk_counts_star_graph():
    # max degree 11 against an average degree below 2
    star = graph_from_edges(12, [(0, v) for v in range(1, 12)])
    assert _walk_counts(star, 12, paranoid=True) == matrix_power_traces(
        adjacency_lists(star), 12
    )


def test_walk_counts_wider_than_a_machine_word():
    k20 = graph_from_edges(20, [(u, v) for u in range(20) for v in range(u + 1, 20)])
    assert 19**16 > 2**64
    want = matrix_power_traces(adjacency_lists(k20), 16)
    assert _walk_counts(k20, 16, paranoid=True) == want
    assert _walk_counts(k20, 16, paranoid=False) == want


def test_walk_counts_match_the_packed_kernel():
    for spec, m in SMALL_GRID:
        g = graph_of(spec, m)
        for paranoid in (False, True):
            assert _walk_counts(g, m + 2, paranoid) == packed_walk_counts(g, m + 2, paranoid)


def widened(graph: DiagGraph, width: int) -> DiagGraph:
    """``graph`` with its neighbour array padded out to ``width`` columns:
    the walk counts bound an entry of A^t e_s by width^t."""
    n = graph.size
    nbr = np.full((n, width), n, dtype=np.int32)
    nbr[:, :graph.nbr.shape[1]] = graph.nbr
    return DiagGraph.from_neighbours(graph.group, graph.m, nbr, np.zeros_like(nbr))


# One case per rung of the ladder: the widest step takes the rung just below
# its boundary, and just past it step t widens to the next rung.  A cycle
# has degree 2, so its columns reach 2^ceil(steps/2); past uint32 a degree-2
# block passes the int64 block bound, so the upper rungs pad a cycle's
# ``nbr`` out to about 2^16 columns instead.  One step more there passes
# the int64 block bound, and every column holds Python ints.
@pytest.mark.parametrize("below,past,t,rung,wider", [
    ((2, 14), (2, 15), 8, np.uint8, np.uint16),
    ((2, 30), (2, 31), 16, np.uint16, np.uint32),
    ((2**16 - 1, 3), (2**16, 3), 2, np.uint32, np.int64),
    ((2**16, 3), (2**16, 4), None, np.int64, object),
], ids=["uint8", "uint16", "uint32", "int64"])
def test_walk_counts_at_each_rung(below, past, t, rung, wider):
    for width, steps in (below, past):
        c5 = widened(cycle(5), width)
        dtypes, _ = _walk_blocks(5, width, steps, range(5))
        assert len(dtypes) == -(-steps // 2) + 1
        assert _walk_blocks(5, width, steps, range(1))[0] == dtypes
        if (width, steps) == below:
            assert dtypes[-1] is rung
        elif wider is object:
            assert dtypes == [object] * len(dtypes)
        else:
            assert dtypes[t - 1] is rung and dtypes[t] is wider
        want = matrix_power_traces(adjacency_lists(c5), steps)
        assert _walk_counts(c5, steps, paranoid=True) == want
        assert _walk_counts(c5, steps, paranoid=False) == want


def test_walk_counts_past_int32_from_one_start():
    # one start of a 5-cycle at 62 steps: columns up to 2^31, past int32,
    # and a trace bound 2^62 < 2^63; five starts in a block pass that bound
    c5 = cycle(5)
    want = matrix_power_traces(adjacency_lists(c5), 62)
    assert _walk_blocks(5, 2, 62, range(1))[0][-2:] == [np.uint32, np.uint32]
    assert _walk_blocks(5, 2, 62, range(5))[0] == [object] * 32
    assert _walk_counts(c5, 62, paranoid=False) == want
    assert _walk_counts(c5, 62, paranoid=True) == want


def test_walk_counts_when_a_block_could_pass_int64(monkeypatch):
    # eight starts of degree 2 at 60 steps: 2^30 fits uint32, but the block
    # sum bound 8 * 2^60 reaches 2^63, so the columns hold Python ints
    c8 = cycle(8)
    want = matrix_power_traces(adjacency_lists(c8), 60)
    dtypes, blocks = _walk_blocks(8, 2, 60, range(8))
    assert dtypes == [object] * 31 and len(blocks) == 1
    assert _walk_counts(c8, 60, paranoid=True) == want
    # four starts per block of uint32 columns keep the bound below 2^63
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 4 * 32 * 9 // 8)
    dtypes, blocks = _walk_blocks(8, 2, 60, range(8))
    assert dtypes[-1] is np.uint32 and [len(b) for b in blocks] == [4, 4]
    assert _walk_counts(c8, 60, paranoid=True) == want


def test_walk_counts_blocks_stay_within_the_budget():
    # a block holds as many starts as keep one column array of its widest
    # step within BLOCK_BYTES, and no more than fit
    for n, deg, steps in [(729, 14, 7), (4096, 32, 5), (4096, 12, 9), (65536, 60, 4),
                          (512, 2, 62), (512, 2, 61)]:
        dtypes, blocks = _walk_blocks(n, deg, steps, range(n))
        itemsize = 8 if dtypes[-1] is object else np.dtype(dtypes[-1]).itemsize
        width = len(blocks[0])
        assert width * (n + 1) * itemsize <= partitions.BLOCK_BYTES
        assert width == n or (width + 1) * (n + 1) * itemsize > partitions.BLOCK_BYTES


def test_paranoid_walk_counts_over_several_blocks(monkeypatch):
    g = graph_of("C2", 10)
    single = _walk_counts(g, 11, paranoid=False)
    assert _walk_counts(g, 11, paranoid=True) == single
    # 27 starts of degree 6 at 4 steps, whose entries are at most 6^2 = 36
    # and so uint8; four per block of 28 rows: seven blocks, the last
    # one short
    g = graph_of("C3", 3)
    assert _walk_blocks(g.size, 6, 4, range(g.size))[0] == [np.uint8] * 3
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 4 * 8 * 28 // 8)
    cut = spy_blocks(monkeypatch, spectral)
    assert _walk_counts(g, 4, paranoid=True) == matrix_power_traces(adjacency_lists(g), 4)
    assert [len(b) for b in cut[-1]] == [4] * 6 + [3]


# --- eccentricities --------------------------------------------------------

def test_eccentricity_matches_bfs_on_grid():
    for spec, m in GRID:
        g = graph_of(spec, m)
        # every base on the small graphs, a stride of them on the large ones
        bases = range(g.size) if g.size <= 256 else range(0, g.size, 97)
        assert _max_eccentricity(g, bases) == bfs_eccentricity(g, bases), (spec, m)


def test_paranoid_diameter_on_grid():
    for spec, m in GRID:
        g = graph_of(spec, m)
        paranoid = diameter(g, paranoid=True)
        assert paranoid.bfs == diameter(g).bfs == paranoid.formula, (spec, m)


@settings(max_examples=200, deadline=None)
@given(small_graphs(14))
def test_eccentricity_on_graphs_that_may_be_disconnected(graph):
    bases = range(graph.size)
    assert _max_eccentricity(graph, bases) == bfs_eccentricity(graph, bases)


def test_eccentricity_matches_the_packed_kernel():
    for spec, m in SMALL_GRID:
        g = graph_of(spec, m)
        bases = range(g.size)
        assert _max_eccentricity(g, bases) == packed_max_eccentricity(g, bases), (spec, m)


def test_eccentricity_over_several_blocks(monkeypatch):
    # a path 0-1-...-9 plus an isolated vertex 10, five bases per block of
    # 12-bit rows: the last block holds only the isolated vertex, of
    # eccentricity 0
    path = graph_from_edges(11, [(v, v + 1) for v in range(9)])
    cut = spy_blocks(monkeypatch, diaggraph)
    monkeypatch.setattr(partitions, "BLOCK_BYTES", -(-5 * 12 // 8))
    assert _max_eccentricity(path, range(11)) == 9
    assert [len(b) for b in cut[-1]] == [5, 5, 1]
    # a path 11-0-1-...-10: of the bases 0..10 only 10, alone in the last
    # block, is an end of the path
    tail = graph_from_edges(12, [(v, v + 1) for v in range(10)] + [(11, 0)])
    monkeypatch.setattr(partitions, "BLOCK_BYTES", -(-5 * 13 // 8))
    assert _max_eccentricity(tail, range(11)) == 11
    assert [len(b) for b in cut[-1]] == [5, 5, 1]
    # 64 bases, five per block of 65-bit rows: thirteen blocks, the last short
    g = graph_of("C4", 3)
    monkeypatch.setattr(partitions, "BLOCK_BYTES", -(-5 * 65 // 8))
    assert _max_eccentricity(g, range(g.size)) == bfs_eccentricity(g, range(g.size))
    assert [len(b) for b in cut[-1]] == [5] * 12 + [4]


# --- graph6 ------------------------------------------------------------------

def test_graph6_matches_bit_list_encoder_on_grid():
    for spec, m in GRID:
        g = graph_of(spec, m)
        assert to_graph6(g) == bit_list_graph6(g), (spec, m)


@pytest.mark.parametrize("n", [62, 63])
def test_graph6_at_the_size_form_boundary(n):
    rng = random.Random(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for edges in (pairs, rng.sample(pairs, len(pairs) // 3), [(0, n - 1)]):
        g = graph_from_edges(n, edges)
        assert to_graph6(g) == bit_list_graph6(g)
    assert to_graph6(graph_from_edges(n, [(0, 1)]))[:1] == (b"~" if n > 62 else bytes([n + 63]))


def test_graph6_single_edge():
    for n, edge in ((2, (0, 1)), (5, (3, 4)), (100, (0, 99)), (100, (41, 42))):
        g = graph_from_edges(n, [edge])
        assert to_graph6(g) == bit_list_graph6(g)


def test_graph6_rejects_an_empty_graph():
    for n in (0, 5):
        with pytest.raises(ValueError):
            to_graph6(graph_from_edges(n, []))
