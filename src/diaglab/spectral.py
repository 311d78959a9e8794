"""Exact spectrum of the diagonal graph, two independent ways.

``spectrum_closed_form`` evaluates the eigenvalue/multiplicity formula in
integer arithmetic.  ``spectrum_trace_moments`` never diagonalises anything:
it counts closed walks from one vertex (vertex-transitivity turns the count
into an exact trace; ``paranoid`` counts from every vertex, packed into one
pass of Python ints per block of starts), then solves the square Vandermonde
system on the candidate eigenvalues -(m+1)+kq over the rationals.  Disagreement between
the two, or a negative or fractional multiplicity, would falsify the closed
form; both paths are compared entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .diaggraph import PACK_BITS, DiagGraph


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue/multiplicity pairs sorted by eigenvalue."""

    q: int
    m: int
    entries: tuple[tuple[int, int], ...]
    source: str

    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.entries)

    def moment(self, j: int) -> int:
        return sum(mult * lam**j for lam, mult in self.entries)

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "m": self.m,
            "entries": [list(e) for e in self.entries],
            "source": self.source,
        }


def stratum_dimension(q: int, s: int) -> int:
    """Dimension of the stratum at corank s: (q-1)((q-1)^s - (-1)^s)/q.

    Always a nonnegative integer since (q-1)^s = (-1)^s mod q.
    """
    if q < 2 or s < 0:
        raise ValueError("need q >= 2 and s >= 0")
    num = (q - 1) * ((q - 1) ** s - (-1) ** s)
    val, rem = divmod(num, q)
    if rem:
        raise AssertionError(f"stratum dimension not integral at q={q}, s={s}")
    return val


def spectrum_closed_form(q: int, m: int) -> SpectrumReport:
    """Eigenvalue -(m+1)+kq with multiplicity C(m+1,k) * n(m-k) for k < m,
    and the valency (m+1)(q-1) with multiplicity 1; zero rows dropped."""
    if q < 2 or m < 1:
        raise ValueError("need q >= 2 and m >= 1")
    rows = []
    for k in range(m):
        mult = comb(m + 1, k) * stratum_dimension(q, m - k)
        if mult:
            rows.append((-(m + 1) + k * q, mult))
    rows.append(((m + 1) * (q - 1), 1))
    rows.sort()
    return SpectrumReport(q=q, m=m, entries=tuple(rows), source="closed_form")


def _walk_counts(graph: DiagGraph, steps: int, paranoid: bool) -> list[int]:
    """tr(A^j) for j = 0..steps, exactly.

    Single-column iteration: tr(A^j) = n * (A^j)_00 by vertex-transitivity;
    paranoid mode sums the diagonal over every start vertex instead, with
    the starts of a block packed side by side into the bits of each entry.
    An entry of A^j e_s is at most max_degree^j, so a field of
    ``width`` bits never carries into the next one.  The width comes from
    the largest degree, the width of ``nbr``, never from the claimed valency.
    """
    n = graph.size
    adjacency = graph.adjacency
    starts = range(n) if paranoid else range(1)
    width = (graph.nbr.shape[1] ** steps).bit_length() + 1
    mask = (1 << width) - 1
    per_block = max(1, PACK_BITS // (n * width))
    traces = [0] * (steps + 1)
    for lo in range(0, len(starts), per_block):
        block = starts[lo: lo + per_block]
        col = [0] * n
        for k, s in enumerate(block):
            col[s] = 1 << (width * k)
        traces[0] += len(block)
        for j in range(1, steps + 1):
            nxt = [0] * n
            for u in range(n):
                cu = col[u]
                if cu:
                    for v in adjacency[u]:
                        nxt[v] += cu
            col = nxt
            traces[j] += sum(col[s] >> (width * k) & mask for k, s in enumerate(block))
    if not paranoid:
        traces = [n * t for t in traces]
    return traces


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Fraction (small dense systems only)."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def spectrum_trace_moments(graph: DiagGraph, paranoid: bool = False) -> SpectrumReport:
    """Recover multiplicities from exact closed-walk counts.

    Raises if any recovered multiplicity is negative or fractional, which
    would mean an eigenvalue outside the candidate set -(m+1)+kq.
    """
    q, m = graph.q, graph.m
    if m < 2:
        # at m = 1 the two minimal partitions coincide and the closed form
        # describes the doubled adjacency matrix, not the simple graph
        raise ValueError("trace-moment verification needs m >= 2")
    candidates = [-(m + 1) + k * q for k in range(m + 2)]
    traces = _walk_counts(graph, m + 1, paranoid)
    vand = [
        [Fraction(lam**j) for lam in candidates] for j in range(m + 2)
    ]
    mults = _solve_exact(vand, [Fraction(t) for t in traces])
    entries = []
    for lam, mult in zip(candidates, mults):
        if mult.denominator != 1 or mult < 0:
            raise AssertionError(
                f"non-integral or negative multiplicity {mult} at eigenvalue {lam}"
            )
        if mult:
            entries.append((lam, int(mult)))
    entries.sort()
    return SpectrumReport(q=q, m=m, entries=tuple(entries), source="trace_moments")


def verify_stratum_identity(q: int, m: int) -> bool:
    """Consistency of the stratum dimensions with the interval structure.

    Checks q^s = sum of stratum dimensions over an interval of corank s
    (the interval has C(s+1, i) elements at relative rank i, plus the top
    element contributing 1), and that the closed-form multiplicities are
    C(m+1, k) times the corank m-k stratum dimension.
    """
    for s in range(m + 1):
        total = 1  # the top element's one-dimensional stratum
        for i in range(s):
            total += comb(s + 1, i) * stratum_dimension(q, s - i)
        if total != q**s:
            return False
    by_eigenvalue = dict(spectrum_closed_form(q, m).entries)
    for k in range(m):
        want = comb(m + 1, k) * stratum_dimension(q, m - k)
        have = by_eigenvalue.get(-(m + 1) + k * q, 0)
        if want != have:
            return False
    if by_eigenvalue.get((m + 1) * (q - 1), 0) != 1:
        return False
    return True
