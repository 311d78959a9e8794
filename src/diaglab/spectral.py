"""Exact spectrum of the diagonal graph, two independent ways.

``spectrum_closed_form`` evaluates the eigenvalue/multiplicity formula in
integer arithmetic.  ``spectrum_trace_moments`` never diagonalises anything:
it counts closed walks exactly, then solves the square Vandermonde system on
the candidate eigenvalues -(m+1)+kq in integers, by Lagrange interpolation.
Disagreement between the two, or a negative or fractional multiplicity,
would falsify the closed form; both paths are compared entry by entry.

The walk counts are a numpy kernel over the neighbour array ``nbr``.  As A
is symmetric, tr(A^j) = sum over starts s of <A^a e_s, A^b e_s> with
a = j // 2 and b = j - a, so only ceil(steps/2) multiplications by A are
run.  From vertex 0 alone, vertex-transitivity turns the count into the
trace; under ``paranoid`` or without the translation certificate
(``DiagGraph.rooted``) it counts from every vertex, a block of starts side
by side as the columns of one array.  An entry of A^t e_s is at most deg^t
for the width deg of ``nbr``, so the columns of step t take the narrowest
of uint8, uint16, uint32 and int64 that holds deg^t, and the inner
products are taken in int64, exact while a block times deg^steps < 2^63.
Past that bound the columns hold Python ints (``dtype=object``), so a
count never wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .diaggraph import DiagGraph
from .partitions import start_blocks


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


# The column types of the walk counts, narrowest first.  There is no uint64:
# einsum cannot cast it safely to the int64 of the inner products.
WALK_DTYPES = (np.uint8, np.uint16, np.uint32, np.int64)


def _walk_blocks(n: int, deg: int, steps: int, starts: range) -> tuple[list[type], list[range]]:
    """The column dtype of each step t = 0..ceil(steps/2) and the blocks of
    ``starts`` for ``_walk_counts``.

    An entry of A^t e_s is at most deg^t, so step t takes the narrowest of
    ``WALK_DTYPES`` that holds deg^t.  One start adds at most deg^steps to
    a trace, so the inner products, taken in int64, are exact while a block
    times deg^steps < 2^63.  A block keeps one column array of the widest
    step within ``BLOCK_BYTES``.  Where deg^ceil(steps/2) passes int64 or
    a block passes that bound, every column holds Python ints
    (``dtype=object``)."""
    dtypes = [next((d for d in WALK_DTYPES if deg**t <= np.iinfo(d).max), object)
              for t in range(-(-steps // 2) + 1)]
    if dtypes[-1] is not object:
        blocks = start_blocks(starts, 8 * np.dtype(dtypes[-1]).itemsize * (n + 1))
        if len(blocks[0]) * deg**steps < 2**63:
            return dtypes, blocks
    return [object] * len(dtypes), start_blocks(starts, 64 * (n + 1))


def _walk_counts(graph: DiagGraph, steps: int, paranoid: bool) -> list[int]:
    """tr(A^j) for j = 0..steps, exactly.

    A is symmetric, so tr(A^j) = sum over starts s of <A^a e_s, A^b e_s>
    with a = j // 2 and b = j - a: only the columns A^t e_s for t up to
    ceil(steps/2) are formed.  A block of starts is one (n + 1, B) array,
    one column per start, in the dtype ``_walk_blocks`` gives its step;
    row n is a zero sentinel that absorbs the padding of ``nbr``, and each
    step adds the rows of every vertex's neighbours into an array of the
    next step's dtype, one gather per column of ``nbr``.  The degree bound of
    ``_walk_blocks`` comes from the width of ``nbr``, never from the
    claimed valency.  Where ``graph.rooted(paranoid)`` the one start 0
    gives tr(A^j) = n * (A^j)_00 by vertex-transitivity.
    """
    n = graph.size
    rooted = graph.rooted(paranoid)
    starts = range(1) if rooted else range(n)
    traces = [0] * (steps + 1)
    dtypes, blocks = _walk_blocks(n, graph.nbr.shape[1], steps, starts)

    def dot(a: np.ndarray, b: np.ndarray) -> int:
        if a.dtype == object:
            return int((a * b).sum())
        return int(np.einsum("ij,ij->", a, b, dtype=np.int64))

    for block in blocks:
        x = np.zeros((n + 1, len(block)), dtype=dtypes[0])
        x[np.asarray(block), np.arange(len(block))] = 1
        traces[0] += len(block)
        for t, dtype in enumerate(dtypes[1:], 1):
            y = np.zeros((n + 1, len(block)), dtype=dtype)
            rows = y[:n]
            for col in graph.columns:
                rows += x[col]
            # x = A^(t-1) e_s and y = A^t e_s give j = 2t - 1 and j = 2t
            traces[2 * t - 1] += dot(x, y)
            if 2 * t <= steps:
                traces[2 * t] += dot(y, y)
            x = y
    if rooted:
        traces = [n * t for t in traces]
    return traces


def _multiplicities(candidates: list[int], traces: list[int]) -> list[int]:
    """The multiplicities mult_k with sum_k mult_k * lam_k^j = traces[j] for
    j = 0..len(candidates)-1, over distinct integer candidates lam_k, in
    exact integer arithmetic.

    With P_k(x) = prod over i != k of (x - lam_i) = sum_j c_kj x^j, the sum
    sum_j c_kj * traces[j] is sum_i mult_i P_k(lam_i) = mult_k P_k(lam_k),
    so mult_k is that sum divided by prod over i != k of (lam_k - lam_i).
    A remainder or a negative quotient raises, as it would mean an
    eigenvalue outside the candidates.
    """
    mults = []
    for k, lam in enumerate(candidates):
        coeffs = [1]  # P_k, lowest degree first
        denom = 1
        for i, other in enumerate(candidates):
            if i != k:
                coeffs = [a - other * b for a, b in zip([0] + coeffs, coeffs + [0])]
                denom *= lam - other
        num = sum(c * t for c, t in zip(coeffs, traces))
        mult, rem = divmod(num, denom)
        if rem or mult < 0:
            raise AssertionError(
                f"non-integral or negative multiplicity {Fraction(num, denom)} "
                f"at eigenvalue {lam}"
            )
        mults.append(mult)
    return mults


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
    mults = _multiplicities(candidates, _walk_counts(graph, m + 1, paranoid))
    # the candidates ascend, so the entries come sorted by eigenvalue
    entries = [(lam, mult) for lam, mult in zip(candidates, mults) if mult]
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
