from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.spectral import (
    _multiplicities,
    spectrum_closed_form,
    spectrum_trace_moments,
    stratum_dimension,
    verify_stratum_identity,
)

from conftest import cycle_chromatic_polynomial, graph_of
from replaced import fraction_solve


def test_closed_form_q3_m2():
    rep = spectrum_closed_form(3, 2)
    assert rep.entries == ((-3, 2), (0, 6), (6, 1))


def test_closed_form_q2_m3():
    # entries with even m-k vanish at q=2; what is left is the K44 spectrum
    rep = spectrum_closed_form(2, 3)
    assert rep.entries == ((-4, 1), (0, 6), (4, 1))


def test_closed_form_q2_m2_is_k4():
    rep = spectrum_closed_form(2, 2)
    assert rep.entries == ((-1, 3), (3, 1))


def test_closed_form_m2_latin_square_pattern():
    for q in (3, 4, 5, 6, 8):
        rep = spectrum_closed_form(q, 2)
        entries = dict(rep.entries)
        assert entries[3 * (q - 1)] == 1
        assert entries[q - 3] == 3 * (q - 1)
        assert entries[-3] == (q - 1) * (q - 2)


def test_trace_moments_match_closed_form_examples():
    for spec, m in [("C3", 2), ("C2", 3), ("C3", 3), ("C4", 2)]:
        g = graph_of(spec, m)
        assert (
            spectrum_trace_moments(g).entries
            == spectrum_closed_form(g.q, m).entries
        )


def test_trace_moments_paranoid():
    g = graph_of("C3", 2)
    assert (
        spectrum_trace_moments(g, paranoid=True).entries
        == spectrum_trace_moments(g).entries
    )


def test_cospectral_pair_order_16():
    a = spectrum_trace_moments(graph_of("C2xC2", 2))
    b = spectrum_trace_moments(graph_of("C4", 2))
    assert a.entries == b.entries == ((-3, 6), (1, 9), (9, 1))


def test_spectrum_agreement_grid(grid):
    for spec, m in grid:
        g = graph_of(spec, m)
        closed = spectrum_closed_form(g.q, m)
        moments = spectrum_trace_moments(g)
        assert closed.entries == moments.entries, (spec, m)


def test_moment_invariants_grid(grid):
    for spec, m in grid:
        g = graph_of(spec, m)
        rep = spectrum_closed_form(g.q, m)
        k = (m + 1) * (g.q - 1)
        assert rep.total_multiplicity() == g.size
        assert rep.moment(1) == 0
        assert rep.moment(2) == g.size * k


def test_stratum_dimension_values():
    assert stratum_dimension(3, 1) == 2
    assert stratum_dimension(2, 2) == 0
    for q in range(2, 12):
        assert stratum_dimension(q, 0) == 0
        assert stratum_dimension(q, 1) == q - 1


def test_stratum_dimension_nonnegative_bigint():
    for q in range(2, 101):
        for s in range(21):
            assert stratum_dimension(q, s) >= 0


def test_stratum_identity_range():
    for q in range(2, 11):
        for m in range(1, 9):
            assert verify_stratum_identity(q, m), (q, m)


def test_stratum_identity_s0_chain():
    # corank 0: the only contribution is the one-dimensional top stratum
    assert stratum_dimension(5, 0) == 0
    assert verify_stratum_identity(5, 1)


def test_cycle_polynomial_identity():
    # q * n(q, s) is the chromatic polynomial of the (s+1)-cycle
    for q in range(2, 11):
        for s in range(0, 9):
            assert q * stratum_dimension(q, s) == cycle_chromatic_polynomial(s + 1, q)


def test_cycle_polynomial_not_s_plus_two():
    # the same identity with cycle length s+2 fails; witness q=4, s=1:
    # q*n = 12 but the 3-cycle polynomial at 4 is 24
    assert 4 * stratum_dimension(4, 1) == 12
    assert cycle_chromatic_polynomial(3, 4) == 24
    mismatches = [
        (q, s)
        for q in range(2, 11)
        for s in range(0, 9)
        if q * stratum_dimension(q, s) != cycle_chromatic_polynomial(s + 2, q)
    ]
    assert (4, 1) in mismatches


def test_errors():
    with pytest.raises(ValueError):
        spectrum_closed_form(1, 2)
    with pytest.raises(ValueError):
        stratum_dimension(2, -1)


@st.composite
def candidate_traces(draw):
    """The candidate eigenvalues -(m+1)+kq and power sums of them, with
    integral multiplicities (some negative) and a perturbation that is
    mostly zero."""
    q, m = draw(st.integers(2, 9)), draw(st.integers(2, 6))
    candidates = [-(m + 1) + k * q for k in range(m + 2)]
    mult = st.one_of(st.integers(-2, 5), st.integers(0, 10**6))
    mults = draw(st.lists(mult, min_size=m + 2, max_size=m + 2))
    noise = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 7]),
                          min_size=m + 2, max_size=m + 2))
    traces = [sum(c * lam**j for c, lam in zip(mults, candidates)) + e
              for j, e in enumerate(noise)]
    return candidates, traces


@settings(max_examples=300, deadline=None)
@given(candidate_traces())
def test_integer_solve_agrees_with_fraction_elimination(case):
    candidates, traces = case
    vand = [[Fraction(lam**j) for lam in candidates] for j in range(len(candidates))]
    want = fraction_solve(vand, [Fraction(t) for t in traces])
    bad = [(x, lam) for x, lam in zip(want, candidates) if x.denominator != 1 or x < 0]
    if bad:
        x, lam = bad[0]
        with pytest.raises(AssertionError) as raised:
            _multiplicities(candidates, traces)
        assert str(raised.value) == (
            f"non-integral or negative multiplicity {x} at eigenvalue {lam}")
    else:
        assert _multiplicities(candidates, traces) == want
