"""The Moebius certificate (closed form times zeta is the identity) against
exact inversion.

``exact_mismatches`` is the entry-by-entry comparison that ``verify_mobius``
made before it checked a certificate: ``finer_or_equal`` zeta, forward
substitution, and one closed-form call per comparable pair.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from diaglab import partitions, semilattice
from diaglab.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from diaglab.partitions import poset_matrices
from diaglab.semilattice import generator_zeta, verify_mobius

from conftest import GRID, semilattice_of


def exact_mismatches(sl):
    mats = poset_matrices(list(sl.elements))
    assert mats.elements == sl.elements
    out = []
    for i in range(len(sl.elements)):
        for j in range(len(sl.elements)):
            expect = (semilattice.mobius_closed_form(
                sl.rank[i], sl.rank[j], j == sl.u_index, sl.m)
                if mats.zeta[i][j] else 0)
            if mats.mobius[i][j] != expect:
                out.append((i, j, mats.mobius[i][j], expect))
    return tuple(out), mats.mobius[sl.e_index][sl.u_index]


@pytest.fixture
def wrong_top_interval(monkeypatch):
    """Closed form off by one on every interval [s, U] with s below U."""
    original = semilattice.mobius_closed_form

    def wrong(rank_s, rank_t, t_is_u, m):
        value = original(rank_s, rank_t, t_is_u, m)
        return value + 1 if t_is_u and rank_s < m else value

    monkeypatch.setattr(semilattice, "mobius_closed_form", wrong)


@pytest.mark.parametrize("spec,m", [inst for inst in GRID if inst[1] <= 5])
def test_generator_zeta_and_certificate_match_inversion(spec, m):
    sl = semilattice_of(spec, m)
    mats = poset_matrices(list(sl.elements))
    assert np.array_equal(generator_zeta(sl), np.array(mats.zeta, dtype=bool))
    rep = verify_mobius(sl)
    assert rep.ok
    assert rep.mu_bottom_top == mats.mobius[sl.e_index][sl.u_index]


@pytest.mark.parametrize("spec,m", [("C2", 2), ("C2", 4), ("C3", 3), ("S3", 3),
                                    ("Q8", 2)])
def test_passing_certificate_needs_no_exact_order(spec, m, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("exact order test called")

    monkeypatch.setattr(semilattice, "poset_matrices", refuse)
    monkeypatch.setattr(partitions, "finer_or_equal", refuse)
    assert verify_mobius(semilattice_of(spec, m)).ok


@pytest.mark.parametrize("spec,m", [("C2", 2), ("C2", 4), ("C3", 3), ("C2xC2", 3),
                                    ("C2", 5)])
def test_wrong_closed_form_fails_like_inversion(spec, m, wrong_top_interval):
    sl = semilattice_of(spec, m)
    rep = verify_mobius(sl)
    mismatches, mu = exact_mismatches(sl)
    assert not rep.ok
    assert mismatches  # the oracle sees the fault too
    assert rep.mismatches == mismatches
    assert rep.mu_bottom_top == mu


def test_check_all_records_a_wrong_closed_form(capsys, wrong_top_interval,
                                               monkeypatch):
    argv = ["check-all", "--group", "C3", "--m", "3"]
    assert main(argv) == EXIT_CHECK_FAILED
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == ["mobius-closed-form"]
    failed = next(c for c in data["claims"] if c["claim"] == "mobius-closed-form")
    assert failed["detail"].startswith("mu(bottom,top) = -3, mismatches = ")

    monkeypatch.undo()
    assert main(argv) == EXIT_OK
    full = json.loads(capsys.readouterr().out)
    assert [c["claim"] for c in data["claims"]] == [c["claim"] for c in full["claims"]]


@pytest.mark.parametrize("spec,m", [("C2", 3), ("C3", 3), ("C2", 5)])
def test_perturbed_rank_fails(spec, m):
    sl = semilattice_of(spec, m)
    k = sl.rank.index(2)  # a rank-2 element, below the top since m >= 3
    bad = replace(sl, rank=sl.rank[:k] + (1,) + sl.rank[k + 1:])
    rep = verify_mobius(bad)
    assert not rep.ok
    assert rep.mismatches == exact_mismatches(bad)[0]


def test_element_order_must_extend_refinement():
    sl = semilattice_of("C2", 3)
    k = len(sl.elements)
    flipped = replace(
        sl,
        elements=sl.elements[::-1],
        rank=sl.rank[::-1],
        e_index=k - 1 - sl.e_index,
        u_index=k - 1 - sl.u_index,
        minimal_indices=tuple(k - 1 - i for i in sl.minimal_indices),
        below=sl.below[::-1],
    )
    with pytest.raises(AssertionError, match="upper triangular"):
        verify_mobius(flipped)


def test_rank_outside_the_lattice_is_refused():
    sl = semilattice_of("C2", 3)
    bad = replace(sl, rank=sl.rank[:-1] + (sl.m + 1,))
    with pytest.raises(ValueError):
        verify_mobius(bad)


def test_float32_bound_is_asserted_on_the_entries(monkeypatch):
    sl = semilattice_of("C2", 3)  # 12 elements
    largest = (1 << 24) // 12  # 12 * largest is just below 2**24
    monkeypatch.setattr(semilattice, "mobius_closed_form",
                        lambda rank_s, rank_t, t_is_u, m: largest)
    assert not verify_mobius(sl).ok
    monkeypatch.setattr(semilattice, "mobius_closed_form",
                        lambda rank_s, rank_t, t_is_u, m: largest + 1)
    with pytest.raises(AssertionError, match="overflow exact float32 sums"):
        verify_mobius(sl)
