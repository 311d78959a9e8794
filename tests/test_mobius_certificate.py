"""The Moebius values read off the closure masks (Rota's closure theorem)
against exact inversion.

``exact_mismatches`` is the entry-by-entry comparison of the dense oracle
``replaced.poset_matrices``: ``finer_or_equal`` zeta, forward substitution,
and one closed-form call per comparable pair.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import replaced
from diaglab import partitions, semilattice
from diaglab.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from diaglab.semilattice import verify_mobius

from conftest import GRID, semilattice_of
from replaced import poset_matrices


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


@pytest.mark.parametrize("spec,m", [inst for inst in GRID if inst[1] <= 5])
def test_generator_zeta_and_certificate_match_inversion(spec, m, monkeypatch):
    sl = semilattice_of(spec, m)
    mats = poset_matrices(list(sl.elements))
    below = np.array(sl.below)
    zeta = (below[:, None] & ~below[None, :]) == 0
    assert np.array_equal(zeta, np.array(mats.zeta, dtype=bool))
    rep = verify_mobius(sl)
    assert rep.ok
    assert rep.mu_bottom_top == mats.mobius[sl.e_index][sl.u_index]
    # against a closed form of zeros, the mismatches are every nonzero value
    monkeypatch.setattr(semilattice, "mobius_closed_form", lambda *args: 0)
    mobius = np.array(mats.mobius)
    assert verify_mobius(sl).mismatches == tuple(
        (int(i), int(j), int(mobius[i, j]), 0) for i, j in np.argwhere(mobius))


@pytest.mark.parametrize("spec,m", [("C2", 2), ("C2", 4), ("C3", 3), ("S3", 3),
                                    ("Q8", 2)])
def test_passing_certificate_needs_no_exact_order(spec, m, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("exact order test called")

    monkeypatch.setattr(replaced, "poset_matrices", refuse)
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


@pytest.mark.parametrize("spec,m", [("C2", 4), ("C3", 3)])
def test_blocks_of_one_or_two_elements_change_nothing(spec, m, wrong_top_interval,
                                                     monkeypatch):
    sl = semilattice_of(spec, m)
    whole = verify_mobius(sl)
    assert whole.mismatches == exact_mismatches(sl)[0]
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 128)
    assert verify_mobius(sl) == whole


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


@pytest.mark.parametrize("offset", [1 << 40, (1 << 53) + 1])
def test_large_closed_form_entries_compare_exactly(offset, monkeypatch):
    sl = semilattice_of("C2", 3)
    original = semilattice.mobius_closed_form

    def shifted(rank_s, rank_t, t_is_u, m):
        value = original(rank_s, rank_t, t_is_u, m)
        return value + offset if t_is_u and rank_s < m else value

    monkeypatch.setattr(semilattice, "mobius_closed_form", shifted)
    rep = verify_mobius(sl)
    mismatches, _ = exact_mismatches(sl)
    assert rep.mismatches == mismatches
    assert [j for _, j, _, _ in mismatches] == [sl.u_index] * (len(sl.elements) - 1)
    assert all(closed - exact == offset for _, _, exact, closed in mismatches)


def test_closure_masks_must_contain_their_subsets():
    sl = semilattice_of("C2", 3)
    with pytest.raises(AssertionError, match="does not contain"):
        verify_mobius(replace(sl, cl=(0,) * len(sl.cl)))
