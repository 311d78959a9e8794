"""The vertex stabiliser's generators against the generic Schreier-Sims chain.

``vertex_stabiliser_generators`` takes the right translations as the level-0
transversal and forms one Schreier generator per coset orbit; the order
n * |D_0| and the suborbits of D_0 must agree with the chain that
``build_chain`` builds from all the generators, which assumes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from diaglab.partitions import components
from diaglab.semilattice import VertexCodec
from diaglab.symmetry import (
    TaggedPerm,
    build_chain,
    diagonal_group_generators,
    diagonal_group_order_formula,
    vertex_stabiliser_generators,
)

from conftest import GRID, aut_of, generators_of, group_of

SMALL = [(spec, m) for spec, m in GRID if group_of(spec).order ** m <= 1296]


def stabiliser_of(spec: str, m: int):
    g = group_of(spec)
    return vertex_stabiliser_generators(g, VertexCodec(q=g.order, m=m),
                                        list(generators_of(spec, m)))


def group_order(n: int, stabiliser) -> int:
    """n * |D_0|, with D_0 trivial when no Schreier generator is left (as
    when the extra generator below is itself a translation)."""
    return n * (build_chain(stabiliser).order() if stabiliser else 1)


def stabiliser_order(spec: str, m: int, stabiliser) -> int:
    return group_order(group_of(spec).order ** m, stabiliser)


@pytest.mark.parametrize("spec,m", SMALL)
def test_order_and_suborbits_match_generic_chain(spec, m):
    perms = list(generators_of(spec, m))
    generic = build_chain(perms)
    stabiliser = stabiliser_of(spec, m)
    assert stabiliser_order(spec, m, stabiliser) == generic.order()

    n = len(perms[0].image)
    lab = components(n, [s.image for s in stabiliser])
    generic_lab = components(n, generic.stabilizer_generators())
    assert np.array_equal(np.flatnonzero(lab == np.arange(n)),
                          np.flatnonzero(generic_lab == np.arange(n)))

    # every Schreier generator fixes vertex 0 and lies in the group
    for s in stabiliser:
        assert s.image[0] == 0
        assert generic._sift(s.image.astype(generic.dtype), 0)[0] is None


@pytest.mark.parametrize("spec,m", [("C4", 7), ("C3", 8), ("C16", 4)])
def test_order_formula_past_4096_points(spec, m):
    g = group_of(spec)
    assert stabiliser_order(spec, m, stabiliser_of(spec, m)) == \
        diagonal_group_order_formula(g, m, aut_of(spec))


def test_dropping_the_inversion_map_is_caught():
    # The inversion map is the one generator that does not normalise the
    # translations; without its Schreier generators the order falls short.
    full = stabiliser_of("S3", 3)
    kept = [s for s in full if s.tag != "inversion-map"]
    assert len(kept) < len(full)
    assert stabiliser_order("S3", 3, full) == 31104
    assert stabiliser_order("S3", 3, kept) == 7776


def test_needs_transitive_translations():
    g = group_of("C3")
    codec = VertexCodec(q=3, m=3)
    perms = diagonal_group_generators(g, codec, aut_of("C3"))
    # the diagonal left multiplications of an abelian group are translations,
    # but only along the diagonal
    without = [p for p in perms if p.tag != "right-mult"]
    with pytest.raises(AssertionError, match="not transitive"):
        vertex_stabiliser_generators(g, codec, without)


def cycles(image: np.ndarray) -> dict[int, list[list[int]]]:
    """The cycles of a permutation, by length."""
    seen, out = set(), {}
    for x in range(len(image)):
        if x in seen:
            continue
        cycle = [x]
        while image[cycle[-1]] != x:
            cycle.append(int(image[cycle[-1]]))
        seen.update(cycle)
        out.setdefault(len(cycle), []).append(cycle)
    return out


def conjugator(r: np.ndarray, r2: np.ndarray, rng) -> np.ndarray:
    """A random permutation s with s r s^-1 = r2, for r and r2 of one cycle
    type: it maps the cycles of r onto those of r2, in random pairs, each
    from a random starting point."""
    s = np.empty(len(r), dtype=np.intp)
    targets = cycles(r2)
    for length, sources in cycles(r).items():
        for i, c in zip(rng.permutation(len(sources)), sources):
            s[c] = np.roll(targets[length][i], int(rng.integers(length)))
    assert np.array_equal(s[r], r2[s])
    return s


@pytest.mark.parametrize("spec,m", [("C2", 3), ("C3", 2), ("S3", 1), ("C4", 2),
                                    ("C2xC2", 2), ("D4", 1)])
@pytest.mark.parametrize("seed", range(3))
def test_generators_that_do_not_normalise_the_translations(spec, m, seed):
    # Beside the translations, one more generator s: a random permutation of
    # one coordinate, which normalises the translations of the others only;
    # a random permutation of all the points, which normalises none; and a
    # permutation with s r s^-1 = r2 for two translation generators, or its
    # inverse, which then has s^-1 r s = r2.  In each case the Schreier
    # generators of every coset orbit are needed, and no more may be skipped.
    g = group_of(spec)
    rng = np.random.default_rng(seed)
    codec = VertexCodec(q=g.order, m=m)
    digits = codec.digits.copy()
    digits[:, 0] = rng.permutation(g.order)[digits[:, 0]]
    translations = [p for p in diagonal_group_generators(g, codec, aut_of(spec))
                    if p.tag == "right-mult"]
    r = translations[0].image
    r2 = next(t.image for t in reversed(translations)
              if cycles(t.image).keys() == cycles(r).keys())
    s = conjugator(r, r2, rng)
    for extra in (codec.index(digits), rng.permutation(codec.size), s, np.argsort(s)):
        perms = translations + [TaggedPerm(tag="extra", image=extra)]
        stabiliser = vertex_stabiliser_generators(g, codec, perms)
        assert group_order(codec.size, stabiliser) == build_chain(perms).order()
