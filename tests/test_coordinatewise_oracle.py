"""``semilattice.coordinatewise`` builds every map of all the vertices of G^m
that acts coordinate by coordinate: row p is the sum over i of
q^i maps[p, i, y_i].  These tests hold it to the digit path, the products
of ``vertex_products`` and the digit table through ``VertexCodec.index``,
for left and right multiplications, automorphisms and inversion, at points
that Hypothesis draws on the grid groups at m <= 4 and on S4.  No maps give
an empty (0, q^m) array."""

from __future__ import annotations

import numpy as np
import pytest

from diaglab.diaggraph import right_translations
from diaglab.groups import generating_sequence
from diaglab.semilattice import (
    VertexCodec,
    _left_multiplications,
    coordinatewise,
    vertex_products,
)

from conftest import GRID, aut_of, group_of

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

INSTANCES = [(spec, m) for spec, m in GRID if m <= 4] + [("S4", 1), ("S4", 2)]


@st.composite
def instance_and_points(draw):
    spec, m = draw(st.sampled_from(INSTANCES))
    codec = VertexCodec(q=group_of(spec).order, m=m)
    points = draw(st.lists(st.integers(0, codec.size - 1), min_size=1, max_size=4))
    return spec, codec, np.array(points)


@settings(max_examples=60, deadline=None)
@given(instance_and_points())
def test_left_and_right_multiplications_match_vertex_products(drawn):
    spec, codec, points = drawn
    g, vertices = group_of(spec), np.arange(codec.size)
    left = coordinatewise(codec, g.mul_array[codec.digits[points]])
    right = coordinatewise(codec, g.mul_array.T[codec.digits[points]])
    assert left.shape == right.shape == (len(points), codec.size)
    assert np.array_equal(left, vertex_products(g, codec, points[:, None], vertices))
    assert np.array_equal(right, vertex_products(g, codec, vertices, points[:, None]))
    assert np.array_equal(_left_multiplications(g, codec, points), left)


@settings(max_examples=30, deadline=None)
@given(instance_and_points(), st.data())
def test_automorphisms_and_inversion_match_the_digit_path(drawn, data):
    spec, codec, _ = drawn
    g, vertices = group_of(spec), np.arange(codec.size)
    alpha = np.array(data.draw(st.sampled_from(aut_of(spec))))
    assert np.array_equal(coordinatewise(codec, alpha[None, None])[0],
                          codec.index(alpha[codec.digits]))
    inverse = coordinatewise(codec, g.inv_array[None, None])[0]
    assert np.array_equal(inverse, codec.index(g.inv_array[codec.digits]))
    assert not vertex_products(g, codec, vertices, inverse).any()


@settings(max_examples=30, deadline=None)
@given(instance_and_points())
def test_a_different_map_in_each_coordinate(drawn):
    # maps[p, i] a left multiplication by one element and maps[p, j] an
    # automorphism: row p still reads coordinate i through maps[p, i] alone
    spec, codec, points = drawn
    g = group_of(spec)
    alpha = np.array(aut_of(spec)[-1])
    maps = g.mul_array[codec.digits[points]].copy()
    maps[:, -1] = alpha
    expected = g.mul_array[codec.digits[points][:, None, :], codec.digits[None]]
    expected[..., -1] = alpha[codec.digits[:, -1]]
    assert np.array_equal(coordinatewise(codec, maps), codec.index(expected))


@pytest.mark.parametrize("spec,m", INSTANCES)
def test_right_translations_match_the_digit_path(spec, m):
    g = group_of(spec)
    codec = VertexCodec(q=g.order, m=m)
    expected = []
    for x in generating_sequence(g):
        for i in range(m):
            digits = codec.digits.copy()
            digits[:, i] = g.mul_array[digits[:, i], x]
            expected.append(codec.index(digits))
    got = [p.image for p in right_translations(g, codec)]
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("spec,m", [("C3", 1), ("C3", 2), ("S3", 3)])
def test_no_maps_give_an_empty_array(spec, m):
    g = group_of(spec)
    codec = VertexCodec(q=g.order, m=m)
    none = g.mul_array[codec.digits[np.zeros(0, dtype=np.intp)]]
    assert none.shape == (0, m, g.order)
    for dtype in (np.intp, np.int32):
        out = coordinatewise(codec, none, dtype)
        assert out.shape == (0, codec.size) and out.dtype == dtype
