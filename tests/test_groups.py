from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.errors import (
    CapExceededError,
    DiagLabError,
    GroupParseError,
    GroupValidationError,
)
from diaglab.groups import (
    MAX_GROUP_ORDER,
    GroupTable,
    alternating,
    automorphism_group,
    cyclic,
    dihedral,
    direct_product,
    element_orders,
    from_table_text,
    generating_sequence,
    is_elementary_abelian,
    is_simple_nonabelian,
    parse_group_spec,
    quaternion,
    subgroup_closure,
    sylow2_nontrivial_cyclic,
    symmetric,
)

SMALL_SPECS = ["C1", "C2", "C3", "C4", "C5", "C6", "C2xC2", "S3", "D4", "Q8", "A4", "D5"]


def test_parse_trivial_group():
    g = parse_group_spec("C1")
    assert g.order == 1
    assert g.mul == ((0,),)


def test_parse_klein_four():
    g = parse_group_spec("C2xC2")
    assert g.order == 4
    assert all(g.order_of(x) == 2 for x in range(1, 4))


def test_parse_s3_order_multiset():
    g = parse_group_spec("S3")
    assert sorted(element_orders(g)) == [1, 2, 2, 2, 3, 3]


def test_parse_errors():
    for bad in ["", "C", "Z5", "C2x", "xC2", "D2", "S6", "A6", "C0"]:
        with pytest.raises(GroupParseError):
            parse_group_spec(bad)


def test_direct_product_c2_c3_is_c6():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert max(element_orders(g)) == 6


def test_direct_product_identity_factor():
    g = cyclic(5)
    prod = direct_product(cyclic(1), g)
    assert prod.mul == g.mul


def test_direct_product_cap():
    with pytest.raises(CapExceededError):
        direct_product(symmetric(5), symmetric(5))


@pytest.mark.parametrize("spec", ["C513", "C600", "D257", "D300", "C2xC300"])
def test_single_atoms_are_capped(spec):
    with pytest.raises(CapExceededError):
        parse_group_spec(spec)


def test_atoms_at_the_cap_are_built():
    assert parse_group_spec("C512").order == parse_group_spec("D256").order == 512


@pytest.mark.parametrize("spec", ["C" + "9" * 5000, "D" + "1" * 4400, "S1000",
                                  "C2x" + "A" + "7" * 5000])
def test_over_long_atoms_are_capped(spec):
    # the digit count is compared before int() sees the digits
    with pytest.raises(CapExceededError, match="digit index is above the group order cap"):
        parse_group_spec(spec)


def test_leading_zeros_do_not_count_toward_the_cap():
    assert parse_group_spec("C" + "0" * 5000 + "7").order == 7


def test_table_text_is_capped():
    with pytest.raises(CapExceededError):
        from_table_text("600\n0\n")


def test_unreadable_table_file_is_a_parse_error():
    with pytest.raises(GroupParseError, match="cannot read table file"):
        parse_group_spec("file:" + "a" * 5000)


def _accepted_or_refused(parse, arg) -> None:
    """``parse(arg)`` gives a table within the cap or a diaglab error, which
    the command line turns into exit code 2 or 3."""
    try:
        g = parse(arg)
    except DiagLabError:
        return
    assert isinstance(g, GroupTable) and 1 <= g.order <= MAX_GROUP_ORDER


_ATOMS = st.one_of(
    st.builds("{}{}".format, st.sampled_from("CDSA"), st.integers(0, 700)),
    st.sampled_from(["Q8", "", "C", "x", "8Q", " C2", "C-1", "C02"]),
    st.text(alphabet="CDSAQx0123456789 ", max_size=5),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(_ATOMS, min_size=1, max_size=3).map("x".join), st.text(max_size=12)))
def test_parse_group_spec_fuzz(spec):
    _accepted_or_refused(parse_group_spec, spec)


@st.composite
def _table_texts(draw):
    n = draw(st.integers(-1, 5))
    rows = draw(st.lists(st.lists(st.integers(-1, 6), max_size=6), max_size=6))
    if draw(st.booleans()):  # a well-formed C_n, sometimes damaged below
        rows = [[(a + b) % max(n, 1) for b in range(n)] for a in range(n)]
    lines = [str(n)] + [" ".join(map(str, r)) for r in rows]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.text(max_size=6))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_table_texts(), st.text(max_size=30)))
def test_from_table_text_fuzz(text):
    _accepted_or_refused(from_table_text, text)


def test_element_orders_c4():
    assert element_orders(cyclic(4)) == [1, 4, 2, 4]


def test_element_orders_klein():
    assert element_orders(parse_group_spec("C2xC2")) == [1, 2, 2, 2]


def test_element_orders_trivial():
    assert element_orders(cyclic(1)) == [1]


def test_quaternion_structure():
    g = quaternion()
    assert sorted(element_orders(g)) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not g.is_abelian()


def test_dihedral_matches_symmetric_3():
    assert sorted(element_orders(dihedral(3))) == sorted(element_orders(symmetric(3)))


@pytest.mark.parametrize(
    "spec,expected",
    [("C3", 3), ("C4", None), ("C2xC2", 2), ("C1", None), ("S3", None), ("C3xC3", 3)],
)
def test_is_elementary_abelian(spec, expected):
    assert is_elementary_abelian(parse_group_spec(spec)) == expected


@pytest.mark.parametrize(
    "spec,expected",
    [("C2", True), ("C3", False), ("C2xC2", False), ("C6", True),
     ("S3", True), ("D4", False), ("Q8", False), ("C12", True), ("A4", False)],
)
def test_sylow2_nontrivial_cyclic(spec, expected):
    assert sylow2_nontrivial_cyclic(parse_group_spec(spec)) == expected


@pytest.mark.parametrize("spec,count", [("C2", 1), ("C3", 2), ("C2xC2", 6), ("Q8", 24)])
def test_automorphism_counts(spec, count):
    assert len(automorphism_group(parse_group_spec(spec))) == count


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_aut_cyclic_prime(p):
    assert len(automorphism_group(cyclic(p))) == p - 1


def test_automorphisms_are_automorphisms():
    g = parse_group_spec("D4")
    auts = automorphism_group(g)
    for phi in auts:
        assert phi[0] == 0
        assert sorted(phi) == list(range(g.order))
        for a in g.elements():
            for b in g.elements():
                assert phi[g.mul[a][b]] == g.mul[phi[a]][phi[b]]
    # closed under composition and inverse
    aut_set = set(auts)
    for phi in auts:
        inv = [0] * g.order
        for i, x in enumerate(phi):
            inv[x] = i
        assert tuple(inv) in aut_set
        for psi in auts:
            assert tuple(psi[x] for x in phi) in aut_set


def test_automorphism_cap():
    with pytest.raises(CapExceededError):
        automorphism_group(symmetric(5))


def test_simple_nonabelian():
    assert not is_simple_nonabelian(symmetric(3))
    assert not is_simple_nonabelian(cyclic(5))
    assert is_simple_nonabelian(alternating(5))
    assert not is_simple_nonabelian(alternating(4))


def test_a5_file_roundtrip(tmp_path):
    a5 = alternating(5)
    path = tmp_path / "a5.tbl"
    rows = [str(a5.order)]
    rows += [" ".join(str(v) for v in row) for row in a5.mul]
    path.write_text("\n".join(rows))
    loaded = parse_group_spec(f"file:{path}")
    assert loaded.mul == a5.mul
    assert is_simple_nonabelian(loaded)


def test_file_rejects_shifted_identity(tmp_path):
    # C2 relabelled so that the identity sits at index 1 must be refused
    path = tmp_path / "bad.tbl"
    path.write_text("2\n1 0\n0 1\n")
    with pytest.raises(GroupValidationError):
        parse_group_spec(f"file:{path}")


def test_file_rejects_nonassociative(tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_text("3\n0 1 2\n1 0 0\n2 0 0\n")
    with pytest.raises(GroupValidationError):
        parse_group_spec(f"file:{path}")


def test_generating_sequence_generates():
    for spec in SMALL_SPECS:
        g = parse_group_spec(spec)
        gens = generating_sequence(g)
        assert len(subgroup_closure(g, set(gens))) == g.order


@settings(max_examples=60)
@given(st.sampled_from(SMALL_SPECS), st.data())
def test_group_axioms_random_triples(spec, data):
    g = parse_group_spec(spec)
    ix = st.integers(0, g.order - 1)
    a, b, c = data.draw(ix), data.draw(ix), data.draw(ix)
    assert g.mul[g.mul[a][b]][c] == g.mul[a][g.mul[b][c]]
    assert g.mul[0][a] == a and g.mul[a][0] == a
    assert g.mul[a][g.inv[a]] == 0 and g.mul[g.inv[a]][a] == 0
    assert g.inv[g.inv[a]] == a


def test_elementary_abelian_order_is_prime_power():
    for spec in SMALL_SPECS + ["C3xC3", "C2xC2xC2", "C5xC5"]:
        g = parse_group_spec(spec)
        p = is_elementary_abelian(g)
        if p is not None:
            n = g.order
            while n % p == 0:
                n //= p
            assert n == 1
