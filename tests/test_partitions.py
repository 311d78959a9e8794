from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab.partitions import (
    Partition,
    element_order,
    finer_or_equal,
    infimum,
    single_block,
    singletons,
    supremum,
    tie_break_keys,
)

from replaced import first_occurrence_ranks, loop_blocks, loop_finer_or_equal, poset_matrices


def parse_partition(text: str) -> Partition:
    """Parse the one-line text format: comma-separated block ids."""
    toks = [t.strip() for t in text.strip().split(",") if t.strip() != ""]
    if not toks:
        raise ValueError("empty partition text")
    return Partition.from_labels([int(t) for t in toks])


def format_partition(p: Partition) -> str:
    return ",".join(str(b) for b in p.block_of)


def grid_partitions(side: int) -> tuple[Partition, Partition]:
    """Row and column partitions of a side x side grid (row-major points)."""
    rows = Partition.from_labels([p // side for p in range(side * side)])
    cols = Partition.from_labels([p % side for p in range(side * side)])
    return rows, cols


labellings = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.lists(st.integers(0, 5), min_size=n, max_size=n)
)


def pair_of_partitions(draw):
    labels_a = draw(labellings)
    n = len(labels_a)
    labels_b = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return Partition.from_labels(labels_a), Partition.from_labels(labels_b)


partition_pairs = st.composite(pair_of_partitions)()


@given(labellings)
def test_canonical_form_round_trip(labels):
    p = Partition.from_labels(labels)
    lab = p.block_of.tolist()
    points = range(p.size)
    # the classes are kept, and each point's label is a point of its class
    # that is labelled by itself and lies at or below every point of it:
    # the least point of the class
    assert all((lab[x] == lab[y]) == (labels[x] == labels[y]) for x in points for y in points)
    assert all(lab[lab[x]] == lab[x] <= x for x in points)
    assert sum(lab[x] == x for x in points) == p.block_count == len(set(labels))
    # relabelling arbitrarily and labelling again is the identity
    relabeled = [2 * b + 7 for b in p.block_of]
    assert Partition.from_labels(relabeled) == p


def test_from_blocks():
    p = Partition.from_blocks([[0, 2], [1], [3, 4]])
    assert p.block_of.tolist() == [0, 1, 0, 3, 3]
    assert Partition.from_blocks([[4, 1], [3, 0, 2]]).block_of.tolist() == [0, 1, 0, 0, 1]
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 2]], size=3)
    # a negative point would wrap to the end of the ground set
    with pytest.raises(ValueError, match="point -1 outside 0..2"):
        Partition.from_blocks([[0, -1], [1]], size=3)
    with pytest.raises(ValueError, match="point 3 outside 0..2"):
        Partition.from_blocks([[0, 3], [1], [2]], size=3)
    with pytest.raises(ValueError, match="point -1 outside"):
        Partition.from_blocks([[0, -1], [1]])


def test_block_of_is_a_read_only_int32_array():
    rows, cols = grid_partitions(3)
    for p in (Partition.from_labels([7, -3, 7]), Partition.from_blocks([[0], [1, 2]]),
              Partition(3, (0, 1, 0), 2), singletons(4), single_block(4),
              supremum(rows, cols), infimum(rows, cols)):
        assert type(p.block_of) is np.ndarray
        assert p.block_of.dtype == np.int32 and p.block_of.ndim == 1
        with pytest.raises(ValueError):
            p.block_of[0] = 1


def test_tuple_and_array_labels_give_one_partition():
    labels = [0, 1, 0, 3]
    built = [Partition(4, tuple(labels), 3), Partition(4, np.array(labels), 3),
             Partition(4, np.array(labels, dtype=np.int32), 3),
             Partition.from_labels(labels)]
    assert all(p == built[0] for p in built)
    assert len({hash(p) for p in built}) == 1 and len(set(built)) == 1
    assert built[0] != Partition(4, (0, 1, 0, 1), 2)
    assert built[0] != Partition(4, (0, 1, 2, 0), 3)
    assert built[0] != labels


def test_a_writeable_array_is_copied_not_frozen():
    labels = np.array([0, 0, 2], dtype=np.int32)
    p = Partition(3, labels, 2)
    assert labels.flags.writeable
    labels[2] = 0
    assert p.block_of.tolist() == [0, 0, 2]


@settings(max_examples=100)
@given(partition_pairs)
def test_finer_or_equal_matches_the_loop(pq):
    p, q = pq
    for a, b in ((p, q), (q, p), (p, p), (p, supremum(p, q)), (infimum(p, q), q),
                 (singletons(p.size), q), (p, single_block(p.size))):
        assert finer_or_equal(a, b) == loop_finer_or_equal(a, b)


@given(labellings)
def test_blocks_match_the_loop(labels):
    p = Partition.from_labels(labels)
    blocks = p.blocks()
    assert blocks == loop_blocks(p)
    assert all(type(x) is int for blk in blocks for x in blk)
    assert p.block_sizes().tolist() == [len(blk) for blk in blocks]


@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_block_mates_list_the_rest_of_each_block(count, size, rng):
    points = list(range(count * size))
    rng.shuffle(points)
    p = Partition.from_blocks([points[i:i + size] for i in range(0, len(points), size)])
    block_of = {x: blk for blk in p.blocks() for x in blk}
    mates = p.block_mates()
    assert mates.shape == (p.size, size - 1)
    assert mates.tolist() == [[y for y in block_of[x] if y != x] for x in range(p.size)]


def test_block_mates_need_blocks_of_one_size():
    with pytest.raises(ValueError, match="unequal size"):
        Partition.from_labels([0, 0, 1, 2, 2, 2]).block_mates()


def test_blocks_of_empty_and_single_block():
    assert Partition.from_labels([]).blocks() == []
    assert single_block(3).blocks() == [[0, 1, 2]]


# 260 singleton blocks, then four points that join old blocks or open new
# ones: block counts tie often, and labels past 255 differ in their second
# byte, where a little-endian key would order them wrongly.
wide_tails = st.lists(st.lists(st.integers(0, 270), min_size=4, max_size=4),
                      min_size=2, max_size=8, unique_by=tuple)


@given(wide_tails)
def test_tie_break_key_orders_like_the_label_tuples(tails):
    parts = [Partition.from_labels(list(range(260)) + tail) for tail in tails]
    by_tuple = sorted(range(len(parts)), key=lambda i: tuple(parts[i].block_of.tolist()))
    assert np.argsort(tie_break_keys(parts), kind="stable").tolist() == by_tuple
    expect = sorted(range(len(parts)), key=lambda i: (-parts[i].block_count,
                                                      tuple(parts[i].block_of.tolist())))
    assert element_order(parts) == expect


# Few labels over few points, so rows and block counts often tie.
small_families = st.integers(0, 10).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=8))


@given(small_families)
def test_smallest_points_order_like_first_occurrence_ranks(rows):
    # At the first point where two partitions' labels differ, the smaller
    # smallest point is a block opened earlier in both, so it also has the
    # smaller first-occurrence rank, so the element order is the order by
    # those ranks.
    parts = [Partition.from_labels(r) for r in rows]
    ranks = [first_occurrence_ranks(r) for r in rows]
    labels = [tuple(p.block_of.tolist()) for p in parts]
    for i in range(len(parts)):
        for j in range(len(parts)):
            assert (labels[i] < labels[j]) == (ranks[i] < ranks[j])
            assert (labels[i] == labels[j]) == (ranks[i] == ranks[j])
    by_ranks = sorted(range(len(parts)), key=lambda i: (-parts[i].block_count, ranks[i]))
    assert element_order(parts) == by_ranks


def test_tie_break_key_past_one_byte():
    low = Partition.from_labels(list(range(257)) + [255])
    high = Partition.from_labels(list(range(257)) + [256])
    assert low.block_count == high.block_count == 257
    assert np.argsort(tie_break_keys([high, low])).tolist() == [1, 0]
    assert tie_break_keys([low]).dtype.itemsize == 2 * 258
    assert element_order([high, low]) == [1, 0]


def test_finer_or_equal_trivial_bounds():
    e, u = singletons(9), single_block(9)
    rows, cols = grid_partitions(3)
    for p in (e, u, rows, cols):
        assert finer_or_equal(e, p) or p == e
        assert finer_or_equal(p, u)
    assert not finer_or_equal(rows, cols)
    assert not finer_or_equal(cols, rows)


def test_finer_mismatched_sizes():
    with pytest.raises(ValueError):
        finer_or_equal(singletons(3), singletons(4))


def test_infimum_grid_is_singletons():
    rows, cols = grid_partitions(3)
    assert infimum(rows, cols) == singletons(9)


def test_supremum_grid_is_universal():
    rows, cols = grid_partitions(3)
    assert supremum(rows, cols) == single_block(9)


@settings(max_examples=80)
@given(partition_pairs)
def test_lattice_identities(pq):
    p, q = pq
    assert infimum(p, q) == infimum(q, p)
    assert supremum(p, q) == supremum(q, p)
    assert infimum(p, p) == p
    assert supremum(p, p) == p
    assert infimum(p, single_block(p.size)) == p
    assert supremum(p, singletons(p.size)) == p
    # order-level absorption
    assert finer_or_equal(infimum(p, q), p)
    assert finer_or_equal(p, supremum(p, q))


@settings(max_examples=40)
@given(partition_pairs, st.lists(st.integers(0, 5), min_size=1, max_size=24))
def test_associativity(pq, labels_r):
    p, q = pq
    r = Partition.from_labels((labels_r * p.size)[: p.size])
    assert infimum(infimum(p, q), r) == infimum(p, infimum(q, r))
    assert supremum(supremum(p, q), r) == supremum(p, supremum(q, r))


@settings(max_examples=80)
@given(partition_pairs)
def test_finer_matches_bruteforce(pq):
    p, q = pq
    brute = all(
        p.block_of[x] != p.block_of[y] or q.block_of[x] == q.block_of[y]
        for x in range(p.size)
        for y in range(x + 1, p.size)
    )
    assert finer_or_equal(p, q) == brute


def test_poset_three_chain():
    e = singletons(4)
    mid = Partition.from_labels([0, 0, 1, 1])
    u = single_block(4)
    mats = poset_matrices([e, mid, u])
    i, j, k = mats.index_of(e), mats.index_of(mid), mats.index_of(u)
    assert mats.mobius[i][k] == 0
    assert mats.mobius[i][j] == -1
    assert mats.mobius[j][k] == -1


def test_poset_boolean_rank_two():
    rows, cols = grid_partitions(3)
    mats = poset_matrices([singletons(9), rows, cols, single_block(9)])
    assert mats.mobius[mats.index_of(singletons(9))][mats.index_of(single_block(9))] == 1


def test_poset_latin_square_family():
    # rows, columns and letters of the Cayley table of C2 on 4 cells
    rows = Partition.from_labels([0, 0, 1, 1])
    cols = Partition.from_labels([0, 1, 0, 1])
    letters = Partition.from_labels([0, 1, 1, 0])
    mats = poset_matrices([singletons(4), rows, cols, letters, single_block(4)])
    mu_eu = mats.mobius[mats.index_of(singletons(4))][mats.index_of(single_block(4))]
    assert mu_eu == 2


def test_poset_duplicates_rejected():
    with pytest.raises(ValueError):
        poset_matrices([singletons(3), singletons(3)])


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(0, 4), min_size=8, max_size=8), min_size=1, max_size=8))
def test_zeta_times_mobius_is_identity(rows):
    elems = list({Partition.from_labels(r) for r in rows})
    mats = poset_matrices(elems)
    n = len(mats.elements)
    for i in range(n):
        for j in range(n):
            prod = sum(mats.zeta[i][k] * mats.mobius[k][j] for k in range(n))
            assert prod == (1 if i == j else 0)


def test_text_format_round_trip():
    p = parse_partition("0, 0, 1, 2, 1")
    assert p == Partition.from_labels([0, 0, 1, 2, 1])
    assert parse_partition(format_partition(p)) == p
    # canonicalised on load
    assert parse_partition("5,5,0") == Partition.from_labels([0, 0, 1])
    with pytest.raises(ValueError):
        parse_partition("")


@pytest.mark.parametrize("size,labels,count", [
    (4, (0, 1, 0, 2), 3),  # block numbers: label 2 is no point of its block
    (3, (0, 5, 0), 2),     # a label outside the ground set
    (2, (0, -1), 2),       # a negative label
    (3, (1, 1, 2), 2),     # a label above its point
    (3, (0, 0, 1), 2),     # a chain: point 1 labels point 2 but not itself
    (4, (0, 1, 1, 2), 2),  # a chain with the right number of fixed points
    (3, (0, 0, 0), 2),     # one point labels itself, for two blocks
    (3, (0, 1), 2),        # a label short
])
def test_labels_outside_smallest_point_form_are_refused(size, labels, count):
    with pytest.raises(ValueError):
        Partition(size, labels, count)


def test_smallest_point_labels_are_accepted_as_given():
    assert Partition(4, (0, 1, 0, 3), 3) == Partition.from_labels([0, 1, 0, 2])
    assert Partition(3, np.array([0, 1, 1]), 2).blocks() == [[0], [1, 2]]
    assert Partition(0, (), 0).block_count == 0
