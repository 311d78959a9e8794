"""The table of subset suprema against the loop it replaced.

``partitions.subset_suprema`` builds the table one generator at a time, a
block of rows per ``components`` call, and counts each row's blocks, a
block of rows at a time, at the end.  The oracle is the per-mask loop of pairwise suprema in
``replaced.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaglab import partitions
from diaglab.partitions import Partition, subset_suprema

from conftest import GRID, minimals_of
from replaced import loop_subset_suprema
from test_packed_oracles import spy_blocks


@pytest.mark.parametrize("spec,m", GRID)
def test_table_matches_the_mask_loop_on_grid(spec, m):
    minimals = minimals_of(spec, m)
    assert subset_suprema(minimals) == loop_subset_suprema(minimals)


@st.composite
def partition_families(draw):
    """One to four partitions of a common ground set of at most 12 points,
    repeats allowed."""
    n = draw(st.integers(0, 12))
    labels = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
    return [Partition.from_labels(draw(labels)) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=300, deadline=None)
@given(partition_families())
def test_table_matches_the_mask_loop_random(parts):
    sup = subset_suprema(parts)
    assert sup == loop_subset_suprema(parts)
    assert [p.block_count for p in sup] == [len(p.blocks()) for p in sup]


def test_table_over_several_blocks(monkeypatch):
    # C3 m=3: 16 subsets of 27 points, 64 bytes a point, so three rows per
    # block; the layers of 1, 2, 4 and 8 rows and the final count over all
    # 16 each end in a short block where they do not fit whole
    minimals = minimals_of("C3", 3)
    cut = spy_blocks(monkeypatch, partitions)
    monkeypatch.setattr(partitions, "BLOCK_BYTES", 3 * 64 * 27)
    assert subset_suprema(minimals) == loop_subset_suprema(minimals)
    assert [[len(b) for b in blocks] for blocks in cut] == [
        [1], [2], [3, 1], [3, 3, 2], [3] * 5 + [1]]


def test_table_is_one_read_only_array():
    minimals = minimals_of("C4", 3)
    sup = subset_suprema(minimals)
    base = sup[0].block_of.base
    assert base.shape == (len(sup), minimals[0].size)
    assert base.dtype == np.int32 and not base.flags.writeable
    for p in sup:
        assert p.block_of.base is base
        assert p.block_of.dtype == np.int32 and not p.block_of.flags.writeable
    with pytest.raises(ValueError):
        sup[3].block_of[0] = 1
    assert np.array_equal(base[0], np.arange(minimals[0].size))
