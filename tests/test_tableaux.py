"""Standard tableau objects and exhaustive enumeration.

Oracle: fill the diagram with every permutation of 1..n and keep the
fillings that increase along rows and columns.
"""

import itertools
import sys

import pytest
from hypothesis import given

from latmult import Partition, StandardTableau, count_syt, enumerate_syt

from conftest import frames_in_use, partitions_st, tableaux_st


def frames_needed(call):
    """The fewest frames over its caller's depth with which call() returns:
    call's measured stack depth, counting call's own frame."""
    limit = sys.getrecursionlimit()
    base = frames_in_use()
    try:
        for spare in itertools.count(1):
            sys.setrecursionlimit(base + spare)
            try:
                call()
                return spare
            except RecursionError:
                pass
    finally:
        sys.setrecursionlimit(limit)


def brute_syt(lam):
    """Oracle: permutation fill, then row/column filter."""
    cells = [(i, j) for i, row in enumerate(lam.parts) for j in range(row)]
    n = len(cells)
    found = []
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {cell: value for cell, value in zip(cells, perm)}
        ok = all(
            grid[(i, j)] < grid[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in grid
        )
        if ok:
            rows = tuple(
                tuple(grid[(i, j)] for j in range(row_len))
                for i, row_len in enumerate(lam.parts)
            )
            found.append(rows)
    return sorted(found)


class TestValidation:
    def test_rejects_row_decrease(self):
        with pytest.raises(ValueError):
            StandardTableau(((2, 1),))

    def test_rejects_column_decrease(self):
        with pytest.raises(ValueError):
            StandardTableau(((1, 2), (3, 2)))

    def test_rejects_wrong_entry_set(self):
        with pytest.raises(ValueError):
            StandardTableau(((1, 3),))

    def test_rejects_non_partition_shape(self):
        with pytest.raises(ValueError):
            StandardTableau(((1,), (2, 3)))

    def test_shape_and_size(self):
        x = StandardTableau(((1, 3), (2, 6), (4,), (5,)))
        assert x.shape == Partition((2, 2, 1, 1))
        assert x.size == 6


class TestEnumerate:
    def test_single_cell(self):
        # [TRIVIAL]
        assert enumerate_syt(Partition((1,))) == [StandardTableau(((1,),))]

    def test_single_column_forced(self):
        # [TRIVIAL] the column filling is forced
        assert enumerate_syt(Partition((1, 1, 1))) == [
            StandardTableau(((1,), (2,), (3,)))
        ]

    def test_two_one_has_two(self):
        # [DERIVED] brute-force fill of 3 entries checking row/column increase
        got = enumerate_syt(Partition((2, 1)))
        assert [x.rows for x in got] == brute_syt(Partition((2, 1)))
        assert len(got) == 2

    @given(partitions_st(max_size=6))
    def test_matches_permutation_oracle(self, lam):
        assert [x.rows for x in enumerate_syt(lam)] == brute_syt(lam)

    @given(partitions_st(max_size=8))
    def test_count_and_shape(self, lam):
        got = enumerate_syt(lam)
        assert len(got) == count_syt(lam)
        assert all(x.shape == lam for x in got)

    @given(tableaux_st())
    def test_row_major_reading_sorted(self, x):
        siblings = enumerate_syt(x.shape)
        keys = [sum(t.rows, ()) for t in siblings]
        assert keys == sorted(keys)
        assert x in siblings

    def test_guard_on_large_shape(self):
        from latmult import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            enumerate_syt(Partition((7, 6)))

    def test_guard_override_via_parameter(self):
        big = Partition((7, 6))
        got = enumerate_syt(big, allow_large=True)
        assert len(got) == count_syt(big)

    def test_needs_no_stack(self):
        # a walk that recursed once per value placed would need 12 frames
        # more than building one tableau; the layers of partial fillings
        # need no more than that, give or take a call or two
        rows = (tuple(range(1, 13)),)
        headroom = frames_needed(lambda: StandardTableau(rows)) + 3
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames_in_use() + headroom)
        try:
            got = enumerate_syt(Partition((12,)), allow_large=True)
        finally:
            sys.setrecursionlimit(limit)
        assert [x.rows for x in got] == [rows]
