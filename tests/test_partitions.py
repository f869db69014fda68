"""Partition generation and tableau counting, and the conjugation and hook oracles.

The independent oracle for partitions_of is a brute-force composition
filter; the oracles for count_syt are exhaustive tableau enumeration and
the hook length formula (conftest's conjugate and hook_lengths, checked
here against the cell set), and the sums are checked against n! and the
involution numbers where the height is unbounded.
"""

import math
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

from latmult import (
    Partition,
    count_syt,
    enumerate_syt,
    partitions_of,
    syt_sum,
    syt_sum_squares,
)

import latmult.partitions as partitions_module
from conftest import conjugate, frames_in_use, hook_lengths, involutions, partitions_st


def brute_partitions(ell, max_height):
    """Oracle: filter all weakly decreasing positive tuples summing to ell."""
    found = set()

    def rec(remaining, cap, prefix):
        if remaining == 0:
            if len(prefix) <= max_height:
                found.add(tuple(prefix))
            return
        for part in range(1, min(cap, remaining) + 1):
            rec(remaining - part, part, prefix + [part])

    rec(ell, ell, [])
    return found


class TestPartitionsOf:
    def test_single_cell_any_height(self):
        # [TRIVIAL] only one partition of 1
        for k in range(1, 6):
            assert partitions_of(1, k) == [Partition((1,))]

    def test_six_height_two(self):
        # [DERIVED] brute-force generation of all partitions of 6, height <= 2
        got = partitions_of(6, 2)
        assert got == [
            Partition((6,)),
            Partition((5, 1)),
            Partition((4, 2)),
            Partition((3, 3)),
        ]
        assert {p.parts for p in got} == brute_partitions(6, 2)

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_matches_brute_oracle(self, ell, max_height):
        got = partitions_of(ell, max_height)
        assert {p.parts for p in got} == brute_partitions(ell, max_height)
        assert len(got) == len(set(got))

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_reverse_lex_order(self, ell, max_height):
        parts = [p.parts for p in partitions_of(ell, max_height)]
        assert parts == sorted(parts, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partitions_of(0, 3)
        with pytest.raises(ValueError):
            partitions_of(4, 0)

    def test_needs_no_stack(self):
        # a walk that recursed once per part would need 12 frames for
        # (1, ..., 1); each partition is stepped to from the one before
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames_in_use() + 8)
        try:
            got = partitions_of(12, 12)
        finally:
            sys.setrecursionlimit(limit)
        assert len(got) == 77
        assert got[0].parts == (12,) and got[-1].parts == (1,) * 12


class TestPartitionValidation:
    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((3, 0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition(())

    def test_size_and_height(self):
        lam = Partition((4, 2, 1))
        assert lam.size == 7
        assert lam.height == 3


class TestConjugate:
    def test_staircase_example(self):
        # [TRIVIAL] column lengths read off the diagram
        assert conjugate(Partition((4, 2, 1))) == Partition((3, 2, 1, 1))

    def test_single_cell_fixed(self):
        # [TRIVIAL] fixed point
        assert conjugate(Partition((1,))) == Partition((1,))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_row_column_swap(self, k):
        # [TRIVIAL] single row <-> single column
        assert conjugate(Partition((k,))) == Partition((1,) * k)

    @given(partitions_st())
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(partitions_st())
    def test_transposes_cell_set(self, lam):
        cells = {(i, j) for i, row in enumerate(lam.parts) for j in range(row)}
        mu = conjugate(lam)
        assert {(j, i) for i, j in cells} == {
            (i, j) for i, row in enumerate(mu.parts) for j in range(row)
        }


class TestHookLengths:
    def test_single_cell(self):
        # [TRIVIAL]
        assert hook_lengths(Partition((1,))) == ((1,),)

    def test_two_by_two(self):
        # [DERIVED] direct evaluation of arm + leg + 1 at each of 4 boxes
        assert hook_lengths(Partition((2, 2))) == ((3, 2), (2, 1))

    def test_golden_grid_421(self):
        # [GOLDEN] hook grid for (4,2,1)
        assert hook_lengths(Partition((4, 2, 1))) == ((6, 4, 2, 1), (3, 1), (1,))

    @given(partitions_st())
    def test_matches_cell_counting_oracle(self, lam):
        cells = {(i, j) for i, row in enumerate(lam.parts) for j in range(row)}
        grid = hook_lengths(lam)
        for i, j in cells:
            arm = sum(1 for (a, b) in cells if a == i and b > j)
            leg = sum(1 for (a, b) in cells if b == j and a > i)
            assert grid[i][j] == arm + leg + 1


def hook_count(lam):
    """Oracle: f_lambda by the hook length formula, n! over the hook product."""
    return math.factorial(lam.size) // math.prod(h for row in hook_lengths(lam) for h in row)


class TestCountSyt:
    def test_single_cell(self):
        # [TRIVIAL]
        assert count_syt(Partition((1,))) == 1

    def test_golden_421_is_35(self):
        # [GOLDEN] 7!/(6*4*2*1*3*1*1) = 35
        assert count_syt(Partition((4, 2, 1))) == 35
        assert math.factorial(7) // (6 * 4 * 2 * 1 * 3 * 1 * 1) == 35

    @given(partitions_st(max_size=7))
    def test_matches_enumeration_oracle(self, lam):
        assert count_syt(lam) == len(enumerate_syt(lam))

    @given(partitions_st())
    def test_conjugation_invariant(self, lam):
        assert count_syt(lam) == count_syt(conjugate(lam))


class TestSums:
    def test_table_of_five_cells_height_four(self):
        # [GOLDEN] per-shape values 1,4,5,6,5,4 and sum of squares 119
        expected = {
            (5,): 1,
            (4, 1): 4,
            (3, 2): 5,
            (3, 1, 1): 6,
            (2, 2, 1): 5,
            (2, 1, 1, 1): 4,
        }
        got = {lam.parts: count_syt(lam) for lam in partitions_of(5, 4)}
        assert got == expected
        assert syt_sum(5, 4) == 25  # [DERIVED] 1+4+5+6+5+4
        assert syt_sum_squares(5, 4) == 119

    def test_single_cell_sums(self):
        # [TRIVIAL] single partition (1), f = 1
        for k in range(2, 8):
            assert syt_sum(1, k) == 1
            assert syt_sum_squares(1, k) == 1

    def test_golden_larger_values(self):
        # [GOLDEN] values quoted for the six-cell and five-cell squares
        assert syt_sum_squares(6, 5) == 719
        assert syt_sum_squares(5, 5) == 120

    @given(st.integers(1, 8), st.integers(2, 8))
    def test_sum_matches_direct_summation(self, ell, k):
        fs = [count_syt(lam) for lam in partitions_of(ell, k)]
        assert syt_sum(ell, k) == sum(fs)
        assert syt_sum_squares(ell, k) == sum(f * f for f in fs)

    def test_sum_matches_direct_summation_through_25(self):
        for ell in range(1, 26):
            for k in range(2, 9):
                fs = [count_syt(lam) for lam in partitions_of(ell, k)]
                assert syt_sum(ell, k) == sum(fs), (ell, k)
                assert syt_sum_squares(ell, k) == sum(f * f for f in fs), (ell, k)

    def test_unbounded_height_closed_forms(self):
        # [DERIVED] sum f^2 = n! (RSK) and sum f = involutions of [n]
        for n in range(1, 41):
            k = max(n, 2)
            assert syt_sum_squares(n, k) == math.factorial(n)
            assert syt_sum(n, k) == involutions(n)

    @pytest.mark.parametrize("fn", [syt_sum, syt_sum_squares])
    def test_bad_input_raises_every_time(self, fn):
        for _ in range(2):
            with pytest.raises(ValueError):
                fn(0, 3)
        fn(5, 2)
        for _ in range(2):
            with pytest.raises(ValueError):
                fn(5, 1)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            syt_sum(4, 1)
        with pytest.raises(ValueError):
            syt_sum_squares(4, 1)


class TestFrobeniusProduct:
    def test_matches_hook_formula_through_thirty(self):
        # [DERIVED] every shape of every n <= 30 (5 604 shapes at n = 30)
        for n in range(1, 31):
            for lam in partitions_of(n, n):
                assert count_syt(lam) == hook_count(lam), lam

    @pytest.mark.parametrize(
        "parts",
        [(1,) * 500, (2,) + (1,) * 498, (3, 2, 2) + (1,) * 300, (5,) * 3 + (2,) * 40 + (1,) * 100],
    )
    def test_tall_shapes_match_hook_formula(self, parts):
        # taller than wide, so counted by the column lengths
        lam = Partition(parts)
        assert count_syt(lam) == hook_count(lam)

    def test_remainder_raises(self, monkeypatch):
        # (2, 2): 4! * (3 - 2) / (3! 2!) = 2; a 4! one too large leaves 25 / 12
        monkeypatch.setattr(partitions_module, "factorial", lambda m: math.factorial(m) + (m == 4))
        with pytest.raises(RuntimeError):
            count_syt(Partition((2, 2)))
