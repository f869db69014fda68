"""Exhaustive enumeration of admissible sequences.

Oracle: generate every nested tuple of monotone paths outright (no pruning),
filter with the clause-by-clause admissibility transcription from
test_admissibility, and compare sets, counts, and order.
"""

import gc
import itertools
import weakref

import pytest
from hypothesis import given
import hypothesis.strategies as st

from latmult import (
    LatticePath,
    Partition,
    PathSequence,
    ResourceLimitError,
    count_by_type,
    count_sequences,
    count_syt,
    enumerate_admissible,
    enumerate_self_conjugate,
    is_self_conjugate,
    partitions_of,
    path_leq,
    sequence_type,
    syt_sum,
    syt_sum_squares,
)
from latmult.enumeration import visit_admissible

from test_admissibility import oracle_admissible


def all_paths(ell):
    out = []
    for positions in itertools.combinations(range(2 * ell), ell):
        moves = ["U"] * (2 * ell)
        for pos in positions:
            moves[pos] = "R"
        out.append(LatticePath("".join(moves)))
    return out


def brute_admissible(ell, k):
    """Oracle: unpruned product of path tuples, nesting + clause filter."""
    paths = all_paths(ell)
    found = []
    for combo in itertools.product(paths, repeat=k - 1):
        if any(not path_leq(a, b) for a, b in zip(combo, combo[1:])):
            continue
        z = PathSequence(combo)
        if oracle_admissible(z):
            found.append(z)
    return found


ORACLE_GRID = [(1, 2), (1, 4), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]


class TestAgainstBruteOracle:
    @pytest.mark.parametrize("ell,k", ORACLE_GRID)
    def test_same_set(self, ell, k):
        got = enumerate_admissible(ell, k)
        expected = brute_admissible(ell, k)
        assert set(got) == set(expected)
        assert len(got) == len(expected)

    @pytest.mark.parametrize("ell,k", ORACLE_GRID)
    def test_self_conjugate_subset(self, ell, k):
        got = enumerate_self_conjugate(ell, k)
        expected = [z for z in brute_admissible(ell, k) if is_self_conjugate(z)]
        assert set(got) == set(expected)


class TestSmallCases:
    def test_one_by_one(self):
        # [DERIVED] brute force over the 2 candidate paths
        assert enumerate_admissible(1, 2) == [PathSequence((LatticePath("RU"),))]

    def test_two_by_two(self):
        # [DERIVED] brute force over the 6 monotone paths, diagonal filter
        got = enumerate_admissible(2, 2)
        assert got == [
            PathSequence((LatticePath("RRUU"),)),
            PathSequence((LatticePath("RURU"),)),
        ]

    def test_self_conjugate_small(self):
        # [TRIVIAL] RU is self-conjugate
        assert len(enumerate_self_conjugate(1, 2)) == 1
        # [DERIVED] both 2x2 below-diagonal paths are reflection-fixed
        assert len(enumerate_self_conjugate(2, 2)) == 2
        # [DERIVED] equals the bounded-height tableau count at (5, 4)
        assert len(enumerate_self_conjugate(5, 4)) == 25


class TestOrderAndStreaming:
    @pytest.mark.parametrize("ell,k", [(3, 3), (4, 4), (5, 2)])
    def test_lexicographic_on_move_strings(self, ell, k):
        got = enumerate_admissible(ell, k)
        keys = [tuple(p.moves for p in z.paths) for z in got]
        assert keys == sorted(keys)

    @given(st.integers(1, 5), st.integers(2, 5))
    def test_count_matches_list_length(self, ell, k):
        admissible, fixed = count_sequences(ell, k)
        assert admissible == len(enumerate_admissible(ell, k))
        assert fixed == len(enumerate_self_conjugate(ell, k))

    @given(st.integers(1, 5), st.integers(2, 5))
    def test_counts_match_hook_formula(self, ell, k):
        admissible, fixed = count_sequences(ell, k)
        assert admissible == syt_sum_squares(ell, k)
        assert fixed == syt_sum(ell, k)


class TestVisitOrderFree:
    """The search visits in no promised order; the lists sort what it finds."""

    @pytest.mark.parametrize("ell,k", [(6, 5), (5, 6), (4, 7)])
    def test_each_sequence_visited_once(self, ell, k):
        seen = []
        visit_admissible(ell, k, seen.append)
        assert len(seen) == len(set(seen))
        listed = enumerate_admissible(ell, k, allow_large=True)
        assert set(seen) == {tuple(p.moves for p in z.paths) for z in listed}

    @pytest.mark.parametrize("ell,k", [(5, 4), (6, 3)])
    def test_self_conjugate_lexicographic(self, ell, k):
        got = enumerate_self_conjugate(ell, k)
        keys = [tuple(p.moves for p in z.paths) for z in got]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("ell,k", [(2, 30), (3, 12), (4, 10)])
    def test_many_paths_on_a_small_square(self, ell, k):
        # k - 1 paths may move in 2**(k-1) ways at each move; the search
        # must prune a column path by path instead of forming all of them
        assert count_sequences(ell, k, allow_large=True) == (syt_sum_squares(ell, k), syt_sum(ell, k))


class TestCountByType:
    def test_single_cell(self):
        # [TRIVIAL]
        assert count_by_type(1, 2) == {Partition((1,)): (1, 1)}

    def test_two_cells_three_paths(self):
        # [DERIVED] brute force at ell=2, k=3
        assert count_by_type(2, 3) == {
            Partition((2,)): (1, 1),
            Partition((1, 1)): (1, 1),
        }

    @pytest.mark.parametrize("ell,k", [(3, 3), (4, 3), (4, 5), (5, 4)])
    def test_matches_per_type_filter(self, ell, k):
        per = count_by_type(ell, k)
        seqs = enumerate_admissible(ell, k)
        for lam in partitions_of(ell, k):
            matching = [z for z in seqs if sequence_type(z) == lam]
            fixed = [z for z in matching if is_self_conjugate(z)]
            assert per[lam] == (len(matching), len(fixed))

    @pytest.mark.parametrize("ell,k", [(3, 3), (4, 3), (5, 4), (5, 5)])
    def test_per_type_hook_values(self, ell, k):
        per = count_by_type(ell, k)
        assert set(per) == set(partitions_of(ell, k))
        for lam, (admissible, fixed) in per.items():
            f = count_syt(lam)
            assert (admissible, fixed) == (f * f, f)

    def test_largest_guarded_square_four_rows(self):
        # [DERIVED] hook length formula, at the guard's ell
        per = count_by_type(6, 4)
        assert per == {lam: (count_syt(lam) ** 2, count_syt(lam)) for lam in partitions_of(6, 4)}


class TestGuards:
    def test_oversized_rejected(self):
        with pytest.raises(ResourceLimitError):
            enumerate_admissible(7, 3)
        with pytest.raises(ResourceLimitError):
            count_sequences(3, 6)

    def test_override_parameter(self):
        admissible, fixed = count_sequences(3, 6, allow_large=True)
        assert admissible == syt_sum_squares(3, 6)
        assert fixed == syt_sum(3, 6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_admissible(0, 3)
        with pytest.raises(ValueError):
            enumerate_admissible(3, 1)


class TestNoRetention:
    def test_results_freed_without_cycle_collector(self):
        # the search's recursive closures are reference cycles; they must
        # not keep a dropped result list alive until the collector runs
        gc.disable()
        try:
            seqs = enumerate_admissible(3, 3)
            first = weakref.ref(seqs[0])
            del seqs
            assert first() is None
        finally:
            gc.enable()
