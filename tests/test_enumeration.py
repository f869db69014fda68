"""Exhaustive enumeration of admissible sequences.

Oracle: generate every nested tuple of monotone paths outright (no pruning),
filter with the clause-by-clause admissibility transcription (conftest's
nested_sequences and oracle_admissible), and compare sets, counts, and
order. Past that oracle's reach, a walk over all 2 * ell moves
(walked_admissible) checks the pairing of halves.
"""

import gc
import math
import sys
import weakref

import pytest
from hypothesis import given
import hypothesis.strategies as st

from latmult import (
    LatticePath,
    Partition,
    PathSequence,
    count_by_type,
    count_sequences,
    count_syt,
    enumerate_admissible,
    enumerate_self_conjugate,
    is_self_conjugate,
    partitions_of,
    sequence_type,
    syt_sum,
    syt_sum_squares,
)
from latmult.admissibility import is_admissible
from latmult.enumeration import visit_admissible

from conftest import frames_in_use, involutions, nested_sequences, oracle_admissible, walked_admissible


def brute_admissible(ell, k):
    """Oracle: every nested sequence, unpruned, through the clause filter."""
    return [z for z in nested_sequences(ell, k) if oracle_admissible(z)]


ORACLE_GRID = [
    (1, 2), (1, 4), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3),
]


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

    @pytest.mark.parametrize("ell,k", [(ell, k) for ell in range(1, 7) for k in range(2, 6)])
    def test_self_conjugate_lexicographic(self, ell, k):
        # the list comes from sorted halves; the filter of the sorted whole
        # list is the oracle for both membership and order
        got = enumerate_self_conjugate(ell, k)
        assert got == [z for z in enumerate_admissible(ell, k) if is_self_conjugate(z)]
        keys = [tuple(p.moves for p in z.paths) for z in got]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("ell,k", [(2, 30), (3, 12), (4, 10), (12, 5), (10, 6), (30, 5), (40, 4), (60, 3)])
    def test_many_paths_on_a_small_square(self, ell, k):
        # k - 1 paths may move in 2**(k-1) ways at each move; the search
        # must prune a column path by path instead of forming all of them
        assert count_sequences(ell, k, allow_large=True) == (syt_sum_squares(ell, k), syt_sum(ell, k))


class TestHalvesMeet:
    """Each admissible sequence is a first half and the mirror of a first
    half that reaches the same up-count state after move ell."""

    @pytest.mark.parametrize("ell,k", [(7, 3), (6, 5), (8, 3), (3, 12), (2, 30)])
    def test_same_set_as_the_full_walk(self, ell, k):
        seen = []
        visit_admissible(ell, k, seen.append)
        walked = walked_admissible(ell, k)
        assert len(walked) == len(set(walked)) == syt_sum_squares(ell, k)
        assert len(seen) == len(walked)
        assert set(seen) == set(walked)

    def test_every_visit_is_admissible(self):
        seen = []
        visit_admissible(6, 4, seen.append)
        assert len(seen) == syt_sum_squares(6, 4)
        assert all(is_admissible(PathSequence(tuple(map(LatticePath, moves)))) for moves in seen)


class TestHalvesBuiltOnce:
    """The counts carry a number per state through one walk of the first
    ell moves: they build no halves and never pair halves into sequences."""

    @pytest.mark.parametrize("count", [count_sequences, count_by_type])
    def test_one_build_per_call(self, count, monkeypatch):
        import latmult.enumeration as enumeration

        walks, builds, visits = [], [], []
        real_walk = enumeration._layers

        def walk(ell, k, start, carry):
            walks.append((ell, k))
            return real_walk(ell, k, start, carry)

        monkeypatch.setattr(enumeration, "_layers", walk)
        monkeypatch.setattr(enumeration, "_halves_by_state", lambda *args: builds.append(args))
        monkeypatch.setattr(enumeration, "visit_admissible", lambda *args: visits.append(args))
        got = count(6, 4)
        assert walks == [(6, 4)]
        assert builds == []
        assert visits == []
        if count is count_sequences:
            assert got == (syt_sum_squares(6, 4), syt_sum(6, 4))
        else:
            assert got == {lam: (count_syt(lam) ** 2, count_syt(lam)) for lam in partitions_of(6, 4)}


class TestNoStack:
    """A search that recursed once per move would need 2 * ell frames; the
    halves are built forward, one layer per move."""

    @pytest.fixture
    def shallow(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames_in_use() + 8)
        try:
            yield
        finally:
            sys.setrecursionlimit(limit)

    def test_visit_reaches_a_leaf(self, shallow):
        class Leaf(Exception):
            pass

        def stop(moves):
            raise Leaf(moves)

        with pytest.raises(Leaf) as leaf:
            visit_admissible(12, 2, stop)
        (moves,) = leaf.value.args[0]
        assert len(moves) == 24

    def test_count_sequences(self, shallow):
        assert count_sequences(12, 2, allow_large=True) == (208012, 924)

    def test_enumerate_self_conjugate(self, shallow):
        got = enumerate_self_conjugate(12, 2, allow_large=True)
        assert len(got) == 924
        assert all(is_self_conjugate(z) for z in got)


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

    @pytest.mark.parametrize("ell,k", [(3, 3), (4, 3), (4, 5), (5, 4), (7, 3)])
    def test_matches_per_type_filter(self, ell, k):
        per = count_by_type(ell, k, allow_large=True)
        seqs = enumerate_admissible(ell, k, allow_large=True)
        for lam in partitions_of(ell, k):
            matching = [z for z in seqs if sequence_type(z) == lam]
            fixed = [z for z in matching if is_self_conjugate(z)]
            assert per[lam] == (len(matching), len(fixed))

    @pytest.mark.parametrize(
        "ell,k", [(3, 3), (4, 3), (5, 4), (5, 5), (9, 4), (10, 3), (8, 6), (12, 2), (20, 4), (30, 3), (30, 5)]
    )
    def test_per_type_hook_values(self, ell, k):
        # each state's count is the number of halves of its type, which tau
        # matches with the standard tableaux of that shape
        per = count_by_type(ell, k, allow_large=True)
        assert list(per) == partitions_of(ell, k)
        for lam, (admissible, fixed) in per.items():
            f = count_syt(lam)
            assert (admissible, fixed) == (f * f, f)

    def test_largest_guarded_square_four_rows(self):
        # [DERIVED] hook length formula, at the guard's ell
        per = count_by_type(6, 4)
        assert per == {lam: (count_syt(lam) ** 2, count_syt(lam)) for lam in partitions_of(6, 4)}


class TestClosedForms:
    """Totals with closed forms that do not go through the hook formula."""

    @pytest.mark.parametrize("ell", [50, 200, 500])
    def test_one_path_catalan_and_central_binomial(self, ell):
        # [DERIVED] at k = 2 the shapes have at most 2 rows: sum f^2 is the
        # Catalan number and sum f is the central binomial coefficient
        catalan = math.comb(2 * ell, ell) // (ell + 1)
        assert count_sequences(ell, 2, allow_large=True) == (catalan, math.comb(ell, ell // 2))

    @pytest.mark.parametrize("ell,k", [(8, 8), (9, 12), (10, 10)])
    def test_unbounded_height_factorial_and_involutions(self, ell, k):
        # [DERIVED] at k >= ell every shape of ell occurs: sum f^2 = ell! by
        # RSK, and sum f counts the involutions, a(n) = a(n-1) + (n-1) a(n-2)
        assert count_sequences(ell, k, allow_large=True) == (math.factorial(ell), involutions(ell))


class TestGuards:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_admissible(0, 3)
        with pytest.raises(ValueError):
            enumerate_admissible(3, 1)


class TestNoRetention:
    def test_results_freed_without_cycle_collector(self):
        # the search must not keep a dropped result list alive until the
        # cycle collector runs
        gc.disable()
        try:
            seqs = enumerate_admissible(3, 3)
            first = weakref.ref(seqs[0])
            del seqs
            assert first() is None
        finally:
            gc.enable()

    def test_search_lets_go_of_its_visitor(self):
        class Sink(list):  # a plain list cannot be weakly referenced
            pass

        gc.disable()
        try:
            sink = Sink()
            held = weakref.ref(sink)
            visit_admissible(5, 3, sink.append)
            assert len(sink) == syt_sum_squares(5, 3)
            del sink
            assert held() is None
        finally:
            gc.enable()
