"""Longest decreasing subsequences, row insertion, and avoider counting.

Oracles: a quadratic dynamic program for LDS, a cell-by-cell transcription
of row insertion, the ballot-number recurrence for the k = 2 column, and
direct standardness checks on insertion output.
"""

import itertools
import sys
from functools import lru_cache

import pytest
from hypothesis import given
import hypothesis.strategies as st

from latmult import (
    Permutation,
    ResourceLimitError,
    count_avoiders,
    lds_length,
    rsk,
    syt_sum_squares,
)
from latmult.avoidance import _bit_insert


def oracle_lds(word):
    """Quadratic DP: best[i] = longest strict decrease ending at position i."""
    best = []
    for i, value in enumerate(word):
        best.append(1 + max((best[j] for j in range(i) if word[j] > value), default=0))
    return max(best, default=0)


def oracle_rsk(word):
    """Row insertion written out cell by cell, with linear scans."""
    p, q = [], []
    for step, x in enumerate(word, start=1):
        r = 0
        while True:
            if r == len(p):
                p.append([x])
                q.append([step])
                break
            bigger = [y for y in p[r] if y > x]
            if not bigger:
                p[r].append(x)
                q[r].append(step)
                break
            y = min(bigger)
            p[r][p[r].index(y)] = x
            x = y
            r += 1
    return tuple(map(tuple, p)), tuple(map(tuple, q))


def oracle_uninsert(rows, r):
    """Reverse row insertion from the last cell of row r, with linear scans.

    Each outgoer moves up a row and displaces the largest entry strictly
    smaller than itself. Returns the rows left and the letter ejected at
    the top.
    """
    rows = [list(row) for row in rows]
    x = rows[r].pop()
    if not rows[r]:
        rows.pop()
    while r:
        r -= 1
        y = max(v for v in rows[r] if v < x)
        rows[r][rows[r].index(y)] = x
        x = y
    return rows, x


def bitset_rows(rows):
    """Each row as a bitset, bit y set when letter y is in it."""
    return [sum(1 << y for y in row) for row in rows]


@lru_cache(maxsize=None)
def oracle_lds_histogram(n):
    """How many words of 1..n have each longest-decrease length, by the DP."""
    counts = [0] * (n + 1)
    for w in itertools.permutations(range(1, n + 1)):
        counts[oracle_lds(w)] += 1
    return counts


@lru_cache(maxsize=None)
def catalan(n):
    """In-suite recurrence, independent of any hook computation."""
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def frames_in_use():
    """The stack depth the interpreter counts here, C calls included."""
    def descend(depth):
        try:
            return descend(depth + 1)
        except RecursionError:
            return depth

    return sys.getrecursionlimit() - descend(0)


def perms_st(max_size=7):
    return st.integers(1, max_size).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))
    )


class TestPermutation:
    def test_rejects_repeats_and_gaps(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((1, 3))
        with pytest.raises(ValueError):
            Permutation(())

    def test_size(self):
        assert len(Permutation((2, 1, 3)).word) == 3


class TestLdsLength:
    def test_golden_example(self):
        # [GOLDEN] 26873415 has longest decreasing length 4 (8731 and 8741)
        assert lds_length(Permutation((2, 6, 8, 7, 3, 4, 1, 5))) == 4

    def test_monotone_words(self):
        # [TRIVIAL]
        assert lds_length(Permutation((1, 2, 3, 4))) == 1
        assert lds_length(Permutation((4, 3, 2, 1))) == 4

    @given(perms_st())
    def test_matches_quadratic_dp(self, word):
        assert lds_length(Permutation(tuple(word))) == oracle_lds(word)


class TestRsk:
    def test_golden_insertion(self):
        # [GOLDEN] insertion and recording tableaux of 26873415
        p, q = rsk(Permutation((2, 6, 8, 7, 3, 4, 1, 5)))
        assert p.rows == ((1, 3, 4, 5), (2, 7), (6,), (8,))
        assert q.rows == ((1, 2, 3, 8), (4, 6), (5,), (7,))

    @given(perms_st(max_size=6))
    def test_output_is_standard_pair_of_common_shape(self, word):
        p, q = rsk(Permutation(tuple(word)))
        # StandardTableau construction already enforces standardness
        assert p.shape == q.shape
        assert p.size == len(word)

    @given(perms_st(max_size=6))
    def test_distinct_words_distinct_pairs(self, word):
        # injectivity on a sampled pair of words of equal length
        n = len(word)
        other = tuple(reversed(word))
        if tuple(word) != other:
            assert rsk(Permutation(tuple(word))) != rsk(Permutation(other))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijective_onto_same_shape_pairs(self, n):
        images = {rsk(Permutation(w)) for w in itertools.permutations(range(1, n + 1))}
        assert len(images) == len(list(itertools.permutations(range(1, n + 1))))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_cell_by_cell_insertion(self, n):
        for w in itertools.permutations(range(1, n + 1)):
            p, q = rsk(Permutation(w))
            assert (p.rows, q.rows) == oracle_rsk(w)

    @given(perms_st())
    def test_schensted_column_property(self, word):
        # height of the insertion tableau equals the longest decrease
        p, _ = rsk(Permutation(tuple(word)))
        assert p.shape.height == oracle_lds(word)

    @given(data=st.data())
    def test_bitset_step_matches_cell_by_cell_insertion(self, data):
        # the rsk avoider count builds every child tableau with this one
        # step on bitset rows, so a step that misplaced any letter would
        # corrupt the counts that follow without failing
        word = data.draw(perms_st(max_size=10))
        cut = data.draw(st.integers(0, len(word) - 1))
        x = word[data.draw(st.integers(cut, len(word) - 1))]
        prefix = word[:cut]
        grown = _bit_insert(tuple(bitset_rows(oracle_rsk(prefix)[0])), 1 << x)
        assert grown == bitset_rows(oracle_rsk(prefix + [x])[0])

    @pytest.mark.parametrize("letter", [int, chr], ids=["int", "chr"])
    @given(data=st.data())
    def test_uninsert_restores_rows_exactly(self, letter, data):
        # the rsk avoider count grows every free letter from one shared
        # parent and takes it back by dropping the child, so each child
        # must be exactly one insertion away from that parent: undoing
        # the step from the row that grew gives back the parent's rows and
        # the letter, whether the letters are read as ints or as strings
        word = data.draw(perms_st(max_size=8))
        cut = data.draw(st.integers(0, len(word) - 1))
        n = len(word)

        def letters(row):
            return [letter(y) for y in range(1, n + 1) if row >> y & 1]

        parent = tuple(bitset_rows(oracle_rsk(word[:cut])[0]))
        for x in word[cut:]:
            child = _bit_insert(parent, 1 << x)
            sizes = [row.bit_count() for row in parent] + [0]
            r = next(i for i, row in enumerate(child) if row.bit_count() > sizes[i])
            rows, ejected = oracle_uninsert([letters(row) for row in child], r)
            assert rows == [letters(row) for row in parent]
            assert ejected == letter(x)


class TestCountAvoiders:
    @pytest.mark.parametrize("ell", range(1, 9))
    def test_catalan_column(self, ell):
        # [DERIVED] k = 2 gives the Catalan numbers via the recurrence oracle
        assert count_avoiders(ell, 2, "formula") == catalan(ell)

    @pytest.mark.parametrize("ell", range(1, 8))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_methods_agree(self, ell, k):
        brute = count_avoiders(ell, k, "brute")
        via_rsk = count_avoiders(ell, k, "rsk")
        formula = count_avoiders(ell, k, "formula")
        assert brute == via_rsk == formula

    @given(st.integers(1, 7), st.integers(2, 7))
    def test_formula_is_square_sum(self, ell, k):
        assert count_avoiders(ell, k, "formula") == syt_sum_squares(ell, k)

    def test_long_patterns_avoid_nothing(self):
        # [TRIVIAL] every word of length ell avoids a pattern longer than ell;
        # both walks count it through their r! shortcut at the first letter
        import math

        for ell in range(1, 9):
            for k in range(max(ell, 2), ell + 4):
                for method in ("brute", "rsk"):
                    assert count_avoiders(ell, k, method) == math.factorial(ell), (ell, k, method)

    def test_brute_oracle_inline(self):
        # filter all words of length 5 by the DP oracle
        for k in range(2, 6):
            direct = sum(
                1
                for w in itertools.permutations(range(1, 6))
                if oracle_lds(w) <= k
            )
            assert count_avoiders(5, k, "brute") == direct

    @pytest.mark.parametrize("method", ["brute", "rsk"])
    @pytest.mark.parametrize("ell,k", [(8, k) for k in range(2, 10)] + [(1, 2), (1, 5)])
    def test_walk_matches_dp_filter(self, method, ell, k):
        # k >= ell is answered at the root of the walk by the r! count
        direct = sum(oracle_lds_histogram(ell)[: k + 1])
        assert count_avoiders(ell, k, method) == direct

    @pytest.mark.parametrize("method", ["brute", "rsk"])
    def test_walk_leaves_no_state_behind(self, method):
        first = count_avoiders(7, 3, method)
        assert count_avoiders(7, 3, method) == first
        assert count_avoiders(6, 4, method) == syt_sum_squares(6, 4)

    @pytest.mark.parametrize("ell", range(10, 15))
    @pytest.mark.parametrize("k", range(2, 7))
    def test_pile_states_past_the_word_walks(self, ell, k):
        # only the walk over pile-top states reaches these sizes at once
        assert count_avoiders(ell, k, "brute", allow_large=True) == syt_sum_squares(ell, k)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_rsk_tableaux_past_the_guard(self, k):
        # the forward sum over insertion tableaux reaches one letter past
        # RSK_GUARD_ELL within seconds
        assert count_avoiders(10, k, "rsk", allow_large=True) == syt_sum_squares(10, k)

    @pytest.mark.parametrize("k", [3, 4])
    def test_rsk_tableaux_two_past_the_guard(self, k):
        # with bitset rows the walk reaches ell = 11 within a few seconds
        assert count_avoiders(11, k, "rsk", allow_large=True) == syt_sum_squares(11, k)

    @pytest.mark.parametrize("method", ["brute", "rsk"])
    def test_walk_needs_no_stack(self, method):
        # a walk that recursed once per letter placed would need about ell
        # frames at k = ell - 1; the forward sum over layers needs a few
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames_in_use() + 8)
        try:
            count = count_avoiders(12, 11, method, allow_large=True)
        finally:
            sys.setrecursionlimit(limit)
        assert count == syt_sum_squares(12, 11) == 479001599

    def test_guard_on_brute_methods(self):
        with pytest.raises(ResourceLimitError):
            count_avoiders(11, 3, "brute")
        with pytest.raises(ResourceLimitError):
            count_avoiders(11, 3, "rsk")
        # each route has its own bound: brute reaches one letter past rsk
        assert count_avoiders(10, 4, "brute") == syt_sum_squares(10, 4)
        with pytest.raises(ResourceLimitError):
            count_avoiders(10, 4, "rsk")
        assert count_avoiders(9, 2, "rsk") == catalan(9)
        # formula route has no factorial blowup and needs no guard
        assert count_avoiders(11, 3, "formula") == syt_sum_squares(11, 3)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            count_avoiders(3, 2, "magic")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_avoiders(0, 2)
        with pytest.raises(ValueError):
            count_avoiders(3, 1)
