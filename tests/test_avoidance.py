"""Longest decreasing subsequences, row insertion, and avoider counting.

Oracles: a quadratic dynamic program for LDS, a cell-by-cell transcription
of row insertion, the ballot-number recurrence for the k = 2 column, and
direct standardness checks on insertion output. The pile walk and the
insertion-tableau walk check each other after every letter placed.
"""

import itertools
import math
import sys
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given
import hypothesis.strategies as st

from latmult import (
    Permutation,
    count_avoiders,
    lds_length,
    rsk,
    syt_sum_squares,
)
from latmult.avoidance import _pile_layers, _tableau_layers

from conftest import frames_in_use


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


def pack_rows(rows, ell):
    """A tableau's rows packed as the rsk walk keys them: row r's bitset,
    bit y set when letter y is in it, at bits [r(ell+1), (r+1)(ell+1))."""
    return sum(sum(1 << y for y in row) << r * (ell + 1) for r, row in enumerate(rows))


def walk_children(prefix, ell):
    """The first layer of the rsk walk grown from the insertion tableau of a
    prefix of a word of 1..ell, at least three letters short of ell. With k
    one row above the prefix's tableau, no child is pruned or closed by the
    r! count, so the layer holds every child the walk's step builds."""
    rows = oracle_rsk(prefix)[0]
    total, layer = next(_tableau_layers(ell, len(rows) + 1, pack_rows(rows, ell)))
    assert total == 0
    return layer


def unpack_rows(state, ell):
    """The rows of a tableau the rsk walk packed into one int, row r at
    bits [r(ell+1), (r+1)(ell+1)), each as its letters in order."""
    rows = []
    while state:
        row = state & ((1 << ell + 1) - 1)
        rows.append(tuple(y for y in range(1, ell + 1) if row >> y & 1))
        state >>= ell + 1
    return tuple(rows)


def walk_fate(prefix, ell, k):
    """What the rsk walk does with a prefix of a word of 1..ell, by the
    height of its cell-by-cell insertion tableau: 'pruned' past k rows,
    'done' when the r! count closes it, else 'open'."""
    height = len(oracle_rsk(prefix)[0])
    if height > k:
        return "pruned"
    return "done" if height + ell - len(prefix) <= k else "open"


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
        # the rsk avoider count builds every child tableau by bit deltas on
        # its parent's int, so a step that misplaced any letter would
        # corrupt the counts that follow without failing: grown from one
        # prefix's tableau, the walk's first layer holds each unused
        # letter's insertion tableau once
        n = data.draw(st.integers(3, 10))
        word = data.draw(st.permutations(range(1, n + 1)))
        prefix = word[:data.draw(st.integers(0, n - 3))]
        expected = {pack_rows(oracle_rsk(prefix + [x])[0], n): 1 for x in word[len(prefix):]}
        assert walk_children(prefix, n) == expected

    @pytest.mark.parametrize("letter", [int, chr], ids=["int", "chr"])
    @given(data=st.data())
    def test_uninsert_restores_rows_exactly(self, letter, data):
        # the rsk avoider count grows every free letter from one shared
        # parent, so each child must be exactly one insertion away from
        # that parent: undoing the step from the row that grew gives back
        # the parent's rows and a letter, each unused letter once, whether
        # the letters are read as ints or as strings
        n = data.draw(st.integers(3, 8))
        word = data.draw(st.permutations(range(1, n + 1)))
        prefix = word[:data.draw(st.integers(0, n - 3))]

        def letters(rows):
            return [[letter(y) for y in row] for row in rows]

        parent = oracle_rsk(prefix)[0]
        sizes = [len(row) for row in parent] + [0]
        ejected = []
        for child in walk_children(prefix, n):
            rows = unpack_rows(child, n)
            r = next(i for i, row in enumerate(rows) if len(row) > sizes[i])
            back, x = oracle_uninsert(letters(rows), r)
            assert back == letters(parent)
            ejected.append(x)
        assert sorted(ejected) == sorted(letter(x) for x in word[len(prefix):])


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

    def test_methods_agree_at_eight_and_nine(self):
        for ell in (8, 9):
            for k in range(2, 11):
                brute = count_avoiders(ell, k, "brute")
                via_rsk = count_avoiders(ell, k, "rsk")
                assert brute == via_rsk == count_avoiders(ell, k, "formula"), (ell, k)

    def test_every_layer_matches_the_insertion_oracle(self):
        # the rsk walk builds every child tableau by bit deltas on its
        # parent's int, so a child with one bump misplaced would corrupt the
        # counts that follow; each layer must hold exactly the insertion
        # tableaux of the prefixes still open, with their multiplicities,
        # and the running total the prefixes finished by the r! count
        factorial = [math.factorial(r) for r in range(7)]
        for ell in range(1, 7):
            for k in range(2, 6):
                total = 0
                layers = _tableau_layers(ell, k)
                for placed, (walk_total, layer) in enumerate(layers, start=1):
                    prefixes = list(itertools.permutations(range(1, ell + 1), placed))
                    fates = {w: walk_fate(w, ell, k) for w in prefixes}
                    closed = [w for w in prefixes if fates[w] == "done"
                              and (placed == 1 or walk_fate(w[:-1], ell, k) == "open")]
                    total += factorial[ell - placed] * len(closed)
                    expected = Counter(oracle_rsk(w)[0] for w in prefixes if fates[w] == "open")
                    got = {unpack_rows(state, ell): ways for state, ways in layer.items()}
                    assert len(got) == len(layer)
                    assert got == expected, (ell, k, placed)
                    assert walk_total == total, (ell, k, placed)
                assert placed == ell
                assert total == syt_sum_squares(ell, k)

    def test_pile_and_tableau_walks_agree_layer_by_layer(self):
        # the number of piles is the number of insertion rows (Schensted),
        # so after every letter placed the two walks have closed the same
        # prefixes and left the same ones open, not only in the final count
        for ell in range(1, 9):
            for k in range(2, 7):
                piles = [(total, sum(layer.values())) for total, layer in _pile_layers(ell, k)]
                rows = [(total, sum(layer.values())) for total, layer in _tableau_layers(ell, k)]
                assert len(piles) == ell
                assert piles == rows, (ell, k)

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

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            count_avoiders(3, 2, "magic")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_avoiders(0, 2)
        with pytest.raises(ValueError):
            count_avoiders(3, 1)
