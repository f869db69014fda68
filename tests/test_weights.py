"""Affine type-A Cartan arithmetic and maximal dominant weight multiplicities.

Oracle: the Cartan matrix is rebuilt entry-by-entry from the cyclic
adjacency definition, and every pairing is recomputed by direct
substitution into k*delta(i,0) - sum_j a(i,j) * c_j.
"""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from latmult import (
    AffineCartan,
    WeightVector,
    gamma,
    maximal_dominant_family,
    multiplicity,
    syt_sum_squares,
    weight_pairings,
)


def oracle_cartan_entry(n, i, j):
    """Direct cyclic-adjacency definition on Z/n."""
    if i == j:
        return 2
    return -((j - i) % n == 1) - ((i - j) % n == 1)


class TestAffineCartan:
    @given(st.integers(2, 12))
    def test_matches_adjacency_oracle(self, n):
        cartan = AffineCartan(n)
        for i in range(n):
            for j in range(n):
                assert cartan.a(i, j) == oracle_cartan_entry(n, i, j)

    def test_rank_two_doubles_the_bond(self):
        # [DERIVED] nodes 0 and 1 are doubly joined when n = 2
        cartan = AffineCartan(2)
        assert cartan.entries == ((2, -2), (-2, 2))

    def test_rank_three(self):
        # [TRIVIAL] the 3-cycle
        assert AffineCartan(3).entries == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

    @given(st.integers(2, 12))
    def test_rows_annihilate_null_root(self, n):
        # the all-ones vector spans the kernel
        cartan = AffineCartan(n)
        delta = (1,) * n
        for i in range(n):
            assert sum(cartan.a(i, j) * delta[j] for j in range(n)) == 0

    def test_rejects_small_rank(self):
        with pytest.raises(ValueError):
            AffineCartan(1)


class TestGamma:
    def test_golden_seven(self):
        # [GOLDEN] ell = 3, n = 7 gives coefficients (3,2,1,0,0,1,2)
        assert gamma(3, 7).coeffs == (3, 2, 1, 0, 0, 1, 2)

    def test_smallest(self):
        # [TRIVIAL] ell = 1: alpha_0 alone
        assert gamma(1, 4).coeffs == (1, 0, 0, 0)

    @given(st.integers(2, 14))
    def test_symmetric_tent_profile(self, n):
        for ell in range(1, n // 2 + 1):
            c = gamma(ell, n).coeffs
            assert c[0] == ell
            for i in range(1, n):
                assert c[i] == max(ell - min(i, n - i), 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gamma(0, 6)
        with pytest.raises(ValueError):
            gamma(4, 6)


class TestWeightPairings:
    def test_golden_ten_node_case(self):
        # [GOLDEN] k = 4, ell = 5, n = 10: pairings 2 at nodes 0 and 5, else 0
        w = weight_pairings(4, gamma(5, 10))
        assert w.pairings == (2, 0, 0, 0, 0, 2, 0, 0, 0, 0)
        assert w.level == 4
        assert w.is_dominant

    @given(st.integers(2, 12), st.integers(2, 6))
    def test_matches_direct_substitution(self, n, k):
        cartan = AffineCartan(n)
        for ell in range(1, n // 2 + 1):
            g = gamma(ell, n)
            w = weight_pairings(k, g)
            for i in range(n):
                direct = (k if i == 0 else 0) - sum(
                    cartan.a(i, j) * g.coeffs[j] for j in range(n)
                )
                assert w.pairings[i] == direct

    @given(st.integers(2, 12), st.integers(2, 6))
    def test_always_dominant(self, n, k):
        for ell in range(1, n // 2 + 1):
            assert weight_pairings(k, gamma(ell, n)).is_dominant

    def test_dominance_flag(self):
        assert not WeightVector(3, 2, (1, -1, 2)).is_dominant
        assert WeightVector(3, 2, (0, 0, 2)).is_dominant


class TestMultiplicity:
    def test_golden_119(self):
        # [GOLDEN] the five-cell height-four value
        for n in (10, 11, 12):
            assert multiplicity(n, 4, 5) == 119

    def test_independent_of_n(self):
        # the count depends only on (ell, k) once ell <= floor(n/2)
        for n in range(6, 13):
            assert multiplicity(n, 3, 3) == multiplicity(6, 3, 3)

    @given(st.integers(2, 12), st.integers(2, 6))
    def test_equals_square_sum(self, n, k):
        for ell in range(1, n // 2 + 1):
            assert multiplicity(n, k, ell) == syt_sum_squares(ell, k)

    def test_rejects_out_of_range_ell(self):
        with pytest.raises(ValueError):
            multiplicity(10, 4, 6)
        with pytest.raises(ValueError):
            multiplicity(10, 4, 0)

    def test_rejects_small_n_or_k(self):
        with pytest.raises(ValueError):
            multiplicity(1, 4, 1)
        with pytest.raises(ValueError):
            multiplicity(10, 1, 3)


class TestFamily:
    @given(st.integers(2, 12), st.integers(2, 5))
    def test_one_entry_per_ell(self, n, k):
        family = maximal_dominant_family(n, k)
        assert [e.ell for e in family] == list(range(1, n // 2 + 1))
        for entry in family:
            assert entry.root == gamma(entry.ell, n)
            assert entry.weight == weight_pairings(k, entry.root)
            assert entry.weight.is_dominant
            assert entry.multiplicity == syt_sum_squares(entry.ell, k)
