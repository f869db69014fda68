"""Admissibility of nested path sequences and their type partitions.

The oracle below re-states every admissibility clause directly in terms
of box sets on the colored square, sharing no code with the implementation
under test: it lists the boxes and their colors itself, and finds the boxes
below a path from the path's vertices (test_paths.boxes_weakly_below).
"""

import itertools

import pytest
from hypothesis import given

from latmult import (
    LatticePath,
    Partition,
    PathSequence,
    enumerate_admissible,
    is_admissible,
    path_leq,
    sequence_type,
)

from conftest import nested_sequences_st, paths_st
from test_paths import boxes_weakly_below


def oracle_band_counts(z):
    """Band tallies per color from raw box sets; the box cornered at (a, b)
    has color a + b."""
    ell, k = z.ell, z.k
    square = {(a, b) for a in range(ell) for b in range(1 - ell, 1)}
    below = [boxes_weakly_below(p) for p in z.paths]
    bands = [square - below[-1], below[0]]
    for i in range(2, k):
        bands.insert(i, below[i - 1] - below[i - 2])
    count = {}
    for i in range(k):
        for j in range(-(ell - 1), ell):
            count[(i, j)] = sum(1 for a, b in bands[i] if a + b == j)
    return count


def oracle_diagonal(p):
    """First path stays weakly below the anti-diagonal: every prefix has
    at least as many right moves as up moves."""
    r = u = 0
    for move in p.moves:
        if move == "R":
            r += 1
        else:
            u += 1
        if u > r:
            return False
    return True


def oracle_admissible(z):
    """Direct clause-by-clause transcription of the defining conditions."""
    if not oracle_diagonal(z.paths[0]):
        return False
    ell, k = z.ell, z.k
    t = oracle_band_counts(z)
    for i in range(2, k):
        for j in range(-(ell - 1), ell):
            if t[(i, j)] > t[(i - 1, j)]:
                return False
            budget = ell - abs(j) - t[(1, j)] - sum(t[(a, j)] for a in range(1, i))
            if t[(i, j)] > budget:
                return False
            if j > 0 and t[(i, j)] > t[(i, j - 1)]:
                return False
            if j < 0 and t[(i, j)] > t[(i, j + 1)]:
                return False
    return True


def oracle_type(z):
    """The color-zero band tallies, band 0 first, trailing zeros dropped."""
    t = oracle_band_counts(z)
    column = [t[(i, 0)] for i in range(z.k)]
    while column and column[-1] == 0:
        column.pop()
    return Partition(tuple(column))


def nested_sequences(ell, k):
    """Every nested sequence of k-1 paths on the ell square, unpruned."""
    paths = [
        LatticePath("".join("U" if m in ups else "R" for m in range(2 * ell)))
        for ups in itertools.combinations(range(2 * ell), ell)
    ]
    chains = [()]
    for _ in range(k - 1):
        chains = [c + (p,) for c in chains for p in paths if not c or path_leq(c[-1], p)]
    return [PathSequence(c) for c in chains]


class TestDiagonalCondition:
    def test_one_by_one(self):
        # [TRIVIAL] with one path (k = 2) the diagonal is the only clause.
        # Prefix counts 1R >= 0U, then 1R >= 1U; UR starts with 1U > 0R
        assert is_admissible(PathSequence((LatticePath("RU"),)))
        assert not is_admissible(PathSequence((LatticePath("UR"),)))

    @given(paths_st())
    def test_matches_prefix_oracle(self, p):
        # with one path (k = 2) the diagonal is the only clause
        assert is_admissible(PathSequence((p,))) == oracle_diagonal(p)


class TestIsAdmissible:
    def test_smallest_square(self):
        # [DERIVED] brute force over both 1x1 paths; matches the count 1
        assert is_admissible(PathSequence((LatticePath("RU"),)))
        assert not is_admissible(PathSequence((LatticePath("UR"),)))

    def test_zero_width_bands(self):
        # [TRIVIAL] equal paths give all t_2^j = 0, under every bound
        p = LatticePath("RRUU")
        assert is_admissible(PathSequence((p, p)))

    def test_band_exceeds_inner_band(self):
        # [DERIVED] 1x1, k=3: the box sits in band 2 but band 1 is empty
        z = PathSequence((LatticePath("RU"), LatticePath("UR")))
        assert not is_admissible(z)
        assert not oracle_admissible(z)

    def test_k_two_is_diagonal_only(self):
        for moves in ("RRUU", "RURU", "RUUR", "URRU", "URUR", "UURR"):
            z = PathSequence((LatticePath(moves),))
            assert is_admissible(z) == oracle_diagonal(z.paths[0])

    @given(nested_sequences_st())
    def test_matches_clause_oracle(self, z):
        assert is_admissible(z) == oracle_admissible(z)


class TestEveryNestedSequence:
    """The predicate, the type and the search against the box-set oracle on
    every nested sequence of a grid, not a sample."""

    @pytest.mark.parametrize(
        "ell, k", [(ell, k) for ell in range(1, 4) for k in range(2, 6)] + [(4, k) for k in range(2, 5)]
    )
    def test_predicate_type_and_search_agree(self, ell, k):
        admissible = set()
        for z in nested_sequences(ell, k):
            verdict = oracle_admissible(z)
            assert is_admissible(z) == verdict
            if verdict:
                assert sequence_type(z) == oracle_type(z)
                admissible.add(z)
        assert admissible == set(enumerate_admissible(ell, k))


class TestSequenceType:
    def test_one_by_one(self):
        # [TRIVIAL] single 0-colored box above the path
        assert sequence_type(PathSequence((LatticePath("RU"),))) == Partition((1,))

    def test_two_by_two_both_paths(self):
        # [DERIVED] count 0-colored boxes above/below by the height rule
        assert sequence_type(PathSequence((LatticePath("RRUU"),))) == Partition((2,))
        assert sequence_type(PathSequence((LatticePath("RURU"),))) == Partition((1, 1))

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            sequence_type(PathSequence((LatticePath("UR"),)))

    @given(nested_sequences_st())
    def test_matches_zero_color_bands(self, z):
        if not is_admissible(z):
            return
        assert sequence_type(z) == oracle_type(z)

    @given(nested_sequences_st())
    def test_type_is_partition_of_ell(self, z):
        if not is_admissible(z):
            return
        lam = sequence_type(z)
        assert lam.size == z.ell
        assert lam.height <= z.k


class TestVerdictCache:
    """Each sequence object computes its verdict once; the cache lives
    outside the dataclass fields."""

    @given(nested_sequences_st())
    def test_cache_leaves_eq_hash_repr_alone(self, z):
        fresh = PathSequence(z.paths)
        if is_admissible(z):
            sequence_type(z)
        assert z == fresh
        assert hash(z) == hash(fresh)
        assert repr(z) == repr(fresh)

    @given(nested_sequences_st())
    def test_type_same_before_and_after_caching(self, z):
        if not is_admissible(PathSequence(z.paths)):
            return
        first = sequence_type(z)
        assert sequence_type(z) == first == sequence_type(PathSequence(z.paths))

    @given(nested_sequences_st())
    def test_inadmissible_raises_every_time(self, z):
        if is_admissible(z):
            return
        for _ in range(2):
            with pytest.raises(ValueError):
                sequence_type(z)
        assert not is_admissible(z)

    def test_tallies_built_once_per_object(self, monkeypatch):
        import latmult.admissibility as admissibility

        built = []
        real = admissibility._evaluate
        monkeypatch.setattr(admissibility, "_evaluate", lambda z: built.append(z) or real(z))
        z = PathSequence((LatticePath("RURU"), LatticePath("RURU")))
        assert is_admissible(z)
        assert sequence_type(z) == Partition((1, 1))
        assert is_admissible(z)
        assert len(built) == 1
        sequence_type(PathSequence(z.paths))
        assert len(built) == 2
