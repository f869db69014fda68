"""The tableau <-> self-conjugate sequence maps and the split/join pairing.

Golden move tables pin down both directions on worked six-cell examples;
round-trip properties cover complete small populations.
"""

import gc

import pytest
from hypothesis import given

from latmult import (
    LatticePath,
    Partition,
    PathSequence,
    StandardTableau,
    enumerate_admissible,
    enumerate_self_conjugate,
    is_self_conjugate,
    join,
    partitions_of,
    sequence_type,
    sigma,
    split,
    syt_sum_squares,
    tau,
)
from latmult import paths
from latmult.paths import _sequence
from latmult.verify import run_verification

from conftest import admissible_st, tableaux_st


class TestTau:
    def test_golden_six_cell_example(self):
        # [GOLDEN] first-half move table for the tableau with rows
        # (1,3),(2,6),(4),(5) at k = 4:
        #   path 1: R U R R R U
        #   path 2: R U R U R U
        #   path 3: R U R U U U
        x = StandardTableau(((1, 3), (2, 6), (4,), (5,)))
        z = tau(x, 4)
        halves = [p.moves[:6] for p in z.paths]
        assert halves == ["RURRRU", "RURURU", "RURUUU"]
        # [DERIVED] second halves complete by reverse-and-swap
        assert [p.moves for p in z.paths] == [
            "RURRRURUUURU",
            "RURURURURURU",
            "RURUUURRRURU",
        ]
        assert sequence_type(z) == Partition((2, 2, 1, 1))

    def test_single_row_tableau(self):
        # [TRIVIAL] no entries below row 1, so every first half is all R
        for ell in range(1, 6):
            x = StandardTableau((tuple(range(1, ell + 1)),))
            for k in range(2, 5):
                z = tau(x, k)
                for p in z.paths:
                    assert p.moves == "R" * ell + "U" * ell

    def test_single_column_two_cells(self):
        # [DERIVED] rows (1),(2) at k = 3: entry 2 sits in every row window,
        # so both paths open R U and close by reflection
        x = StandardTableau(((1,), (2,)))
        z = tau(x, 3)
        assert [p.moves for p in z.paths] == ["RURU", "RURU"]

    @given(tableaux_st(max_size=5))
    def test_output_is_self_conjugate_with_matching_type(self, x):
        for k in range(max(2, x.shape.height), 6):
            z = tau(x, k)
            assert z.ell == x.size
            assert z.k == k
            assert is_self_conjugate(z)
            assert sequence_type(z) == x.shape

    def test_rejects_small_k(self):
        x = StandardTableau(((1,), (2,), (3,)))
        with pytest.raises(ValueError):
            tau(x, 2)
        with pytest.raises(ValueError):
            tau(x, 1)


class TestSigma:
    def test_golden_six_cell_example(self):
        # [GOLDEN] full move table, one row per path:
        #   1: R U R R U R U R U U R U
        #   2: R U U R U R U R U R R U
        #   3: R U U R U U R R U R R U
        z = PathSequence((
            LatticePath("RURRURURUURU"),
            LatticePath("RUURURURURRU"),
            LatticePath("RUURUURRURRU"),
        ))
        assert is_self_conjugate(z)
        x = sigma(z)
        assert x.rows == ((1, 4), (2, 5), (3,), (6,))
        assert sequence_type(z) == Partition((2, 2, 1, 1))
        assert x.shape == Partition((2, 2, 1, 1))

    def test_smallest_case(self):
        # [TRIVIAL] single 1x1 path: move 1 is R in the only path
        x = sigma(PathSequence((LatticePath("RU"),)))
        assert x == StandardTableau(((1,),))

    def test_rejects_non_self_conjugate(self):
        z = PathSequence((LatticePath("RRUU"), LatticePath("RUUR")))
        with pytest.raises(ValueError):
            sigma(z)

    def test_rejects_inadmissible(self):
        # UR is reflection-fixed but breaks the diagonal condition
        z = PathSequence((LatticePath("UR"),))
        with pytest.raises(ValueError):
            sigma(z)


class TestRoundTrips:
    @given(tableaux_st(max_size=5))
    def test_sigma_after_tau(self, x):
        for k in range(max(2, x.shape.height), 6):
            assert sigma(tau(x, k)) == x

    @pytest.mark.parametrize("ell", range(1, 6))
    @pytest.mark.parametrize("k", range(2, 6))
    def test_tau_after_sigma_exhaustive(self, ell, k):
        for z in enumerate_self_conjugate(ell, k):
            assert tau(sigma(z), k) == z

    @pytest.mark.parametrize("ell", range(1, 6))
    @pytest.mark.parametrize("k", range(2, 6))
    def test_shape_partitions_the_fixed_set(self, ell, k):
        fixed = enumerate_self_conjugate(ell, k)
        images = [sigma(z) for z in fixed]
        assert len(set(images)) == len(fixed)
        for z, x in zip(fixed, images):
            assert x.shape == sequence_type(z)


class TestSplitJoin:
    @given(admissible_st())
    def test_split_parts_are_fixed_points_of_matching_type(self, z):
        z1, z2 = split(z)
        lam = sequence_type(z)
        for part in (z1, z2):
            assert is_self_conjugate(part)
            assert sequence_type(part) == lam

    @given(admissible_st())
    def test_join_inverts_split(self, z):
        z1, z2 = split(z)
        assert join(z1, z2) == z

    def test_each_object_checked_once(self, monkeypatch):
        import latmult.admissibility as admissibility

        built = []
        real = admissibility._evaluate
        monkeypatch.setattr(admissibility, "_evaluate", lambda z: built.append(z) or real(z))
        z = _sequence(("RRUURU", "RRUURU"))  # a library value, as verify's are
        assert not is_self_conjugate(z)
        z1, z2 = split(z)
        assert join(z1, z2) is z
        # z and its two halves: one evaluation each; join hands back the live
        # z, which carries its verdict
        assert [id(w) for w in built] == [id(z), id(z1), id(z2)]

    @pytest.mark.parametrize("ell", range(1, 5))
    @pytest.mark.parametrize("k", range(2, 5))
    def test_split_join_bijective_per_type(self, ell, k):
        # split followed by join hits every ordered pair within a type class
        seqs = enumerate_admissible(ell, k)
        fixed = enumerate_self_conjugate(ell, k)
        pairs = {tuple(split(z)) for z in seqs}
        assert len(pairs) == len(seqs)
        for lam in partitions_of(ell, k):
            f_fixed = [z for z in fixed if sequence_type(z) == lam]
            expected = {(a, b) for a in f_fixed for b in f_fixed}
            got = {p for p in pairs if sequence_type(p[0]) == lam}
            assert got == expected

    def test_split_halves_recombine_by_reflection(self):
        # [DERIVED] first output is h1 + reflect(h1), second reflect(h2) + h2
        z = PathSequence((LatticePath("RRRUURURURUU"),))
        z1, z2 = split(z)
        h1 = z.paths[0].moves[:6]
        h2 = z.paths[0].moves[6:]
        rev = str.maketrans("RU", "UR")
        assert z1.paths[0].moves == h1 + h1[::-1].translate(rev)
        assert z2.paths[0].moves == h2[::-1].translate(rev) + h2

    def test_join_requires_matching_types(self):
        a = next(z for z in enumerate_self_conjugate(2, 3)
                 if sequence_type(z) == Partition((2,)))
        b = next(z for z in enumerate_self_conjugate(2, 3)
                 if sequence_type(z) == Partition((1, 1)))
        with pytest.raises(ValueError):
            join(a, b)

    def test_join_requires_self_conjugate_inputs(self):
        z = PathSequence((LatticePath("RRUU"), LatticePath("RUUR")))
        ok = PathSequence((LatticePath("RRUU"), LatticePath("RRUU")))
        with pytest.raises(ValueError):
            join(z, z)
        with pytest.raises(ValueError):
            join(ok, z)

    def test_join_requires_matching_dimensions(self):
        a = PathSequence((LatticePath("RU"),))
        b = PathSequence((LatticePath("RRUU"),))
        c = PathSequence((LatticePath("RU"), LatticePath("RU")))
        with pytest.raises(ValueError):
            join(a, b)
        with pytest.raises(ValueError):
            join(a, c)


class TestInternTable:
    """Equal sequences built by the library are one object while any of
    them is alive, so each value is built and validated once."""

    def test_split_and_join_return_live_objects(self):
        seqs = enumerate_admissible(5, 4)
        fixed = enumerate_self_conjugate(5, 4)
        members = {id(w) for w in fixed}
        for z in seqs:
            halves = split(z)
            assert all(id(w) in members for w in halves)
            assert join(*halves) is z

    def test_entry_leaves_with_the_last_object(self):
        gc.collect()
        before = len(paths._SEQUENCES)
        fixed = enumerate_self_conjugate(7, 3, allow_large=True)
        assert len(paths._SEQUENCES) == before + len(fixed)
        del fixed
        gc.collect()
        assert len(paths._SEQUENCES) == before

    def test_invalid_moves_store_nothing(self):
        z = _sequence(("RRUURU", "RURURU"))
        before = len(paths._SEQUENCES)
        with pytest.raises(ValueError):
            _sequence(("RURURU", "RRUURU"))  # the first path above the second
        assert len(paths._SEQUENCES) == before
        assert ("RURURU", "RRUURU") not in paths._SEQUENCES
        assert _sequence(("RRUURU", "RURURU")) is z

    def test_verify_builds_each_value_once(self, monkeypatch):
        import latmult.admissibility as admissibility

        built, evaluated = [], []
        real = PathSequence.__post_init__
        monkeypatch.setattr(PathSequence, "__post_init__", lambda z: built.append(z.k) or real(z))
        evaluate = admissibility._evaluate
        monkeypatch.setattr(admissibility, "_evaluate", lambda z: evaluated.append(z.k) or evaluate(z))
        results = run_verification(5, 4)
        assert all(r.ok for r in results)
        # every sequence split, joined or sent by tau equals one the cell
        # enumerated, and that one is alive in the cell's list
        assert len(built) <= sum(syt_sum_squares(ell, k) for ell in range(1, 6) for k in range(2, 5))
        # and each value built is evaluated once, on the object built
        assert len(evaluated) == len(built)
