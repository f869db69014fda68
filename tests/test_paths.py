"""Lattice paths on the colored square: geometry, reflection, nesting,
and per-band color counts.

Oracles work directly from the path's vertex set and the box grid:
a box with upper-left corner (a, b) lies weakly below a path exactly
when the path passes through some vertex (x, y) with x <= a and y >= b.
"""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given

from latmult import (
    ColorCountTable,
    LatticePath,
    PathSequence,
    color_counts,
    enumerate_admissible,
    enumerate_self_conjugate,
    is_self_conjugate,
    path_leq,
    reflect,
)
from latmult import paths
from latmult.paths import _sequence
from latmult.serialize import path_from_json, sequence_from_json, sequence_to_json

from conftest import nested_sequences_st, paths_st


def vertices(p):
    """All lattice points visited by p, starting at (0, -ell)."""
    x, y = 0, -p.ell
    out = [(x, y)]
    for move in p.moves:
        if move == "R":
            x += 1
        else:
            y += 1
        out.append((x, y))
    return out


def boxes_weakly_below(p):
    """Oracle: box (a, b) counts when some visited vertex has x <= a, y >= b."""
    verts = vertices(p)
    out = set()
    for a in range(p.ell):
        for b in range(-(p.ell - 1), 1):
            if any(x <= a and y >= b for x, y in verts):
                out.add((a, b))
    return out


class TestLatticePath:
    def test_rejects_bad_moves(self):
        with pytest.raises(ValueError):
            LatticePath("RX")

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            LatticePath("RRU")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LatticePath("")

    @given(paths_st())
    def test_up_prefix_counts(self, p):
        for m in range(len(p.moves) + 1):
            assert p.up_prefix[m] == p.moves[:m].count("U")

    def test_ends_at_origin_corner(self):
        p = LatticePath("RURRUU")
        assert vertices(p)[0] == (0, -3)
        assert vertices(p)[-1] == (3, 0)


class TestReflect:
    def test_one_by_one_fixed(self):
        # [TRIVIAL] the 1x1 paths RU and UR are each anti-diagonal symmetric
        assert reflect(LatticePath("RU")) == LatticePath("RU")
        assert reflect(LatticePath("UR")) == LatticePath("UR")

    def test_two_by_two_cases(self):
        # [DERIVED] reverse the string, then swap R and U
        assert reflect(LatticePath("RRUU")) == LatticePath("RRUU")
        assert reflect(LatticePath("RURU")) == LatticePath("RURU")
        assert reflect(LatticePath("UURR")) == LatticePath("UURR")
        assert reflect(LatticePath("RURU")) != LatticePath("URUR")

    @given(paths_st())
    def test_involution(self, p):
        assert reflect(reflect(p)) == p

    @given(paths_st())
    def test_box_geometry(self, p):
        # reflection across y = -x sends box (a, b) to (-b, -a)
        before = boxes_weakly_below(p)
        after = boxes_weakly_below(reflect(p))
        assert after == {(-b, -a) for a, b in before}

    @given(paths_st())
    def test_color_negation(self, p):
        # a j-colored box below p reflects to a (-j)-colored box below the
        # reflection; box (a, b) has color a + b
        before = Counter(a + b for a, b in boxes_weakly_below(p))
        after = Counter(a + b for a, b in boxes_weakly_below(reflect(p)))
        assert after == Counter({-j: n for j, n in before.items()})


class TestPathLeq:
    @given(paths_st())
    def test_reflexive(self, p):
        # [TRIVIAL]
        assert path_leq(p, p)

    def test_bottom_path_below_top_path(self):
        # [DERIVED] box-containment oracle on the four 2x2 boxes
        assert path_leq(LatticePath("RRUU"), LatticePath("UURR"))
        assert not path_leq(LatticePath("UURR"), LatticePath("RRUU"))

    def test_strict_comparable_pair(self):
        # [DERIVED] exactly one direction holds for RURU vs RRUU
        p, q = LatticePath("RURU"), LatticePath("RRUU")
        assert path_leq(q, p)
        assert not path_leq(p, q)

    @given(paths_st(), paths_st())
    def test_matches_box_containment_oracle(self, p, q):
        if p.ell != q.ell:
            with pytest.raises(ValueError):
                path_leq(p, q)
            return
        assert path_leq(p, q) == (boxes_weakly_below(p) <= boxes_weakly_below(q))


class TestPathSequence:
    def test_rejects_broken_nesting(self):
        with pytest.raises(ValueError):
            PathSequence((LatticePath("UURR"), LatticePath("RRUU")))

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            PathSequence((LatticePath("RU"), LatticePath("RRUU")))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PathSequence(())

    @given(nested_sequences_st())
    def test_ell_and_k(self, z):
        assert z.ell == z.paths[0].ell
        assert z.k == len(z.paths) + 1

    def test_self_conjugate_examples(self):
        # [TRIVIAL] both paths RU
        assert is_self_conjugate(PathSequence((LatticePath("RU"), LatticePath("RU"))))
        # [DERIVED] one asymmetric member breaks the property
        z = PathSequence((LatticePath("RRUU"), LatticePath("RUUR")))
        assert not is_self_conjugate(z)

    @given(nested_sequences_st())
    def test_self_conjugate_matches_reflection(self, z):
        assert is_self_conjugate(z) == all(reflect(p) == p for p in z.paths)


class TestColorCounts:
    def test_one_by_one_table(self):
        # [TRIVIAL] the single box lies above the single below-diagonal path
        z = PathSequence((LatticePath("RU"),))
        table = color_counts(z)
        assert table.t(1, 0) == 0
        assert table.t(0, 0) == 1

    @given(nested_sequences_st())
    def test_column_sums(self, z):
        # [TRIVIAL] every j-colored box is in exactly one band
        table = color_counts(z)
        ell = z.ell
        for j in range(-(ell - 1), ell):
            assert sum(table.t(i, j) for i in range(z.k)) == ell - abs(j)

    @given(nested_sequences_st())
    def test_matches_box_membership_oracle(self, z):
        ell, k = z.ell, z.k
        below = [boxes_weakly_below(p) for p in z.paths]
        table = color_counts(z)
        for j in range(-(ell - 1), ell):
            colored = {(a, b) for a in range(ell) for b in range(1 - ell, 1) if a + b == j}
            assert table.t(1, j) == len(colored & below[0])
            for i in range(2, k):
                assert table.t(i, j) == len(colored & (below[i - 1] - below[i - 2]))
            assert table.t(0, j) == len(colored - below[-1])

    def test_table_validation(self):
        # column for color -1 sums to 2, but only one box has that color
        with pytest.raises(ValueError):
            ColorCountTable(2, 2, ((2, 1, 1), (0, 1, 0)))
        # row count must be k and row width must be 2*ell - 1
        with pytest.raises(ValueError):
            ColorCountTable(2, 2, ((1, 1, 1),))
        with pytest.raises(ValueError):
            ColorCountTable(2, 2, ((1, 1), (0, 1)))


class TestPathTable:
    """The library builds one path per live move string, as it builds one
    sequence per live value; the public constructors build fresh ones."""

    def test_library_sequences_share_paths(self):
        seqs = enumerate_admissible(4, 4) + enumerate_self_conjugate(4, 4)
        by_moves = {}
        for z in seqs:
            for p in z.paths:
                assert by_moves.setdefault(p.moves, p) is p
        assert len(by_moves) < sum(len(z.paths) for z in seqs)

    def test_table_keeps_nothing_alive(self):
        moves = "R" * 11 + "U" * 11
        z = _sequence((moves, moves))
        assert z.paths[0] is z.paths[1] is paths._PATHS[moves]
        alive = weakref.ref(z.paths[0])
        del z
        gc.collect()
        assert alive() is None
        assert moves not in paths._PATHS

    def test_public_routes_build_fresh_paths(self):
        z = _sequence(("RRUU", "RURU"))
        low, high = z.paths
        read = sequence_from_json(sequence_to_json(z))
        fresh = [
            LatticePath("RRUU"),
            PathSequence((LatticePath("RRUU"), LatticePath("RURU"))).paths[0],
            reflect(low),  # RRUU is its own mirror
            path_from_json("RRUU"),
            read.paths[0],
        ]
        assert all(p == low and p is not low for p in fresh)
        assert read.paths[1] == high and read.paths[1] is not high
