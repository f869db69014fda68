"""Admissibility of nested path sequences and their type partitions.

The oracles are conftest's: a clause-by-clause transcription of the
admissibility conditions in terms of box sets on the colored square,
sharing no code with the implementation under test, run over every nested
sequence.
"""

import copy
import gc
import inspect
import itertools
import pickle
import weakref

import pytest
from hypothesis import given

from latmult import (
    LatticePath,
    Partition,
    PathSequence,
    count_sequences,
    enumerate_admissible,
    is_admissible,
    reflect,
    sequence_type,
)
from latmult.admissibility import _column_fits, _successors

from conftest import (
    all_admissible,
    nested_sequences,
    nested_sequences_st,
    oracle_admissible,
    oracle_diagonal,
    oracle_type,
    paths_st,
    walked_admissible,
)


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
            # reflection swaps colors j and -j and keeps every band: the half
            # walk of the self-conjugate search rests on this symmetry
            mirror = PathSequence(tuple(map(reflect, z.paths)))
            assert is_admissible(z) == is_admissible(mirror) == verdict
            if verdict:
                assert sequence_type(z) == sequence_type(mirror) == oracle_type(z)
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
    """Each sequence keeps its own verdict, evaluated on its first query and
    stored outside its fields; the library builds one object per live
    value, so a value it built is evaluated once while it lives."""

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
        with pytest.raises(ValueError):
            sequence_type(PathSequence(z.paths))  # an equal fresh copy evaluates its own verdict

    def test_tallies_built_once_per_live_value(self, monkeypatch):
        import latmult.admissibility as admissibility
        from latmult.paths import _sequence

        built = []  # holds no sequence, so it keeps none alive
        real = admissibility._evaluate
        monkeypatch.setattr(admissibility, "_evaluate", lambda z: built.append(z.k) or real(z))
        moves = ("RURRRUUURU", "RURRUUURRU", "RURRUUURRU")
        z = _sequence(moves)
        assert is_admissible(z)
        assert sequence_type(z) == Partition((3, 1, 1))
        assert is_admissible(z)
        assert len(built) == 1
        again = _sequence(moves)
        assert again is z
        assert sequence_type(again) == Partition((3, 1, 1))
        assert len(built) == 1  # the library hands back the live object, verdict and all
        assert sequence_type(PathSequence(z.paths)) == Partition((3, 1, 1))
        assert len(built) == 2  # an equal object from the public constructor evaluates its own
        del z, again
        gc.collect()
        assert sequence_type(_sequence(moves)) == Partition((3, 1, 1))
        assert len(built) == 3  # the verdict left with the last live object

    def test_verdict_keeps_nothing_alive(self):
        gc.collect()
        z = PathSequence((LatticePath("RURRUURURU"), LatticePath("RURUURRURU")))
        assert sequence_type(z) == Partition((2, 2, 1))
        alive = weakref.ref(z)
        del z
        gc.collect()
        assert alive() is None

    @pytest.mark.parametrize("duplicate", [copy.copy, lambda z: pickle.loads(pickle.dumps(z))],
                             ids=["copy", "pickle"])
    def test_copies_carry_the_verdict(self, duplicate, monkeypatch):
        import latmult.admissibility as admissibility

        z = PathSequence((LatticePath("RURRUU"), LatticePath("RURRUU")))
        lam = sequence_type(z)
        twin = duplicate(z)
        del z
        gc.collect()
        built = []
        real = admissibility._evaluate
        monkeypatch.setattr(admissibility, "_evaluate", lambda w: built.append(w.k) or real(w))
        assert sequence_type(twin) == lam
        assert built == []  # the twin answers from the verdict it carries


class TestColumnTable:
    """Whether a column passes every clause depends only on (ell, m, s, ups),
    so _evaluate looks it up in the table of the one cell (ell, k) it last
    met and replays it through _fits only on its first meeting there.
    TestEveryNestedSequence checks the table's verdicts on whole grids."""

    def test_holds_one_cell_at_a_time(self):
        import latmult.admissibility as admissibility

        for ell, k in [(5, 3), (4, 4)]:
            for moves in all_admissible(ell, k)[:20]:  # fresh objects, so each is evaluated
                assert is_admissible(PathSequence(tuple(map(LatticePath, moves))))
        assert list(admissibility._CELL) == [(4, 4)]
        columns, types = admissibility._CELL[4, 4]
        assert columns and all(m <= 8 and len(s) == len(ups) == 3 for m, s, ups in columns)
        assert types and all(len(s) == 3 and lam.size == 4 for s, lam in types.items())

    def test_failing_column_reads_none_stored_or_not(self, monkeypatch):
        import latmult.admissibility as admissibility

        assert is_admissible(PathSequence((LatticePath("RU"),)))  # another cell: (3, 3) starts afresh
        replayed = []
        real = admissibility._column_fits
        monkeypatch.setattr(admissibility, "_column_fits", lambda *a: replayed.append(a[1:]) or real(*a))
        failing = (4, (1, 1), (1, 2))  # band 2's tally at color 1 exceeds band 1's
        first = PathSequence((LatticePath("RURRUU"), LatticePath("RURUUR")))
        assert not is_admissible(first)
        assert replayed[-1] == failing  # not yet in the table: replayed, and the replay fails
        assert admissibility._CELL[3, 3][0][failing] is False
        second = PathSequence((LatticePath("RRURUU"), LatticePath("RRUUUR")))
        before = len(replayed)
        assert not is_admissible(second)
        assert failing not in replayed[before:]  # read off the table
        for z in (first, second):
            assert not oracle_admissible(z)
            with pytest.raises(ValueError):
                sequence_type(z)


class TestSuccessors:
    """The search grows a column one path at a time and keeps only the next
    state; the replay checks a whole column at once. Both ask _fits, and on
    every state the full 2 * ell walk meets they pass the same columns."""

    @pytest.mark.parametrize("ell, k", [(ell, k) for ell in range(1, 7) for k in range(2, 6)])
    def test_successors_are_the_columns_the_replay_passes(self, ell, k):
        layer = {(0,) * (k - 1)}
        for m in range(1, 2 * ell + 1):
            grown = set()
            for s in layer:
                columns = (tuple(u + b for u, b in zip(s, bits))
                           for bits in itertools.product((0, 1), repeat=k - 1))
                passing = [ups for ups in columns if _column_fits(ell, m, s, ups)]
                nxt = _successors(ell, m, s)
                assert sorted(nxt) == sorted(passing), (m, s)  # each passing column once
                grown.update(nxt)
            layer = grown
        assert layer == {(ell,) * (k - 1)}  # every path ends with ell up moves


# (clause, its text in _fits, the text that drops it, what changes, the cell)
CLAUSE_EDITS = [
    ("anti-diagonal", "if 2 * u > m:", "if False:", "count", (1, 2)),
    ("cap", "t <= prev and ", "", "count", (1, 3)),
    ("budget", "t <= room and ", "", "count", (4, 3)),
    ("band-1-counts-twice", "ell - abs(j) - 2 * t", "ell - abs(j) - t", "count", (4, 3)),
    ("monotonicity-up-to-color-0", "left <= t if j <= 0", "True if j <= 0", "count", (2, 3)),
    ("monotonicity-past-color-0", "else t <= left", "else True", "verdict", (4, 3)),
    ("move-exhaustion", "if u > ell or m - u > ell:", "if False:", "walk", (1, 2)),
]


class TestEveryClauseMatters:
    """Each clause left in _fits decides an outcome of the caller it serves:
    a copy of _fits with the clause cut from its source changes the search's
    count, is_admissible against the box-set oracle on nested sequences, or
    the full 2 * ell walk, at the named cell. The search stops at move ell,
    so monotonicity at j > 0 shows only in the replay, and exhaustion only
    in the full walk."""

    @staticmethod
    def outcome(what, ell, k):
        if what == "count":
            return count_sequences(ell, k)
        if what == "verdict":  # fresh public sequences, so each is evaluated
            return [z for z in nested_sequences(ell, k) if is_admissible(z) != oracle_admissible(z)]
        return sorted(walked_admissible(ell, k))

    @staticmethod
    def patch_fits(monkeypatch, old, new):
        import latmult.admissibility as admissibility

        source = inspect.getsource(admissibility._fits)
        assert source.count(old) == 1, f"_fits no longer reads {old!r}; update CLAUSE_EDITS"
        namespace = dict(vars(admissibility))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(admissibility, "_fits", namespace["_fits"])
        monkeypatch.setattr(admissibility, "_CELL", {})  # no column verdict from the real _fits

    @pytest.mark.parametrize("old, new, what, cell", [e[1:] for e in CLAUSE_EDITS],
                             ids=[e[0] for e in CLAUSE_EDITS])
    def test_dropping_the_clause_changes_the_outcome(self, monkeypatch, old, new, what, cell):
        before = self.outcome(what, *cell)
        self.patch_fits(monkeypatch, old, new)
        assert self.outcome(what, *cell) != before

    @pytest.mark.parametrize("what, cell", sorted({e[3:] for e in CLAUSE_EDITS}))
    def test_an_unedited_copy_changes_nothing(self, monkeypatch, what, cell):
        before = self.outcome(what, *cell)
        self.patch_fits(monkeypatch, "return t, room - t", "return t, room - t")
        assert self.outcome(what, *cell) == before
