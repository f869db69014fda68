"""Admissibility of nested path sequences and their type partitions.

The oracles are conftest's: a clause-by-clause transcription of the
admissibility conditions in terms of box sets on the colored square, run
over every nested sequence, and a clause step on band tallies at every
color, oracle_fits, which the full walk and the search's check use. Neither
shares code with the implementation under test.
"""

import ast
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
    syt_sum,
    syt_sum_squares,
)
from latmult.admissibility import _successors
from latmult.enumeration import _layers

from conftest import (
    all_admissible,
    all_partitions,
    nested_sequences,
    nested_sequences_st,
    oracle_admissible,
    oracle_diagonal,
    oracle_fits,
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


NESTED_GRID = [(ell, k) for ell in range(1, 4) for k in range(2, 6)] + [(4, k) for k in range(2, 5)]


class TestEveryNestedSequence:
    """The predicate, the type, the search and the tests' full walk against
    the box-set oracle on every nested sequence of a grid, not a sample."""

    @pytest.mark.parametrize("ell, k", NESTED_GRID)
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

    @pytest.mark.parametrize("ell, k", NESTED_GRID)
    def test_full_walk_is_the_box_set_oracle(self, ell, k):
        # walked_admissible's clause step, oracle_fits, reads tallies off
        # up-counts; the box-set oracle lists boxes: two transcriptions agree
        walked = walked_admissible(ell, k)
        assert len(walked) == len(set(walked))
        assert set(walked) == {tuple(p.moves for p in z.paths) for z in nested_sequences(ell, k)
                               if oracle_admissible(z)}


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
    """Whether a column passes depends only on (ell, m, s, ups), so _evaluate
    looks it up in the table of the one cell (ell, k) it last met. A column
    and its mirror pass together, so on a miss _successors is asked once,
    about the one of the pair at a move <= ell, and the answer is stored
    under both. TestEveryNestedSequence checks the table's verdicts on
    whole grids."""

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
        real = admissibility._successors
        monkeypatch.setattr(admissibility, "_successors", lambda *a: replayed.append(a) or real(*a))
        # band 2 tallies 0 on color 0 and 1 on color 1: read backwards, the
        # mirror's move 3 out of (0, 1) breaks monotonicity toward color 0
        failing, mirror = (4, (1, 1), (1, 2)), (3, (0, 1), (1, 1))
        first = PathSequence((LatticePath("RURRUU"), LatticePath("RURUUR")))
        assert not is_admissible(first)
        assert replayed[-1] == mirror  # not yet in the table: its mirror is asked, and fails
        assert admissibility._CELL[3, 3][0][failing] is admissibility._CELL[3, 3][0][mirror] is False
        second = PathSequence((LatticePath("RRURUU"), LatticePath("RRUUUR")))
        before = len(replayed)
        assert not is_admissible(second)
        assert mirror not in replayed[before:]  # read off the table
        for z in (first, second):
            assert not oracle_admissible(z)
            with pytest.raises(ValueError):
                sequence_type(z)

    def test_a_column_past_move_ell_fails_through_the_mirror(self, monkeypatch):
        import latmult.admissibility as admissibility

        asked = []
        real = admissibility._successors
        monkeypatch.setattr(admissibility, "_successors", lambda *a: asked.append(a) or real(*a))
        monkeypatch.setattr(admissibility, "_CELL", {})
        p = LatticePath("RURUUR")  # crosses the anti-diagonal at move 5 alone: 3 up moves, 2 right
        z = PathSequence((p, p))
        assert not is_admissible(z)
        assert not oracle_admissible(z)
        # each column is asked as the one column to grow, and answers for its
        # mirror too: move 4 is the mirror of move 3's column, a table hit;
        # moves 5 and 6 are asked as the mirror's moves 2 and 1 read
        # backwards, and the mirror's move 1 takes (0, 0) to (1, 1), above
        # the anti-diagonal
        assert asked == [
            (1, (0, 0), (0, 0)), (2, (0, 0), (1, 1)), (3, (1, 1), (1, 1)),
            (2, (1, 1), (1, 1)), (1, (0, 0), (1, 1)),
        ]
        assert admissibility._CELL[3, 3][0] == {
            (1, (0, 0), (0, 0)): True, (6, (2, 2), (3, 3)): True,
            (2, (0, 0), (1, 1)): True, (5, (2, 2), (2, 2)): True,
            (3, (1, 1), (1, 1)): True, (4, (1, 1), (2, 2)): True,
            (5, (2, 2), (3, 3)): True, (2, (1, 1), (1, 1)): True,
            (6, (3, 3), (3, 3)): False, (1, (0, 0), (1, 1)): False,
        }

    @pytest.mark.parametrize("ell, k", [(4, 3), (3, 4), (5, 2)])
    def test_a_column_and_its_mirror_share_one_answer(self, monkeypatch, ell, k):
        import latmult.admissibility as admissibility

        def mirror(m, s, ups):
            c = m - ell
            return ell + 1 - c, tuple(u - c for u in ups), tuple(u + 1 - c for u in s)

        monkeypatch.setattr(admissibility, "_CELL", {})
        for z in nested_sequences(ell, k):  # fresh public sequences, so each is evaluated
            is_admissible(z)
        columns = admissibility._CELL[ell, k][0]
        assert columns
        for key, fits in columns.items():
            assert columns.get(mirror(*key)) is fits, key
            assert mirror(*mirror(*key)) == key
            asked = key if key[0] <= ell else mirror(*key)
            assert fits == oracle_fits(ell, *asked), key


class TestSuccessors:
    """The search grows a column one path at a time and keeps only the next
    state. The replay here is the test's own: every 0/1 column out of a
    state, checked through conftest's oracle_fits, which shares no code with
    _fits. On every state the search reaches by move ell both pass the same
    columns, the search names each once, and asked about one column, as
    is_admissible asks, it answers that column or nothing."""

    @pytest.mark.parametrize("ell, k", [(ell, k) for ell in range(1, 8) for k in range(2, 7)])
    def test_successors_are_the_columns_the_replay_passes(self, ell, k):
        layer = {(0,) * (k - 1)}
        for m in range(1, ell + 1):
            grown = set()
            for s in layer:
                columns = [tuple(u + b for u, b in zip(s, bits))
                           for bits in itertools.product((0, 1), repeat=k - 1)]
                passing = [ups for ups in columns if oracle_fits(ell, m, s, ups)]
                nxt = _successors(m, s)
                assert sorted(nxt) == sorted(passing), (m, s)  # each passing column once
                assert all(_successors(m, s, ups) == [ups] * (ups in passing) for ups in columns), (m, s)
                grown.update(nxt)
            layer = grown
        assert len(layer) == len(all_partitions(ell, k))  # one state after move ell per type

    @pytest.mark.parametrize("k", range(2, 8))
    def test_each_layer_holds_one_state_per_partition(self, k):
        # _successors reads no ell, so the library's one walk to move 24
        # gives the layer after every move m; count_by_type's one state per
        # type rests on this count, and each layer's halves pair into the
        # hook sums for m
        layers = _layers(24, k, 1, lambda g, s, nxt: g)
        for m, layer in enumerate(layers, start=1):
            assert len(layer) == len(all_partitions(m, k)), m
            counts = layer.values()
            assert (sum(g * g for g in counts), sum(counts)) == (syt_sum_squares(m, k), syt_sum(m, k)), m
        assert m == 24


class TestOneClauseStep:
    def test_only_successors_calls_fits(self):
        import latmult.admissibility as admissibility

        def names(node):
            return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "_fits"]

        tree = ast.parse(inspect.getsource(admissibility))
        search = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_successors")
        called = [c.func for c in ast.walk(search) if isinstance(c, ast.Call)]
        assert names(search) and names(tree) == names(search)  # no reference outside _successors
        assert all(n in called for n in names(search))  # and each one a call


# (clause, its text in _fits, the text that drops it, what changes, the cell)
CLAUSE_EDITS = [
    ("anti-diagonal", "if 2 * u > m:", "if False:", "count", (1, 2)),
    ("cap", " <= prev", "", "count", (1, 3)),
    ("budget", " and t <= room", "", "count", (4, 3)),
    ("band-1-counts-twice", "m - 2 * u", "m - u", "count", (4, 3)),
    ("monotonicity-up-to-color-0", "left <= ", "", "count", (2, 3)),
    ("monotonicity-past-color-0", "left <= ", "", "verdict", (4, 3)),
]


class TestEveryClauseMatters:
    """Each clause in _fits decides an outcome: a copy of _fits with the
    clause cut from its source changes the search's count, or is_admissible
    against the box-set oracle, at the named cell. The verdicts are taken
    on the nested sequences whose first ell moves pass oracle_fits, so a
    change there comes from the last ell moves, which the replay reads
    through the mirror: monotonicity past color 0 is the clause toward
    color 0 read backwards."""

    @staticmethod
    def outcome(what, ell, k):
        if what == "count":
            return count_sequences(ell, k)
        changed = []
        for z in nested_sequences(ell, k):  # fresh public sequences, so each is evaluated
            states = list(zip(*(p.up_prefix for p in z.paths)))
            if all(oracle_fits(ell, m, states[m - 1], states[m]) for m in range(1, ell + 1)):
                if is_admissible(z) != oracle_admissible(z):
                    changed.append(z)
        return changed

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
