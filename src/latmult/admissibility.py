"""The admissibility predicate for nested path sequences, and their type.

Every clause of the definition is written once, in _fits, one path's step
at one move, and each clause there serves a caller that can fail it. The
search (_successors, asked by enumeration for moves 1..ell) grows columns
of up-counts with it, one path at a time, and returns the next up-count
states alone, no move letter: a path moved up where its up-count grew.
is_admissible replays through it the paths'
up_prefix tables (built when each path is validated), move by move over
all 2 * ell moves. The anti-diagonal, the cap, the budget and monotonicity
toward color 0 at j <= 0 decide verdicts for both; monotonicity at j > 0
only for the replay, as the search stops at move ell. Nesting has no
clause: the search's monotonicity fails a path that drops below its
predecessor, and PathSequence has checked a replayed sequence nested.
Move exhaustion bounds _successors past move ell alone, which no library
route asks for: only the tests' full walk over 2 * ell moves does.

The verdict (the type, read off the state after move ell, or None when
inadmissible) is evaluated on a sequence's first query and kept on it as
_verdict, outside the dataclass fields as up_prefix is on a path: it takes
no part in equality, hashing or repr, and copies and pickles carry it. The
library builds one object per live value (paths._sequence), so each value
is evaluated once while it lives; an equal object from the public
constructor evaluates its own.

Sequences of one cell (ell, k) share most of their columns: whether a
column passes depends only on (ell, m, s, ups), the move, the state before
it and the up-counts after it, and the type only on the state after move
ell. So _evaluate keeps two tables for the one cell it last met: each
column met, failing ones included, to whether it passes, and each state
after move ell to its Partition. A column is replayed through _fits once,
on its first meeting in the cell; a type is built once per state. The
tables hold one cell at a time because the library's work comes cell by
cell (verify checks one, then the next) and repeats only within it: a
sequence of another cell starts fresh tables, and that bounds them with no
size constant. The trade is memory: the last cell's tables stay until
another cell is evaluated, at most 2 * ell entries per sequence evaluated
there and in practice far fewer (a verify pass over (6,5), (5,6), (5,5)
and (4,7) meets 1 762 distinct columns in 41 562 and 293 states in 3 909
sequences). Every entry is a pure function of its key and cell, so two
threads that race on a table only repeat work.
"""

from latmult.partitions import Partition
from latmult.paths import PathSequence


def _fits(ell: int, m: int, s: tuple[int, ...], i: int, lower: int, prev: int, room: int,
          u: int) -> tuple[int, int] | None:
    """Every clause, on path i+1 moving to up-count u at move m out of state
    s (the up-counts after move m - 1), with path i at lower after move m.
    Move m fixes each band's tally at color j = m - ell; prev is band i's
    and room what band i+1 may still spend there. Returns (band i+1's
    tally, room for band i+2), or None at the first failing clause. The
    last move fixes no color, but there every tally and budget is 0.
    The search calls it at moves 1..ell only, so the clauses at j > 0
    serve the replay, and exhaustion the tests' full walk alone."""
    j = m - ell
    if u > ell or m - u > ell:  # moves exhausted: only _successors past move ell can fail this
        return None
    if i == 0:
        if 2 * u > m:  # first path may not cross the anti-diagonal
            return None
        t = u - max(j, 0)
        return t, ell - abs(j) - 2 * t  # band 1 counts twice in every budget
    # nesting is implied: at moves <= ell t < 0 <= left fails monotonicity; path_leq checked a replay
    t = u - lower
    left = s[i] - s[i - 1]  # band i+1's tally at color j - 1 (0 at the first color)
    # the cap against band i, the budget, weak monotonicity toward color 0
    if not (t <= prev and t <= room and (left <= t if j <= 0 else t <= left)):
        return None
    return t, room - t


def _successors(ell: int, m: int, s: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The next states of move m out of state s whose columns pass every
    clause: nxt[i] is path i+1's up-count after move m, so it moved up
    where nxt[i] > s[i]. The column grows one path at a time, as
    (up-counts so far, the last as the next path's lower, prev, room), and
    is dropped at its first failing clause, so the 2**(k-1) product of
    moves is never formed and no move letter is built."""
    partial: list[tuple[tuple[int, ...], int, int, int]] = [((), 0, 0, 0)]
    for i, before in enumerate(s):
        grown = []
        for ups, lower, prev, room in partial:
            for u in (before, before + 1):
                fit = _fits(ell, m, s, i, lower, prev, room, u)
                if fit is not None:
                    grown.append((ups + (u,), u) + fit)
        partial = grown
    return [ups for ups, _, _, _ in partial]


# (ell, k) -> (columns, types) of the one cell last evaluated: columns maps
# (m, s, ups) to whether that column passes _fits, types maps a state after
# move ell to its type
_CELL: dict[tuple[int, int], tuple[dict, dict]] = {}


def _column_fits(ell: int, m: int, s: tuple[int, ...], ups: tuple[int, ...]) -> bool:
    """Whether the column taking state s to ups at move m passes every
    clause, replayed through _fits one path at a time."""
    prev = room = 0
    for i, u in enumerate(ups):
        fit = _fits(ell, m, s, i, ups[i - 1] if i else 0, prev, room, u)
        if fit is None:
            return False
        prev, room = fit
    return True


def _evaluate(z: PathSequence) -> Partition | None:
    """The type of z, or None when z is inadmissible: z's up-count states,
    states[m] the paths' up-counts after move m, each column looked up in
    the cell's table and replayed through _fits on its first meeting."""
    ell = z.ell
    tables = _CELL.get((ell, z.k))
    if tables is None:  # a new cell's tables replace the last cell's
        _CELL.clear()
        tables = _CELL[ell, z.k] = ({}, {})
    columns, types = tables
    states = list(zip(*(p.up_prefix for p in z.paths)))
    for key in zip(range(1, 2 * ell + 1), states, states[1:]):
        fits = columns.get(key)
        if fits is None:
            fits = columns[key] = _column_fits(ell, *key)
        if not fits:
            return None
    lam = types.get(states[ell])
    if lam is None:
        lam = types[states[ell]] = Partition(_type_parts(states[ell], ell))
    return lam


def _type_parts(ups: tuple[int, ...] | list[int], ell: int) -> tuple[int, ...]:
    """The type's parts from an admissible sequence's up-counts after move
    ell: a path has that many color-zero boxes below it, so the color-zero
    band tallies, band 0 first, are differences of them. The type is that
    column without its zeros."""
    column = [ell - ups[-1], ups[0]] + [b - a for a, b in zip(ups, ups[1:])]
    if any(a < b for a, b in zip(column, column[1:])):
        raise RuntimeError(f"internal error: color-zero tallies not weakly decreasing: {column}")
    parts = tuple(c for c in column if c > 0)
    if sum(parts) != ell:
        raise RuntimeError(f"internal error: type {parts} does not partition {ell}")
    return parts


def is_admissible(z: PathSequence) -> bool:
    """The defining conditions: the first path stays weakly below the
    anti-diagonal, and every band's color tallies respect the cap against
    the previous band, the remaining budget on that color, and weak
    monotonicity toward color zero. With k = 2 only the first condition
    applies. Evaluated once per sequence: the verdict is kept on z."""
    try:
        verdict = z._verdict
    except AttributeError:
        verdict = _evaluate(z)
        object.__setattr__(z, "_verdict", verdict)
    return verdict is not None


def _type_of(z: PathSequence) -> Partition | None:
    """The type of z, or None when z is inadmissible, from the verdict kept
    on z; only a sequence not yet checked goes through is_admissible."""
    try:
        return z._verdict
    except AttributeError:
        is_admissible(z)
        return z._verdict


def _require_type(z: PathSequence) -> Partition:
    """The type of z; ValueError when z is inadmissible."""
    lam = _type_of(z)
    if lam is None:
        raise ValueError("type is only defined for admissible sequences")
    return lam


def sequence_type(z: PathSequence) -> Partition:
    """The partition formed by the color-zero band tallies, top band first,
    trailing zeros dropped."""
    return _require_type(z)
