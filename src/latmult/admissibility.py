"""The admissibility predicate for nested path sequences, and their type.

After move m the paths' up-counts, the state s = (u_1, ..., u_{k-1}), hold
every band's tally on color j = m - ell: path i has u_i - max(j, 0) boxes
of that color below it, and a band between two paths tallies the
difference. Every clause at a color j <= 0 is written once, in
_successors, which grows the columns of a move m <= ell one path at a
time, the state before the move holding color j - 1, and returns the next
states alone, no move letter: a path moved up where its up-count grew.
Nesting has no clause: a path that drops below its predecessor gives its
band a negative tally, which fails monotonicity, and PathSequence has
checked a replayed sequence nested.

The colors past 0 need no clause of their own. Reflecting every path
across the anti-diagonal keeps the paths' order and the bands, swaps
colors j and -j, and so keeps every clause, which reads j and -j alike:
the mirror of an admissible sequence is admissible. The mirror's up-count
after move m is m - ell plus the sequence's after move 2 * ell - m, so the
two meet at the state after move ell, and the mirror's move ell + 1 - c
is the sequence's move ell + c read backwards: where that goes from s to
ups, the mirror goes from ups shifted by -c to s shifted by 1 - c. The
mirror's colors <= 0 are the sequence's colors >= 0, so a sequence is
admissible exactly when its first ell moves and its mirror's pass those
clauses, and a column passes exactly when its mirror column does. This is
the one statement of that argument. enumeration pairs first halves that
reach one state on it, and is_admissible's replay answers each column and
its mirror with one ask.

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
ell. So _evaluate replays the paths' up_prefix tables (built when each
path is validated) move by move over all 2 * ell moves, and keeps two
tables for the one cell it last met: each column met and its mirror,
failing ones included, to whether they pass, and each state after move
ell to its Partition. A column and its mirror share one ask of
_successors, on the first meeting of either in the cell, about the one at
a move <= ell as the one column it grows. A type is built once per state.
The tables hold one cell at a time because the library's work comes cell
by cell (verify checks one, then the next) and repeats only within it: a
sequence of another cell starts fresh tables, and that bounds them with no
size constant. The trade is memory: the last cell's tables stay until
another cell is evaluated, at most 4 * ell entries per sequence evaluated
there and in practice far fewer (a verify pass over (6,5), (5,6), (5,5)
and (4,7) meets 1 762 distinct columns in 41 562, answered by 881 asks, and
293 states in 3 909 sequences). Every entry is a pure function of its key
and cell, so two threads that race on a table only repeat work.
"""

from latmult.partitions import Partition
from latmult.paths import PathSequence


def _successors(m: int, s: tuple[int, ...], ups: tuple[int, ...] | None = None) -> list[tuple[int, ...]]:
    """The next states of move m <= ell out of state s whose columns pass
    every clause at color j = m - ell: nxt[i] is path i+1's up-count after
    move m, so it moved up where nxt[i] > s[i]. Given ups, only the column
    to ups is grown, and the answer is [ups] or []. The column grows one
    path at a time, as (up-counts so far, the last as the next path's
    lower, the last band's tally on color j, what the next band may still
    spend there), and is dropped at its first failing clause, so the
    2**(k-1) product of moves is never formed and no move letter is built."""
    # the first path may not cross the anti-diagonal; color j has ell - |j|
    # boxes, and band 1 counts twice in every budget
    first = (s[0], s[0] + 1) if ups is None else ups[:1]
    partial = [((u,), u, u, m - 2 * u) for u in first if 2 * u <= m]
    for i in range(1, len(s)):
        left = s[i] - s[i - 1]  # band i+1's tally on color j - 1 (0 at the first color)
        choices = (s[i], s[i] + 1) if ups is None else (ups[i],)
        grown = []
        for done, lower, prev, room in partial:
            for u in choices:
                t = u - lower
                # weak monotonicity toward color 0, the cap against band i, the budget
                if left <= t <= prev and t <= room:
                    grown.append((done + (u,), u, t, room - t))
        partial = grown
    return [nxt for nxt, _, _, _ in partial]


# (ell, k) -> (columns, types) of the one cell last evaluated: columns maps
# (m, s, ups) and its mirror, stored together from one ask, to whether they
# pass; types maps a state after move ell to its type
_CELL: dict[tuple[int, int], tuple[dict, dict]] = {}


def _evaluate(z: PathSequence) -> Partition | None:
    """The type of z, or None when z is inadmissible: z's up-count states,
    states[m] the paths' up-counts after move m, each column looked up in
    the cell's table. On a miss, _successors is asked about the column or
    its mirror, whichever is at a move <= ell, and the answer kept for both."""
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
            m, s, ups = key
            c = m - ell
            mirror = (ell + 1 - c, tuple([u - c for u in ups]), tuple([u + 1 - c for u in s]))
            fits = columns[key] = columns[mirror] = bool(_successors(*(key if c <= 0 else mirror)))
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
