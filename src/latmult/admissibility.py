"""The admissibility predicate for nested path sequences, and their type.

Every clause of the definition is written once, in _fits, one path's step
at one move. The search grows columns of moves with it (_successors), and
is_admissible replays through it the paths' up_prefix tables (built when
each path is validated), move by move, once per PathSequence object. The
verdict (the type, read off the state after move ell, or None when
inadmissible) is kept in the instance dict, which equality, hashing and
repr never see.
"""

from latmult.partitions import Partition
from latmult.paths import PathSequence

_VERDICT = "_verdict"


def _fits(ell: int, m: int, s: tuple[int, ...], i: int, lower: int, prev: int, room: int,
          u: int) -> tuple[int, int] | None:
    """Every clause, on path i+1 moving to up-count u at move m out of state
    s (the up-counts after move m - 1), with path i at lower after move m.
    Move m fixes each band's tally at color j = m - ell; prev is band i's
    and room what band i+1 may still spend there. Returns (band i+1's
    tally, room for band i+2), or None at the first failing clause. The
    last move fixes no color, but there every tally and budget is 0."""
    j = m - ell
    if u > ell or m - u > ell:  # up or right moves exhausted
        return None
    if i == 0:
        if 2 * u > m:  # first path may not cross the anti-diagonal
            return None
        t = u - max(j, 0)
        return t, ell - abs(j) - 2 * t  # band 1 counts twice in every budget
    if u < lower:  # nesting above the previous path
        return None
    t = u - lower
    left = s[i] - s[i - 1]  # band i+1's tally at color j - 1 (0 at the first color)
    # the cap against band i, the budget, weak monotonicity toward color 0
    if not (t <= prev and t <= room and (left <= t if j <= 0 else t <= left)):
        return None
    return t, room - t


def _successors(ell: int, m: int, s: tuple[int, ...]) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """The (column, next state) pairs of move m out of state s that pass
    every clause; column[i] is path i+1's move. The column grows one path at
    a time and is dropped at its first failing clause, so the 2**(k-1)
    product of moves is never formed."""
    partial: list[tuple[tuple[str, ...], tuple[int, ...], int, int]] = [((), (), 0, 0)]
    for i, before in enumerate(s):
        grown = []
        for moves, counts, prev, room in partial:
            for mv, u in (("R", before), ("U", before + 1)):
                fit = _fits(ell, m, s, i, counts[-1] if i else 0, prev, room, u)
                if fit is not None:
                    grown.append((moves + (mv,), counts + (u,), *fit))
        partial = grown
    return [(moves, counts) for moves, counts, _, _ in partial]


def _evaluate(z: PathSequence) -> Partition | None:
    """The type of z, or None when z is inadmissible: z's up-count states,
    states[m] the paths' up-counts after move m, replayed through _fits."""
    ell = z.ell
    states = list(zip(*(p.up_prefix for p in z.paths)))
    for m, (s, ups) in enumerate(zip(states, states[1:]), 1):
        prev = room = 0
        for i, u in enumerate(ups):
            fit = _fits(ell, m, s, i, ups[i - 1] if i else 0, prev, room, u)
            if fit is None:
                return None
            prev, room = fit
    return Partition(_type_parts(states[ell], ell))


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
    applies."""
    if _VERDICT not in z.__dict__:
        z.__dict__[_VERDICT] = _evaluate(z)
    return z.__dict__[_VERDICT] is not None


def _type_of(z: PathSequence) -> Partition | None:
    """The type of z, or None when z is inadmissible, from the verdict cached
    on z; only a miss goes through is_admissible."""
    if _VERDICT not in z.__dict__:
        is_admissible(z)
    return z.__dict__[_VERDICT]


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
