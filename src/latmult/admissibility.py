"""The admissibility predicate for nested path sequences, and their type.

Both come from one O(ell * k) pass over the band tallies, made once per
PathSequence object: the verdict (the type, or None when inadmissible) is
kept in the instance dict, which equality, hashing and repr never see.
"""

from latmult.partitions import Partition
from latmult.paths import LatticePath, PathSequence, color_counts

_VERDICT = "_verdict"


def satisfies_diagonal_condition(p: LatticePath) -> bool:
    """No prefix has more up than right moves, so the path never crosses the
    anti-diagonal through its endpoints (touching is allowed)."""
    return all(2 * u <= m for m, u in enumerate(p.up_prefix))


def _band_fits(j: int, t: int, left: int, prev: int, room: int) -> bool:
    """The per-color clauses on band i >= 2 with tally t at color j: the cap
    t <= prev (band i-1 at color j), the budget t <= room (what color j has
    left once band 1 and bands 1..i-1 are paid for), and weak monotonicity
    toward color 0 against left, the band's tally at color j-1 (0 at the
    first color). The search and is_admissible both test bands with it."""
    return t <= prev and t <= room and (left <= t if j <= 0 else t <= left)


def _evaluate(z: PathSequence) -> Partition | None:
    """The type of z, or None when z is inadmissible."""
    if not satisfies_diagonal_condition(z.paths[0]):
        return None
    ell = z.ell
    colors = range(1 - ell, ell)
    counts = color_counts(z).counts
    room = [ell - abs(j) - t for j, t in zip(colors, counts[1])]  # band 1 is paid twice
    for prev, row in zip(counts[1:], counts[2:]):
        room = [r - p for r, p in zip(room, prev)]
        left = 0
        for j, t, cap, r in zip(colors, row, prev, room):
            if not _band_fits(j, t, left, cap, r):
                return None
            left = t
    return Partition(_type_parts([row[ell - 1] for row in counts], ell))


def _type_parts(column: list[int], ell: int) -> tuple[int, ...]:
    """The type's parts from an admissible sequence's color-zero band
    tallies, band 0 first: the column without its zeros."""
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
