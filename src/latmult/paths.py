"""Monotone lattice paths on a colored square, nesting order, color counts.

The square sits in the fourth quadrant with its upper-left corner at the
origin. A box is named by its upper-left corner (a, b) with 0 <= a <= ell-1
and -(ell-1) <= b <= 0, and carries color a + b. Paths run from (0, -ell)
to (ell, 0) in unit right and up moves; a path is its move string.

After m moves a path sits on the (m - ell)-diagonal, so the number of boxes
of color j = m - ell below it equals its up-move count at move ell + j,
minus max(j, 0). Band tallies are therefore differences of up-move prefix
counts: admissibility._successors tests the clauses on a color j <= 0 on
them once every path has taken ell + j moves, and the colors past 0 are
read off the mirror, as admissibility's docstring argues. Those counts,
up_prefix, are built when each path is validated. path_leq reads them to
check nesting when a PathSequence is built, is_admissible replays them as
its up-count states, and color_counts reads the whole table off them in
O(ell * k); no library route calls it. The same pass records
self_conjugate, whether the path is its own reflection, so
is_self_conjugate (and with it join's check of its inputs) reverses no
move string.

Equal sequences built by the library are one object while any of them is
alive. The enumerators, tau, split and join get theirs from _sequence, which
keeps each live sequence in one weak table keyed by its move strings, so a
value is built and validated once, by the public constructor, while it
lives, and its entry leaves with the last object that keys it. The paths
inside are shared the same way: _sequence builds a new sequence's paths
through _path, a second weak table keyed by move string, so each string is
built and validated once while a path with it lives (the 3 909 sequences a
verify pass over (6,5), (5,6), (5,5) and (4,7) builds fill 11 767 path
slots with 2 159 distinct strings). The public constructors, LatticePath(...)
and PathSequence(...), and with them reflect and the serialize readers,
still return fresh objects each time. The trade is memory: each live
sequence or path the library built carries one table entry, its key and a
weak reference; shared paths save more than the path entries cost.
"""

import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

_SWAP = str.maketrans("RU", "UR")


def reflected_moves(moves: str) -> str:
    """Mirror a move string across the anti-diagonal: reverse it and swap R/U."""
    return moves[::-1].translate(_SWAP)


@dataclass(frozen=True)
class LatticePath:
    """A monotone path recorded as a string of 'R' and 'U' moves."""

    moves: str

    def __post_init__(self) -> None:
        n = len(self.moves)
        if n == 0 or n % 2:
            raise ValueError(f"move string must have positive even length: {self.moves!r}")
        up_prefix = tuple(accumulate((mv == "U" for mv in self.moves), initial=0))
        if up_prefix[-1] + self.moves.count("R") != n:
            raise ValueError(f"moves must be 'R' and 'U' only: {self.moves!r}")
        if 2 * up_prefix[-1] != n:
            raise ValueError(f"need equally many R and U moves: {self.moves!r}")
        object.__setattr__(self, "up_prefix", up_prefix)  # [m]: U moves among the first m moves
        object.__setattr__(self, "self_conjugate", self.moves == reflected_moves(self.moves))

    @property
    def ell(self) -> int:
        return len(self.moves) // 2


def reflect(p: LatticePath) -> LatticePath:
    """The mirror image of p across the anti-diagonal from (0, 0) to (ell, -ell)."""
    return LatticePath(reflected_moves(p.moves))


def path_leq(p: LatticePath, q: LatticePath) -> bool:
    """True when p lies weakly below q in every column, that is, when p has
    made at most as many up moves as q after every number of moves."""
    if p.ell != q.ell:
        raise ValueError(f"paths live on different squares: ell {p.ell} vs {q.ell}")
    return all(a <= b for a, b in zip(p.up_prefix, q.up_prefix))


@dataclass(frozen=True)
class PathSequence:
    """Nested paths p1 <= p2 <= ... <= p_{k-1} on one square."""

    paths: tuple[LatticePath, ...]

    def __post_init__(self) -> None:
        paths = tuple(self.paths)
        object.__setattr__(self, "paths", paths)
        if not paths:
            raise ValueError("a sequence needs at least one path (k >= 2)")
        for lower, upper in zip(paths, paths[1:]):  # path_leq also rejects mixed sizes
            if not path_leq(lower, upper):
                raise ValueError(f"paths are not nested: {lower.moves} above {upper.moves}")

    @property
    def ell(self) -> int:
        return self.paths[0].ell

    @property
    def k(self) -> int:
        return len(self.paths) + 1


def is_self_conjugate(z: PathSequence) -> bool:
    """True when every path equals its own reflection."""
    return all(p.self_conjugate for p in z.paths)


# move strings -> the live sequence with those paths; weak in the sequence
_SEQUENCES: weakref.WeakValueDictionary[tuple[str, ...], PathSequence] = weakref.WeakValueDictionary()
# move string -> the live path the library built with it; weak in the path
_PATHS: weakref.WeakValueDictionary[str, LatticePath] = weakref.WeakValueDictionary()


def _path(moves: str) -> LatticePath:
    """The path with this move string: the live one the library built when
    there is one, else a new one built and validated by LatticePath."""
    p = _PATHS.get(moves)
    if p is None:
        p = _PATHS[moves] = LatticePath(moves)
    return p


def _sequence(moves: tuple[str, ...]) -> PathSequence:
    """The sequence with these move strings, first path first: the live one
    when there is one, else a new one built and validated by PathSequence
    from the library's live paths."""
    z = _SEQUENCES.get(moves)
    if z is None:
        z = _SEQUENCES[moves] = PathSequence(tuple(map(_path, moves)))
    return z


def _mirrored(halves: Iterable[str]) -> PathSequence:
    """The self-conjugate sequence whose paths take the given first ell
    moves and then mirror them across the anti-diagonal."""
    return _sequence(tuple(h + reflected_moves(h) for h in halves))


@dataclass(frozen=True)
class ColorCountTable:
    """Box tallies t[i][j]: band i, color j, with j running -(ell-1)..ell-1.

    Band 1 is below the first path, band i sits between paths i-1 and i,
    and band 0 is above the last path.
    """

    ell: int
    k: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        counts = tuple(tuple(row) for row in self.counts)
        object.__setattr__(self, "counts", counts)
        width = 2 * self.ell - 1
        if len(counts) != self.k or any(len(row) != width for row in counts):
            raise ValueError(f"table must be {self.k} x {width}")
        for j, total in zip(range(1 - self.ell, self.ell), map(sum, zip(*counts))):
            if total != self.ell - abs(j):
                raise ValueError(f"color {j} tallies sum to {total}, expected {self.ell - abs(j)}")

    def t(self, i: int, j: int) -> int:
        if not 0 <= i < self.k:
            raise ValueError(f"band index must lie in [0, {self.k - 1}], got {i}")
        if abs(j) > self.ell - 1:
            raise ValueError(f"color must lie in [{1 - self.ell}, {self.ell - 1}], got {j}")
        return self.counts[i][j + self.ell - 1]


def color_counts(z: PathSequence) -> ColorCountTable:
    """Tally the boxes of each color by the band they fall in, from up-move
    prefix counts (see the module docstring)."""
    ell = z.ell
    colors = range(1 - ell, ell)
    offsets = [max(j, 0) for j in colors]
    below = [[up - off for up, off in zip(p.up_prefix[1:-1], offsets)] for p in z.paths]
    counts = [[ell - abs(j) - b for j, b in zip(colors, below[-1])], below[0]]
    counts += [[b - a for a, b in zip(lower, upper)] for lower, upper in zip(below, below[1:])]
    return ColorCountTable(ell, z.k, counts)
