"""Exhaustive enumeration of admissible sequences, move by move over up-count states.

Naively filtering all (k-1)-tuples of paths dies quickly: the tuple space
grows like binomial(2*ell, ell)**(k-1). Instead all k-1 paths advance
together, one move at a time. After move m the search is in the state
s = (u_1, ..., u_{k-1}), the paths' up-move counts so far; nesting makes it
weakly increasing, so a layer holds at most binomial(ell + k - 1, k - 1)
states (15 at most at ell 8, k 4).

Band tallies are differences of up-move prefix counts (see the paths module
docstring), so move m = ell + j fixes every band's tally on color j, and
every clause on color j reads only those tallies and the tallies on color
j - 1, which are read off the counts after move m - 1. So which columns of
moves may follow, and which state each leads to, depends only on (m, s),
whatever the paths did before. The search builds each (m, s)'s successor
list once, in a memo local to the call, and walks the tree of columns
depth first through it. Nothing is shared between calls.

The search hands raw move strings to its visitor. Counting needs nothing
more; only the enumerate_* wrappers build PathSequence objects.
"""

from typing import Callable

from latmult.admissibility import _band_fits, _type_parts
from latmult.guards import check_guard
from latmult.partitions import Partition, _check_ell_k, partitions_of
from latmult.paths import LatticePath, PathSequence, _self_conjugate

GUARD_ELL = 6
GUARD_K = 5


def _check_size(ell: int, k: int, allow_large: bool) -> None:
    _check_ell_k(ell, k)
    check_guard(
        ell <= GUARD_ELL and k <= GUARD_K,
        allow_large,
        f"enumeration at ell={ell}, k={k} exceeds the default guard (ell <= {GUARD_ELL}, k <= {GUARD_K})",
    )


def _successors(ell: int, m: int, s: tuple[int, ...]) -> list[tuple[tuple[str, ...], tuple[int, ...]]]:
    """The (column, next state) pairs of move m out of state s, the paths'
    up-move counts after move m - 1. column[i] is path i+1's move, and only
    columns passing every clause move m decides are kept.

    The column grows one path at a time in index order, and a partial column
    is dropped at its first failing clause, so the 2**(k-1) product of moves
    is never formed.
    """
    # the color move m fixes; the last move fixes none, but there every
    # tally and budget is 0, so every clause below holds
    j = m - ell
    # partial columns: (moves, counts, the last band's tally at j, the
    # budget the next band may spend on color j; see _band_fits)
    partial: list[tuple[tuple[str, ...], tuple[int, ...], int, int]] = [((), (), 0, 0)]
    for i, before in enumerate(s):
        left = before - s[i - 1] if i else 0  # band i+1's tally at color j - 1
        grown = []
        for moves, counts, prev, room in partial:
            for mv, u in (("R", before), ("U", before + 1)):
                if u > ell or m - u > ell:  # up or right moves exhausted
                    continue
                if i == 0:
                    if 2 * u > m:  # first path may not cross the anti-diagonal
                        continue
                    t = u - max(j, 0)
                    rest = ell - abs(j) - 2 * t  # band 1 counts twice in every budget
                else:
                    if u < counts[-1]:  # nesting above the previous path
                        continue
                    t = u - counts[-1]
                    if not _band_fits(j, t, left, prev, room):
                        continue
                    rest = room - t
                grown.append((moves + (mv,), counts + (u,), t, rest))
        partial = grown
    return [(moves, counts) for moves, counts, _, _ in partial]


def visit_admissible(ell: int, k: int, visit: Callable[[tuple[str, ...]], None]) -> None:
    """Stream each admissible sequence exactly once, order unspecified, to
    visit as its tuple of move strings, first path first.

    No size guard is applied here; the list building wrappers own that.
    """
    _check_ell_k(ell, k)
    total = 2 * ell
    memo: dict[tuple[int, tuple[int, ...]], list] = {}
    columns: list[tuple[str, ...]] = [()] * total

    def walk(m: int, s: tuple[int, ...]) -> None:
        succ = memo.get((m, s))
        if succ is None:
            succ = memo[(m, s)] = _successors(ell, m, s)
        for column, nxt in succ:
            columns[m - 1] = column
            if m == total:
                visit(tuple(map("".join, zip(*columns))))
            else:
                walk(m + 1, nxt)

    try:
        walk(1, (0,) * (k - 1))
    finally:
        # walk refers to itself through its closure, a cycle only the cycle
        # collector frees; it must not keep the caller's results alive
        walk = None


def _sorted_sequences(found: list[tuple[str, ...]]) -> list[PathSequence]:
    """PathSequence objects in canonical order: lexicographic on the
    concatenated move strings, which is tuple order, as every string has
    length 2 * ell."""
    return [PathSequence(tuple(LatticePath(s) for s in moves)) for moves in sorted(found)]


def enumerate_admissible(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """Every admissible sequence of k-1 nested paths, canonically ordered."""
    _check_size(ell, k, allow_large)
    found: list[tuple[str, ...]] = []
    visit_admissible(ell, k, found.append)
    return _sorted_sequences(found)


def enumerate_self_conjugate(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """The reflection-fixed subset of enumerate_admissible, same order."""
    _check_size(ell, k, allow_large)
    found: list[tuple[str, ...]] = []

    def keep(moves: tuple[str, ...]) -> None:
        if _self_conjugate(moves):
            found.append(moves)

    visit_admissible(ell, k, keep)
    return _sorted_sequences(found)


def count_sequences(ell: int, k: int, *, allow_large: bool = False) -> tuple[int, int]:
    """(admissible, self-conjugate) totals without materializing the lists."""
    _check_size(ell, k, allow_large)
    admissible = conjugate_fixed = 0

    def tally(moves: tuple[str, ...]) -> None:
        nonlocal admissible, conjugate_fixed
        admissible += 1
        conjugate_fixed += _self_conjugate(moves)

    visit_admissible(ell, k, tally)
    return admissible, conjugate_fixed


def count_by_type(ell: int, k: int, *, allow_large: bool = False) -> dict[Partition, tuple[int, int]]:
    """Per-partition tallies: (admissible count, self-conjugate count).

    Keys are exactly partitions_of(ell, k) in their canonical order.
    """
    _check_size(ell, k, allow_large)
    shapes = partitions_of(ell, k)
    tallies = {lam.parts: [0, 0] for lam in shapes}

    def tally(moves: tuple[str, ...]) -> None:
        # a path has up_prefix[ell] color-zero boxes below it
        below = [s.count("U", 0, ell) for s in moves]
        column = [ell - below[-1], below[0]] + [b - a for a, b in zip(below, below[1:])]
        entry = tallies[_type_parts(column, ell)]
        entry[0] += 1
        entry[1] += _self_conjugate(moves)

    visit_admissible(ell, k, tally)
    return {lam: tuple(tallies[lam.parts]) for lam in shapes}
