"""Exhaustive enumeration of admissible sequences, move by move over up-count states.

Naively filtering all (k-1)-tuples of paths dies quickly: the tuple space
grows like binomial(2*ell, ell)**(k-1). Instead all k-1 paths advance
together, one move at a time. After move m the search is in the state
s = (u_1, ..., u_{k-1}), the paths' up-move counts so far; nesting makes it
weakly increasing, so a layer holds at most binomial(ell + k - 1, k - 1)
states (15 at most at ell 8, k 4).

Move m = ell + j fixes every band's tally on color j, and every clause on
color j reads only those and the tallies on color j - 1, which the state
after move m - 1 holds. So which columns of moves may follow, and which
state each leads to, depends only on (m, s): admissibility._successors
grows them with the clause step is_admissible replays. The search builds
each (m, s)'s list once, in a memo local to the call, and _walk walks the
tree of columns depth first through it. Nothing is shared between calls.

Self-conjugate sequences need only moves 1..ell. Reflecting every path
swaps colors j and -j and keeps each band and the up-counts after move ell,
so on a sequence equal to its mirror each clause at color j > 0 is the one
at -j, and the diagonal after move m > ell is the one after 2 * ell - m.
Each admissible half (_halves) thus completes to exactly one self-conjugate
admissible sequence, paths._mirrored's, and has its type.

The search hands raw move strings to its visitor. Counting needs nothing
more; only the enumerate_* wrappers build PathSequence objects.
"""

from functools import partial
from typing import Callable

from latmult.admissibility import _successors, _type_parts
from latmult.guards import check_guard
from latmult.partitions import Partition, _check_ell_k, partitions_of
from latmult.paths import LatticePath, PathSequence, _mirrored

GUARD_ELL = 6
GUARD_K = 5


def _check_size(ell: int, k: int, allow_large: bool) -> None:
    _check_ell_k(ell, k)
    check_guard(
        ell <= GUARD_ELL and k <= GUARD_K,
        allow_large,
        f"enumeration at ell={ell}, k={k} exceeds the default guard (ell <= {GUARD_ELL}, k <= {GUARD_K})",
    )


def _walk(ell: int, m: int, s: tuple[int, ...], memo: dict, columns: list, visit: Callable) -> None:
    succ = memo.get((m, s))
    if succ is None:
        succ = memo[(m, s)] = _successors(ell, m, s)
    for column, nxt in succ:
        columns[m - 1] = column
        if m == len(columns):
            visit(tuple(map("".join, zip(*columns))))
        else:
            _walk(ell, m + 1, nxt, memo, columns, visit)


def visit_admissible(ell: int, k: int, visit: Callable[[tuple[str, ...]], None]) -> None:
    """Stream each admissible sequence exactly once, order unspecified, to
    visit as its tuple of move strings, first path first.

    No size guard is applied here; the list building wrappers own that.
    """
    _check_ell_k(ell, k)
    _walk(ell, 1, (0,) * (k - 1), {}, [()] * (2 * ell), visit)


def _halves(ell: int, k: int) -> list[tuple[str, ...]]:
    """The first ell moves of every self-conjugate admissible sequence."""
    found: list[tuple[str, ...]] = []
    _walk(ell, 1, (0,) * (k - 1), {}, [()] * ell, found.append)
    return found


def enumerate_admissible(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """Every admissible sequence of k-1 nested paths, in lexicographic order
    of the concatenated move strings: tuple order, as all have length 2 * ell."""
    _check_size(ell, k, allow_large)
    found: list[tuple[str, ...]] = []
    visit_admissible(ell, k, found.append)
    return [PathSequence(tuple(LatticePath(s) for s in moves)) for moves in sorted(found)]


def enumerate_self_conjugate(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """The reflection-fixed subset of enumerate_admissible, same order: a
    mirrored half orders as the half does, so the halves are sorted."""
    _check_size(ell, k, allow_large)
    return [_mirrored(half) for half in sorted(_halves(ell, k))]


def count_sequences(ell: int, k: int, *, allow_large: bool = False) -> tuple[int, int]:
    """(admissible, self-conjugate) totals: the search's visits, not listed,
    and the length of the list of halves."""
    _check_size(ell, k, allow_large)
    admissible = 0

    def tally(moves: tuple[str, ...]) -> None:
        nonlocal admissible
        admissible += 1

    visit_admissible(ell, k, tally)
    return admissible, len(_halves(ell, k))


def count_by_type(ell: int, k: int, *, allow_large: bool = False) -> dict[Partition, tuple[int, int]]:
    """Per-partition tallies: (admissible count, self-conjugate count).

    Keys are exactly partitions_of(ell, k) in their canonical order.
    """
    _check_size(ell, k, allow_large)
    shapes = partitions_of(ell, k)
    tallies = {lam.parts: [0, 0] for lam in shapes}

    def tally(column: int, moves: tuple[str, ...]) -> None:
        tallies[_type_parts([s.count("U", 0, ell) for s in moves], ell)][column] += 1

    visit_admissible(ell, k, partial(tally, 0))
    for half in _halves(ell, k):
        tally(1, half)
    return {lam: tuple(tallies[lam.parts]) for lam in shapes}
