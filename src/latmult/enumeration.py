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

The search hands raw move strings to its visitor. Counting needs nothing
more; only the enumerate_* wrappers build PathSequence objects.
"""

from typing import Callable

from latmult.admissibility import _successors, _type_parts
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
        entry = tallies[_type_parts([s.count("U", 0, ell) for s in moves], ell)]
        entry[0] += 1
        entry[1] += _self_conjugate(moves)

    visit_admissible(ell, k, tally)
    return {lam: tuple(tallies[lam.parts]) for lam in shapes}
