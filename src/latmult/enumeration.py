"""Exhaustive enumeration of admissible sequences with incremental pruning.

Naively filtering all (k-1)-tuples of paths dies quickly: the tuple space
grows like binomial(2*ell, ell)**(k-1). Instead paths are grown depth first,
move by move, and every defining condition is checked the instant the moves
determining it are fixed: band tallies are differences of up-move prefix
counts (see the paths module docstring), so move m = ell + j fixes each
band's tally on color j.

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


def visit_admissible(ell: int, k: int, visit: Callable[[tuple[str, ...]], None]) -> None:
    """Stream every admissible sequence to visit as its tuple of move
    strings, first path first, in canonical order.

    Canonical order is lexicographic on the concatenated move strings, which
    the search produces directly by growing paths in index order and trying
    'R' before 'U' at every move. No size guard is applied here; the list
    building wrappers own that.
    """
    _check_ell_k(ell, k)
    total = 2 * ell
    n_colors = total - 1
    finished: list[str] = []

    def grow_path(i: int, prev_up, band_prev, room) -> None:
        # i: 1-based path index. prev_up: up-move prefix counts of path i-1.
        # band_prev: color tallies of band i-1. room[jx]: the budget band i
        # may spend on color index jx (see _band_fits).
        moves = [""] * total
        ups = [0] * (total + 1)
        band_cur = [0] * n_colors

        def step(m: int) -> None:
            if m > total:
                finished.append("".join(moves))
                if i == k - 1:
                    visit(tuple(finished))
                else:
                    paid = 2 if i == 1 else 1  # band 1 counts twice in every budget
                    next_room = tuple(r - paid * t for r, t in zip(room, band_cur))
                    grow_path(i + 1, tuple(ups), tuple(band_cur), next_room)
                finished.pop()
                return
            before = ups[m - 1]
            for mv, u in (("R", before), ("U", before + 1)):
                if u > ell or m - u > ell:  # up or right moves exhausted
                    continue
                if i == 1:
                    if 2 * u > m:  # first path may not cross the anti-diagonal
                        continue
                elif u < prev_up[m]:  # nesting above the previous path
                    continue
                if m < total:
                    # move m fixes this path's band tally on color j = m - ell
                    jx = m - 1
                    if i == 1:
                        t = u - max(m - ell, 0)
                    else:
                        t = u - prev_up[m]
                        left = band_cur[jx - 1] if jx else 0
                        if not _band_fits(m - ell, t, left, band_prev[jx], room[jx]):
                            continue
                    band_cur[jx] = t
                moves[m - 1] = mv
                ups[m] = u
                step(m + 1)

        step(1)

    try:
        grow_path(1, (), (), tuple(ell - abs(jx - ell + 1) for jx in range(n_colors)))
    finally:
        # the recursive closures above are cycles that only the cycle
        # collector frees; they must not keep the caller's results alive
        visit = None


def _sequence(moves: tuple[str, ...]) -> PathSequence:
    return PathSequence(tuple(LatticePath(s) for s in moves))


def enumerate_admissible(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """Every admissible sequence of k-1 nested paths, canonically ordered."""
    _check_size(ell, k, allow_large)
    out: list[PathSequence] = []
    visit_admissible(ell, k, lambda moves: out.append(_sequence(moves)))
    return out


def enumerate_self_conjugate(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """The reflection-fixed subset of enumerate_admissible, same order."""
    _check_size(ell, k, allow_large)
    out: list[PathSequence] = []

    def keep(moves: tuple[str, ...]) -> None:
        if _self_conjugate(moves):
            out.append(_sequence(moves))

    visit_admissible(ell, k, keep)
    return out


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
