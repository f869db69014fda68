"""Permutations, longest decreasing subsequences, and insertion tableaux.

The slow avoider counts walk the prefix tree of the words of 1..ell depth
first, placing each letter once on the way down and taking it back on the
way up: 'brute' carries patience piles, 'rsk' carries insertion rows, and
each reads its own statistic off its own state. Two facts prune the walk.
The statistic never falls as letters are added, so a prefix above k is
dropped with all its completions; one letter raises it by at most 1, so a
prefix at h with r letters left counts r! at once when h + r <= k. Both
routes stay behind the guard at ell <= BRUTE_GUARD_ELL.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from latmult.guards import check_guard
from latmult.partitions import _check_ell_k, syt_sum_squares
from latmult.tableaux import StandardTableau

BRUTE_GUARD_ELL = 10


@dataclass(frozen=True)
class Permutation:
    """A word w1..wn rearranging 1..n."""

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if not word:
            raise ValueError("empty word")
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation of 1..{len(word)}: {word!r}")

    @property
    def size(self) -> int:
        return len(self.word)


def _pile(tails: list[int], x: int) -> tuple[int, int | None]:
    # one patience step on negated values: strictly decreasing runs in the
    # word become strictly increasing runs of keys, so len(tails) is the
    # longest decrease so far; returns what _unpile needs to take it back
    key = -x
    idx = bisect_left(tails, key)
    if idx == len(tails):
        tails.append(key)
        return idx, None
    old = tails[idx]
    tails[idx] = key
    return idx, old


def _unpile(tails: list[int], placed: tuple[int, int | None]) -> None:
    idx, old = placed
    if old is None:
        tails.pop()
    else:
        tails[idx] = old


def lds_length(w: Permutation) -> int:
    """Length of the longest strictly decreasing subsequence of w."""
    tails: list[int] = []
    for x in w.word:
        _pile(tails, x)
    return len(tails)


def _row_insert(rows: list[list[int]], x: int) -> tuple[list[int], list[int]]:
    """Schensted row insertion of x into rows, in place.

    Each incomer bumps the smallest entry strictly greater than itself, and
    the bumped entry carries to the next row. Returns the row that grew
    (a new last row when x fell off the bottom) and the column of each
    bump, one per row passed, so the grown row's index is len(bumps).
    """
    bumps: list[int] = []
    for row in rows:
        idx = bisect_right(row, x)  # smallest entry strictly greater
        if idx == len(row):
            row.append(x)
            return row, bumps
        row[idx], x = x, row[idx]
        bumps.append(idx)
    grown = [x]
    rows.append(grown)
    return grown, bumps


def _row_uninsert(rows: list[list[int]], inserted: tuple[list[int], list[int]]) -> None:
    # undo _row_insert: take the new cell back and replay the bumps upward
    grown, bumps = inserted
    cur = grown.pop()
    if not grown:
        rows.pop()
    r = len(bumps)
    while r:
        r -= 1
        row = rows[r]
        idx = bumps[r]
        row[idx], cur = cur, row[idx]


def rsk(w: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion of the word; returns the insertion and recording tableaux.

    Each letter is row-inserted into the first tableau, and the cell it
    adds is recorded in the second tableau with the insertion step number.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(w.word, start=1):
        _, bumps = _row_insert(p_rows, x)
        grown = len(bumps)
        if grown == len(q_rows):
            q_rows.append([step])
        else:
            q_rows[grown].append(step)

    def as_tableau(rows: list[list[int]]) -> StandardTableau:
        return StandardTableau(tuple(tuple(r) for r in rows))

    return as_tableau(p_rows), as_tableau(q_rows)


def _count_words(ell: int, k: int, place, unplace) -> int:
    """Words of 1..ell whose statistic len(state) stays at most k.

    place(state, x) adds letter x to the state and returns what
    unplace(state, ...) needs to take it back. The statistic must never
    fall as letters are added and rise by at most 1 per letter, which is
    what lets the walk prune (see the module docstring).
    """
    state: list = []
    factorial = [1]
    for r in range(1, ell + 1):
        factorial.append(factorial[-1] * r)
    free = list(range(1, ell + 1))  # free[:left] are the unused letters

    def walk(left: int) -> int:
        # the prefix in state has left letters to go and cannot be counted
        # at once; each letter that keeps it at most k is tried in turn
        total = 0
        last = left - 1
        for i in range(left):
            x = free[i]
            free[i] = free[last]
            free[last] = x
            placed = place(state, x)
            height = len(state)
            if height + last <= k:
                total += factorial[last]
            elif height <= k:
                total += walk(last)
            unplace(state, placed)
            free[last] = free[i]
            free[i] = x
        return total

    return factorial[ell] if ell <= k else walk(ell)


def count_avoiders(ell: int, k: int, method: str = "formula", *, allow_large: bool = False) -> int:
    """Permutations of 1..ell with no decreasing subsequence of length k+1.

    Three routes: 'brute' walks the prefix tree of the ell! words carrying
    patience piles (their number is the longest decrease so far), 'rsk'
    walks it carrying insertion rows (their number is the tableau height),
    and 'formula' sums squared hook-length counts. A walk drops a prefix
    whose statistic is above k, and counts r! at once for a prefix at h
    with r letters left when h + r <= k. They agree; the slow routes exist
    as checks, and past ell = BRUTE_GUARD_ELL they need allow_large.
    """
    _check_ell_k(ell, k)
    if method == "formula":
        return syt_sum_squares(ell, k)
    if method not in ("brute", "rsk"):
        raise ValueError(f"unknown method {method!r}: choose brute, rsk, or formula")
    check_guard(
        ell <= BRUTE_GUARD_ELL,
        allow_large,
        f"method {method!r} walks {ell}! words (guard: ell <= {BRUTE_GUARD_ELL}); "
        f"method='formula' computes the same count directly",
    )
    if method == "brute":
        return _count_words(ell, k, _pile, _unpile)
    return _count_words(ell, k, _row_insert, _row_uninsert)
