"""Permutations, longest decreasing subsequences, and insertion tableaux.

The slow avoider counts are two independent checks of the formula. Both
rest on two facts: the statistic never falls as letters are added, so a
prefix above k is dropped with all its completions; and one letter raises
it by at most 1, so a prefix at h with r letters left counts r! at once
when h + r <= k.

'brute' sorts into patience piles, and what a prefix can still become
depends only on how the pile tops sit among the unused letters. So it walks
states (r, tops), where tops labels each pile with the number of unused
letters below its top, and counts each state once: a polynomial walk for
fixed k. 'rsk' walks the prefix tree of the ell! words depth first,
placing each letter once in the insertion rows on the way down and taking
it back on the way up, and reads the tableau height. Each route has its own
guard: 'brute' at ell <= BRUTE_GUARD_ELL, 'rsk' at ell <= RSK_GUARD_ELL.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from latmult.guards import check_guard
from latmult.partitions import _check_ell_k, syt_sum_squares
from latmult.tableaux import StandardTableau

BRUTE_GUARD_ELL = 10
RSK_GUARD_ELL = 9


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


def _pile(tails: list[int], x: int) -> None:
    # one patience step on negated values: strictly decreasing runs in the
    # word become strictly increasing runs of keys, so len(tails) is the
    # longest decrease so far
    key = -x
    idx = bisect_left(tails, key)
    if idx == len(tails):
        tails.append(key)
    else:
        tails[idx] = key


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


def _count_piles(ell: int, k: int, factorial: list[int]) -> int:
    """Words of 1..ell with at most k patience piles, counted over states.

    A state is (r, tops): r letters are left, and tops holds each pile's
    label, the number of unused letters below its top, negated as _pile
    keeps them. Placing the unused letter of rank i piles the label i (a
    top labelled i lies below that letter, as bisect_left on the negated
    keys has it), then every label above i drops by 1, as the letter is
    no longer unused.
    """
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def walk(left: int, tops: tuple[int, ...]) -> int:
        key = (left, tops)
        if key in memo:
            return memo[key]
        total = 0
        last = left - 1
        for i in range(left):
            tails = list(tops)
            _pile(tails, i)
            height = len(tails)
            if height + last <= k:
                total += factorial[last]
            elif height <= k:
                cut = -i
                total += walk(last, tuple(t + 1 if t < cut else t for t in tails))
        memo[key] = total
        return total

    return walk(ell, ())


def _count_words(ell: int, k: int, factorial: list[int]) -> int:
    """Words of 1..ell whose insertion tableau has at most k rows.

    Walks the prefix tree depth first, row-inserting each letter on the way
    down and taking it back on the way up.
    """
    rows: list[list[int]] = []
    free = list(range(1, ell + 1))  # free[:left] are the unused letters

    def walk(left: int) -> int:
        # the prefix in rows has left letters to go and cannot be counted
        # at once; each letter that keeps it at most k is tried in turn
        total = 0
        last = left - 1
        for i in range(left):
            x = free[i]
            free[i] = free[last]
            free[last] = x
            inserted = _row_insert(rows, x)
            height = len(rows)
            if height + last <= k:
                total += factorial[last]
            elif height <= k:
                total += walk(last)
            _row_uninsert(rows, inserted)
            free[last] = free[i]
            free[i] = x
        return total

    return walk(ell)


def count_avoiders(ell: int, k: int, method: str = "formula", *, allow_large: bool = False) -> int:
    """Permutations of 1..ell with no decreasing subsequence of length k+1.

    Three routes: 'brute' counts patience piles over states of the pile
    tops among the unused letters (their number is the longest decrease),
    'rsk' walks the prefix tree of the ell! words carrying insertion rows
    (their number is the tableau height), and 'formula' sums squared
    hook-length counts. Both walks drop a prefix whose statistic is above
    k, and count r! at once for a prefix at h with r letters left when
    h + r <= k. They agree; the slow routes exist as checks, and past
    ell = BRUTE_GUARD_ELL ('brute') or RSK_GUARD_ELL ('rsk') they need
    allow_large.
    """
    _check_ell_k(ell, k)
    if method == "formula":
        return syt_sum_squares(ell, k)
    routes = {"brute": (_count_piles, BRUTE_GUARD_ELL), "rsk": (_count_words, RSK_GUARD_ELL)}
    if method not in routes:
        raise ValueError(f"unknown method {method!r}: choose brute, rsk, or formula")
    count, guard_ell = routes[method]
    check_guard(
        ell <= guard_ell,
        allow_large,
        f"method {method!r} at ell={ell} exceeds its guard (ell <= {guard_ell}); "
        f"method='formula' computes the same count directly",
    )
    factorial = [1]
    for r in range(1, ell + 1):
        factorial.append(factorial[-1] * r)
    return count(ell, k, factorial)
