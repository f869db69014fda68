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
fixed k. 'rsk' carries insertion rows instead, since what a prefix can
still become depends only on its insertion tableau (the rows hold the used
letters, and the next letter is row-inserted into them). So it sums
tableaux forward, one layer per letter placed, and reads the tableau
height; each row is a bitset of its letters, so a tableau is one tuple of
ints. The two share no state. Each route has its own guard: 'brute' at
ell <= BRUTE_GUARD_ELL, 'rsk' at ell <= RSK_GUARD_ELL.
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


def _row_insert(rows: list[list[int]], x: int) -> int:
    """Schensted row insertion of x into rows, in place.

    Each incomer bumps the smallest entry strictly greater than itself, and
    the bumped entry carries to the next row. Returns the index of the row
    that grew (a new last row when x fell off the bottom).
    """
    for i, row in enumerate(rows):
        idx = bisect_right(row, x)  # smallest entry strictly greater
        if idx == len(row):
            row.append(x)
            return i
        row[idx], x = x, row[idx]
    rows.append([x])
    return len(rows) - 1


def rsk(w: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion of the word; returns the insertion and recording tableaux.

    Each letter is row-inserted into the first tableau, and the cell it
    adds is recorded in the second tableau with the insertion step number.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(w.word, start=1):
        grown = _row_insert(p_rows, x)
        if grown == len(q_rows):
            q_rows.append([step])
        else:
            q_rows[grown].append(step)
    return StandardTableau(p_rows), StandardTableau(q_rows)


def _count_piles(ell: int, k: int, factorial: list[int]) -> int:
    """Words of 1..ell with at most k patience piles, counted over states.

    A state is (r, tops): r letters are left, and tops holds each pile's
    label, the number of unused letters below its top, negated as _pile
    keeps them. Placing the unused letter of rank i piles the label i (a
    top labelled i lies below that letter, as bisect_left on the negated
    keys has it), then every label above i drops by 1, as the letter is
    no longer unused. The states are summed forward, one layer per letter
    placed, each carrying the number of prefixes that reach it.
    """
    total = 0
    layer: dict[tuple[int, ...], int] = {(): 1}  # tops -> prefixes reaching them
    for left in range(ell, 0, -1):
        last = left - 1
        below: dict[tuple[int, ...], int] = {}
        for tops, ways in layer.items():
            for i in range(left):
                tails = list(tops)
                _pile(tails, i)
                height = len(tails)
                if height + last <= k:
                    total += ways * factorial[last]
                elif height <= k:
                    cut = -i
                    key = tuple(t + 1 if t < cut else t for t in tails)
                    below[key] = below.get(key, 0) + ways
        layer = below
    return total


def _bit_insert(rows: tuple[int, ...], x: int) -> list[int]:
    # _row_insert on bitset rows, the letter x given as its bit: the
    # smallest entry strictly greater than the incomer is the lowest bit of
    # the row above it
    grown = list(rows)
    for r, row in enumerate(grown):
        above = row & -(x << 1)
        if not above:
            grown[r] = row | x
            return grown
        low = above & -above
        grown[r] = row ^ low | x
        x = low
    grown.append(x)
    return grown


def _count_words(ell: int, k: int, factorial: list[int]) -> int:
    """Words of 1..ell with at most k insertion rows, counted over tableaux.

    What a prefix can still become depends only on its insertion rows: the
    rows hold exactly the used letters, and the next letter is row-inserted
    into them. So the rows are summed forward, one layer per letter placed,
    each carrying the number of prefixes that reach them. Each row is a
    bitset, bit x set when letter x is in it, and a state is the tuple of
    its rows: the unused letters are the bits missing from their sum, and
    _bit_insert builds each child as a new tuple.
    """
    total = 0
    full = (2 << ell) - 2  # bits 1..ell
    layer: dict[tuple[int, ...], int] = {(): 1}  # rows -> prefixes reaching them
    for left in range(ell, 0, -1):
        last = left - 1
        below: dict[tuple[int, ...], int] = {}
        for rows, ways in layer.items():
            free = full ^ sum(rows)
            while free:
                x = free & -free
                free ^= x
                grown = _bit_insert(rows, x)
                height = len(grown)
                if height + last <= k:
                    total += ways * factorial[last]
                elif height <= k:
                    key = tuple(grown)
                    below[key] = below.get(key, 0) + ways
        layer = below
    return total


def count_avoiders(ell: int, k: int, method: str = "formula", *, allow_large: bool = False) -> int:
    """Permutations of 1..ell with no decreasing subsequence of length k+1.

    Three routes: 'brute' counts patience piles over states of the pile
    tops among the unused letters (their number is the longest decrease),
    'rsk' counts prefixes over their insertion tableaux (the number of rows
    is the tableau height), and 'formula' sums the squared tableau counts
    f_lambda (syt_sum_squares).
    Both slow routes drop a prefix whose statistic is above k, and count r!
    at once for a prefix at h with r letters left when h + r <= k. They
    agree; the slow routes exist as checks, and past ell = BRUTE_GUARD_ELL
    ('brute') or RSK_GUARD_ELL ('rsk') they need allow_large.
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
