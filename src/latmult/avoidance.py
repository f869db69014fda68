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
height; each row is a bitset of its letters, packed with the others into
one int per tableau, and a child differs from its parent only in the rows
its bump chain touched. The two share no state, but one contract: each
is a generator over (ell, k) that yields, after each letter placed, the
words counted so far and the layer still open, and works out the r! of
its layer itself. The piles number the insertion rows (Schensted), so
after every letter the two agree on the total and on how many prefixes
are open. Each route has its own guard: 'brute' at
ell <= BRUTE_GUARD_ELL, 'rsk' at ell <= RSK_GUARD_ELL.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import factorial
from typing import Iterator

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


def rsk(w: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion of the word; returns the insertion and recording tableaux.

    Each letter is row-inserted into the first tableau: an incomer bumps the
    smallest entry strictly greater than itself, and the bumped entry carries
    to the next row. The cell it adds (a new last row when it falls off the
    bottom) is recorded in the second tableau with the insertion step number.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(w.word, start=1):
        for p_row, q_row in zip(p_rows, q_rows):
            idx = bisect_right(p_row, x)  # smallest entry strictly greater
            if idx == len(p_row):
                p_row.append(x)
                q_row.append(step)
                break
            p_row[idx], x = x, p_row[idx]
        else:
            p_rows.append([x])
            q_rows.append([step])
    return StandardTableau(p_rows), StandardTableau(q_rows)


def _pile_layers(ell: int, k: int) -> Iterator[tuple[int, dict[tuple[int, ...], int]]]:
    """Words of 1..ell with at most k patience piles, summed over states.

    A state is (r, tops): r letters are left, and tops holds each pile's
    label, the number of unused letters below its top, negated as _pile
    keeps them. Placing the unused letter of rank i piles the label i (a
    top labelled i lies below that letter, as bisect_left on the negated
    keys has it), then every label above i drops by 1, as the letter is
    no longer unused. The states are summed forward, one layer per letter
    placed, each carrying the number of prefixes that reach it. After each
    letter placed, yields the words counted so far, r! for each prefix
    closed by the shortcut, and the layer of states still open.
    """
    total = 0
    layer: dict[tuple[int, ...], int] = {(): 1}  # tops -> prefixes reaching them
    for left in range(ell, 0, -1):
        last = left - 1
        fact = factorial(last)
        below: dict[tuple[int, ...], int] = {}
        for tops, ways in layer.items():
            for i in range(left):
                tails = list(tops)
                _pile(tails, i)
                height = len(tails)
                if height + last <= k:
                    total += ways * fact
                elif height <= k:
                    cut = -i
                    key = tuple(t + 1 if t < cut else t for t in tails)
                    below[key] = below.get(key, 0) + ways
        layer = below
        yield total, layer


def _tableau_layers(ell: int, k: int, start: int = 0) -> Iterator[tuple[int, dict[int, int]]]:
    """The forward sum over insertion tableaux, one layer per letter placed.

    What a prefix can still become depends only on its insertion rows: the
    rows hold exactly the used letters, and the next letter is row-inserted
    into them. So the tableaux are summed forward, each carrying the number
    of prefixes that reach it. A tableau is one int: row r is a bitset at
    bits [r(ell+1), (r+1)(ell+1)), bit x of it set when letter x is in the
    row. A state's rows are read off once; then each unused letter x runs
    its bump chain down them, and the child is the parent's int with only
    the rows the chain touched changed: where x bumps the least entry above
    it, low, that row trades low for x, and where the chain ends, x is set
    (in a new last row when it falls off the bottom). After each letter
    placed, yields the words counted so far, r! for each prefix closed by
    the shortcut, and the layer of tableaux still open. The walk grows from
    the packed tableau start, the empty one unless given, and places the
    letters start lacks.
    """
    total = 0
    width = ell + 1
    mask = (1 << width) - 1
    full = (2 << ell) - 2  # bits 1..ell
    layer = {start: 1}  # packed rows -> prefixes reaching them
    for left in range(ell - start.bit_count(), 0, -1):
        last = left - 1
        fact = factorial(last)
        below: dict[int, int] = {}
        get = below.get
        for state, ways in layer.items():
            rows = []
            rest = state
            while rest:
                rows.append(rest & mask)
                rest >>= width
            height = len(rows)
            top = height * width  # the shift of a new last row
            done = ways * fact
            same_done = height + last <= k
            grown_done = height + 1 + last <= k
            free = full ^ sum(rows)
            while free:
                x = free & -free
                free ^= x
                key = state
                shift = 0
                for row in rows:
                    above = row & -x  # x is not in row: the entries above x
                    if not above:
                        break
                    low = above & -above
                    key ^= (low ^ x) << shift
                    x = low
                    shift += width
                key |= x << shift
                if shift == top:  # x fell off the bottom: one row more
                    if grown_done:
                        total += done
                    elif height < k:
                        below[key] = get(key, 0) + ways
                elif same_done:
                    total += done
                else:
                    below[key] = get(key, 0) + ways
        layer = below
        yield total, layer


def count_avoiders(ell: int, k: int, method: str = "formula", *, allow_large: bool = False) -> int:
    """Permutations of 1..ell with no decreasing subsequence of length k+1.

    Three routes: 'brute' counts patience piles over states of the pile
    tops among the unused letters (their number is the longest decrease),
    'rsk' counts prefixes over their insertion tableaux (the number of rows
    is the tableau height), and 'formula' sums the squared tableau counts
    f_lambda (syt_sum_squares).
    Both slow routes drop a prefix whose statistic is above k, and count r!
    at once for a prefix at h with r letters left when h + r <= k; the
    count is the total its walk yields after the last letter. They agree;
    the slow routes exist as checks, and past ell = BRUTE_GUARD_ELL
    ('brute') or RSK_GUARD_ELL ('rsk') they need allow_large.
    """
    _check_ell_k(ell, k)
    if method == "formula":
        return syt_sum_squares(ell, k)
    routes = {"brute": (_pile_layers, BRUTE_GUARD_ELL), "rsk": (_tableau_layers, RSK_GUARD_ELL)}
    if method not in routes:
        raise ValueError(f"unknown method {method!r}: choose brute, rsk, or formula")
    walk, guard_ell = routes[method]
    check_guard(
        ell <= guard_ell,
        allow_large,
        f"method {method!r} at ell={ell} exceeds its guard (ell <= {guard_ell}); "
        f"method='formula' computes the same count directly",
    )
    for total, _ in walk(ell, k):
        pass  # one layer alive at a time
    return total
