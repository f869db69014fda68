"""Permutations, longest decreasing subsequences, and insertion tableaux."""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import permutations as _all_words

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


def _lds(word) -> int:
    # patience piles on negated values: strictly decreasing runs in the word
    # become strictly increasing runs of keys
    tails: list[int] = []
    for x in word:
        key = -x
        idx = bisect_left(tails, key)
        if idx == len(tails):
            tails.append(key)
        else:
            tails[idx] = key
    return len(tails)


def lds_length(w: Permutation) -> int:
    """Length of the longest strictly decreasing subsequence of w."""
    return _lds(w.word)


def rsk(w: Permutation) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion of the word; returns the insertion and recording tableaux.

    Each incomer bumps the smallest entry strictly greater than itself, and
    the bumped entry carries to the next row; a new cell is recorded in the
    second tableau with the insertion step number.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(w.word, start=1):
        cur = x
        r = 0
        while r < len(p_rows):
            row = p_rows[r]
            idx = bisect_right(row, cur)  # smallest entry strictly greater
            if idx == len(row):
                row.append(cur)
                q_rows[r].append(step)
                break
            row[idx], cur = cur, row[idx]
            r += 1
        else:
            p_rows.append([cur])
            q_rows.append([step])

    def as_tableau(rows: list[list[int]]) -> StandardTableau:
        return StandardTableau(tuple(tuple(r) for r in rows))

    return as_tableau(p_rows), as_tableau(q_rows)


def _insertion_height(word) -> int:
    rows: list[list[int]] = []
    for x in word:
        cur = x
        r = 0
        while r < len(rows):
            row = rows[r]
            idx = bisect_right(row, cur)
            if idx == len(row):
                row.append(cur)
                break
            row[idx], cur = cur, row[idx]
            r += 1
        else:
            rows.append([cur])
    return len(rows)


def count_avoiders(ell: int, k: int, method: str = "formula", *, allow_large: bool = False) -> int:
    """Permutations of 1..ell with no decreasing subsequence of length k+1.

    Three routes: 'brute' filters all ell! words by subsequence length,
    'rsk' filters by insertion tableau height, 'formula' sums squared
    hook-length counts. They agree; the slow routes exist as checks.
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
    words = _all_words(range(1, ell + 1))
    if method == "brute":
        return sum(1 for word in words if _lds(word) <= k)
    return sum(1 for word in words if _insertion_height(word) <= k)
