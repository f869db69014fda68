"""Reference answers computed without the latmult package.

Each routine takes a different route from the library's, so agreement is
evidence rather than repetition: partitions come from a plain recursive
generator, standard tableau counts from the branching rule (remove one
corner cell) instead of the hook length formula, decreasing subsequences
from a quadratic dynamic program instead of patience sorting.
"""

from bisect import bisect_right


def partitions(n: int, max_height: int) -> list[tuple[int, ...]]:
    """Partitions of n with at most max_height parts, largest part first."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) == max_height:
            return
        for part in range(min(remaining, cap), 0, -1):
            grow(prefix + (part,), remaining - part, part)

    grow((), n, n)
    return out


class TableauCounts:
    """Standard filling counts by the branching rule, memoised per instance:
    the largest entry of a standard filling sits in a corner cell."""

    def __init__(self) -> None:
        self._memo: dict[tuple[int, ...], int] = {(): 1}

    def f(self, shape: tuple[int, ...]) -> int:
        known = self._memo.get(shape)
        if known is not None:
            return known
        total = 0
        for i, row in enumerate(shape):
            if i + 1 == len(shape) or shape[i + 1] < row:
                smaller = shape[:i] + (row - 1,) + shape[i + 1:]
                total += self.f(smaller if row > 1 else shape[:i])
        self._memo[shape] = total
        return total

    def square_sums(self, ell: int, k: int) -> tuple[int, int]:
        """(sum of f, sum of f squared) over partitions of ell with at most k rows."""
        fs = [self.f(lam) for lam in partitions(ell, k)]
        return sum(fs), sum(f * f for f in fs)


def lds(word) -> int:
    """Longest strictly decreasing subsequence by the O(n^2) recurrence."""
    best = [1] * len(word)
    for j in range(len(word)):
        for i in range(j):
            if word[i] > word[j] and best[i] + 1 > best[j]:
                best[j] = best[i] + 1
    return max(best, default=0)


def recording_tableau(word) -> list[list[int]]:
    """Rows of the row-insertion recording tableau of a permutation word."""
    inserted: list[list[int]] = []
    recorded: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        r = 0
        while True:
            if r == len(inserted):
                inserted.append([x])
                recorded.append([step])
                break
            row = inserted[r]
            idx = bisect_right(row, x)
            if idx == len(row):
                row.append(x)
                recorded[r].append(step)
                break
            row[idx], x = x, row[idx]
            r += 1
    return recorded


def weight_data(n: int, k: int, ell: int) -> tuple[list[int], list[int]]:
    """Root coefficients of the ell-th family member and the coroot pairings
    of level-k basic weight minus that root, for the affine type-A Cartan
    matrix on n nodes (2 on the diagonal, -1 between cyclic neighbours)."""
    coeffs = [0] * n
    coeffs[0] = ell
    for i in range(1, ell):
        coeffs[i] = coeffs[n - i] = ell - i
    pairings = [
        (k if i == 0 else 0) - (2 * coeffs[i] - coeffs[i - 1] - coeffs[(i + 1) % n])
        for i in range(n)
    ]
    return coeffs, pairings
