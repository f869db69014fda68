"""Integer partitions, hook lengths, and exact standard-filling counts.

Everything here is exact: counts are Python integers, and a quotient is
used only once its remainder has been checked to be 0. count_syt uses
Frobenius' product over the rows or, for a shape taller than wide, the
columns; the hook lengths are kept as an independent description of the
same count.
"""

from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts, the shape of a Young diagram."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError("partition needs at least one part")
        if any(not isinstance(p, int) or p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive integers: {self.parts!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts!r}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def partitions_of(ell: int, max_height: int) -> list[Partition]:
    """All partitions of ell with at most max_height parts, reverse-lex order.

    >>> [p.parts for p in partitions_of(5, 4)]
    [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if max_height < 1:
        raise ValueError(f"max_height must be >= 1, got {max_height}")
    out: list[Partition] = []
    parts = [ell]
    while True:
        out.append(Partition(tuple(parts)))
        # step to the next partition in reverse-lex order: lower the last
        # part that can drop by one, to q, and refill what follows greedily
        # with parts q and one smaller tail; a part can drop when the parts
        # after it, plus the unit it gives up, fit in the slots left, q each
        rest = 0  # the sum of the parts after i
        for i in range(len(parts) - 1, -1, -1):
            q = parts[i] - 1
            if rest < q * (max_height - i - 1):
                break
            rest += parts[i]
        else:
            return out
        full, tail = divmod(rest + 1, q)
        parts[i:] = [q] * (full + 1)
        if tail:
            parts.append(tail)


def conjugate(lam: Partition) -> Partition:
    """Column lengths of the diagram of lam."""
    cols = tuple(sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0]))
    return Partition(cols)


def hook_lengths(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box, row-major: arm plus leg plus one."""
    cols = conjugate(lam).parts
    return tuple(
        tuple(row_len + cols[j] - i - j - 1 for j in range(row_len))
        for i, row_len in enumerate(lam.parts)
    )


def count_syt(lam: Partition) -> int:
    """Number of standard fillings of lam by Frobenius' product formula.

    With h parts and shifted parts l_i = lam_i + h - 1 - i, the count is
    n! * prod_{i<j} (l_i - l_j) / prod_i l_i! (Frobenius 1900; Fulton,
    Young Tableaux, ch. 4): h(h-1)/2 differences and h factorials. As
    f_lam = f_lam', a shape taller than wide is counted by its columns.
    """
    parts = lam.parts
    if len(parts) > parts[0]:
        # the column lengths, read off the rows from the bottom up
        cols: list[int] = []
        for i in range(len(parts) - 1, -1, -1):
            cols += [i + 1] * (parts[i] - len(cols))
        parts = cols
    h = len(parts)
    shifted = [p + h - 1 - i for i, p in enumerate(parts)]
    numer, denom = factorial(lam.size), 1
    for i, a in enumerate(shifted):
        denom *= factorial(a)
        for b in shifted[i + 1:]:
            numer *= a - b
    f, rem = divmod(numer, denom)
    if rem:
        # the factorials always divide the product; a remainder means a bug
        raise RuntimeError(f"factorial product {denom} does not divide {numer}")
    return f


def _check_ell_k(ell: int, k: int) -> None:
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")


def syt_sum(ell: int, k: int) -> int:
    """Sum of count_syt over all partitions of ell with height at most k."""
    _check_ell_k(ell, k)
    return sum(count_syt(lam) for lam in partitions_of(ell, k))


def syt_sum_squares(ell: int, k: int) -> int:
    """Sum of count_syt squared over all partitions of ell with height at most k."""
    _check_ell_k(ell, k)
    return sum(count_syt(lam) ** 2 for lam in partitions_of(ell, k))
