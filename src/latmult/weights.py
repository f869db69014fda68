"""Affine type-A Cartan data, the symmetric root family, and weight pairings.

Weights are tracked additively through their pairings with the coroots, so
everything stays in exact integers.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from latmult.partitions import syt_sum_squares


@dataclass(frozen=True)
class AffineCartan:
    """The n x n generalized Cartan matrix: 2 on the diagonal, -1 between
    cyclic neighbors. At n = 2 the two neighbor relations coincide and the
    off-diagonal entries accumulate to -2."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"rank parameter n must be >= 2, got {self.n}")

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(2)
                else:
                    adjacency = (abs(i - j) == 1) + ({i, j} == {0, n - 1})
                    row.append(-adjacency)
            rows.append(tuple(row))
        built = tuple(rows)
        for i, row in enumerate(built):
            if sum(row) != 0:
                raise RuntimeError(f"internal error: Cartan row {i} sums to {sum(row)}")
        return built

    def a(self, i: int, j: int) -> int:
        return self.entries[i][j]


@dataclass(frozen=True)
class RootVector:
    """Integer coefficients over the simple roots alpha_0 .. alpha_{n-1}."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if len(self.coeffs) != self.n:
            raise ValueError(f"need {self.n} coefficients, got {len(self.coeffs)}")


@dataclass(frozen=True)
class WeightVector:
    """A weight recorded by its coroot pairings; level is the multiple of the
    basic dominant weight it descends from."""

    n: int
    level: int
    pairings: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairings", tuple(self.pairings))
        if len(self.pairings) != self.n:
            raise ValueError(f"need {self.n} pairings, got {len(self.pairings)}")

    @property
    def is_dominant(self) -> bool:
        return all(p >= 0 for p in self.pairings)


def gamma(ell: int, n: int) -> RootVector:
    """The ell-th member of the root family: coefficient ell on alpha_0,
    falling off by one on each side of index 0 (cyclically), zero in the
    middle stretch."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= ell <= n // 2:
        raise ValueError(f"ell must satisfy 1 <= ell <= floor(n/2) = {n // 2}, got {ell}")
    coeffs = [0] * n
    coeffs[0] = ell
    for i in range(1, ell):
        coeffs[i] = ell - i
        coeffs[n - i] = ell - i
    return RootVector(n, tuple(coeffs))


def weight_pairings(k: int, g: RootVector) -> WeightVector:
    """Coroot pairings of the weight: k times the basic weight, minus g."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    cartan = AffineCartan(g.n)
    pairs = tuple(
        (k if i == 0 else 0) - sum(cartan.a(i, j) * c for j, c in enumerate(g.coeffs))
        for i in range(g.n)
    )
    return WeightVector(g.n, k, pairs)


def multiplicity(n: int, k: int, ell: int) -> int:
    """Weight-space dimension at the ell-th family member for level k.

    The value does not depend on n beyond the range bound on ell.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 1 <= ell <= n // 2:
        raise ValueError(f"ell must satisfy 1 <= ell <= floor(n/2) = {n // 2}, got {ell}")
    return syt_sum_squares(ell, k)


class FamilyEntry(NamedTuple):
    ell: int
    root: RootVector
    weight: WeightVector
    multiplicity: int


def maximal_dominant_family(n: int, k: int) -> list[FamilyEntry]:
    """One entry per ell in 1..floor(n/2), each weight checked dominant."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    out = []
    for ell in range(1, n // 2 + 1):
        g = gamma(ell, n)
        w = weight_pairings(k, g)
        if not w.is_dominant:
            raise RuntimeError(f"internal error: non-dominant pairings {w.pairings} at ell={ell}")
        out.append(FamilyEntry(ell, g, w, multiplicity(n, k, ell)))
    return out
