"""Affine type-A Cartan data, the symmetric root family, and weight pairings.

Weights are tracked additively through their pairings with the coroots, so
everything stays in exact integers.
"""

from dataclasses import dataclass
from typing import NamedTuple

from latmult.partitions import syt_sum_squares


@dataclass(frozen=True)
class AffineCartan:
    """The n x n generalized Cartan matrix: 2 on the diagonal, -1 between
    cyclic neighbors. At n = 2 the two neighbor relations coincide and the
    off-diagonal entries accumulate to -2. weight_pairings reads its rows
    without building it."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"rank parameter n must be >= 2, got {self.n}")

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.a(i, j) for j in range(self.n)) for i in range(self.n))

    def a(self, i: int, j: int) -> int:
        if i == j:
            return 2
        return -((abs(i - j) == 1) + ({i, j} == {0, self.n - 1}))


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


def _check_range(n: int, ell: int) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= ell <= n // 2:
        raise ValueError(f"ell must satisfy 1 <= ell <= floor(n/2) = {n // 2}, got {ell}")


def gamma(ell: int, n: int) -> RootVector:
    """The ell-th member of the root family: coefficient ell on alpha_0,
    falling off by one on each side of index 0 (cyclically), zero in the
    middle stretch."""
    _check_range(n, ell)
    coeffs = [0] * n
    coeffs[0] = ell
    for i in range(1, ell):
        coeffs[i] = ell - i
        coeffs[n - i] = ell - i
    return RootVector(n, tuple(coeffs))


def weight_pairings(k: int, g: RootVector) -> WeightVector:
    """Coroot pairings of the weight: k times the basic weight, minus g.

    Row i of the Cartan matrix is 2 at i and -1 at each cyclic neighbor (at
    n = 2 both are the other node), so each pairing reads three coefficients.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    c, n = g.coeffs, g.n
    pairs = tuple((k if i == 0 else 0) - 2 * c[i] + c[i - 1] + c[(i + 1) % n] for i in range(n))
    return WeightVector(n, k, pairs)


def multiplicity(n: int, k: int, ell: int) -> int:
    """Weight-space dimension at the ell-th family member for level k.

    The value does not depend on n beyond the range bound on ell.
    """
    _check_range(n, ell)
    return syt_sum_squares(ell, k)


class FamilyEntry(NamedTuple):
    ell: int
    root: RootVector
    weight: WeightVector
    multiplicity: int


def maximal_dominant_family(n: int, k: int) -> list[FamilyEntry]:
    """One entry per ell in 1..floor(n/2). Every weight is dominant: its
    pairings are k - 2 at node 0 plus 1 at node ell and 1 at node n - ell."""
    if n < 2:  # the loop below would be empty
        raise ValueError(f"n must be >= 2, got {n}")
    out = []
    for ell in range(1, n // 2 + 1):
        g = gamma(ell, n)
        out.append(FamilyEntry(ell, g, weight_pairings(k, g), multiplicity(n, k, ell)))
    return out
