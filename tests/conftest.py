"""Shared hypothesis profile, generation helpers and partition oracles.

Strategies cache exhaustive enumerations of small objects so property tests
sample uniformly from complete populations instead of rebuilding them.
"""

from functools import lru_cache

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from latmult import (
    LatticePath,
    Partition,
    PathSequence,
    enumerate_admissible,
    enumerate_syt,
    partitions_of,
)

settings.register_profile(
    "latmult",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("latmult")


@lru_cache(maxsize=None)
def all_partitions(ell: int, max_height: int):
    return tuple(partitions_of(ell, max_height))


@lru_cache(maxsize=None)
def all_tableaux(ell: int, max_height: int):
    out = []
    for lam in all_partitions(ell, max_height):
        out.extend(enumerate_syt(lam))
    return tuple(out)


@lru_cache(maxsize=None)
def all_admissible(ell: int, k: int):
    # move strings, not PathSequence objects: a cached sequence would stay
    # alive all session in paths._SEQUENCES, verdict and all, so tests that
    # count builds or evaluations would find it already built and checked
    return tuple(tuple(p.moves for p in z.paths) for z in enumerate_admissible(ell, k))


def conjugate(lam: Partition) -> Partition:
    """Oracle: the column lengths of the diagram of lam."""
    cols = tuple(sum(1 for p in lam.parts if p > j) for j in range(lam.parts[0]))
    return Partition(cols)


def hook_lengths(lam: Partition) -> tuple[tuple[int, ...], ...]:
    """Oracle: the hook length of every box, row-major: arm plus leg plus one."""
    cols = conjugate(lam).parts
    return tuple(
        tuple(row_len + cols[j] - i - j - 1 for j in range(row_len))
        for i, row_len in enumerate(lam.parts)
    )


@st.composite
def partitions_st(draw, max_size=8):
    ell = draw(st.integers(1, max_size))
    height = draw(st.integers(1, ell))
    return draw(st.sampled_from(all_partitions(ell, height)))


@st.composite
def tableaux_st(draw, max_size=6):
    ell = draw(st.integers(1, max_size))
    height = draw(st.integers(1, ell))
    return draw(st.sampled_from(all_tableaux(ell, height)))


@st.composite
def admissible_st(draw, max_ell=4, max_k=5):
    ell = draw(st.integers(1, max_ell))
    k = draw(st.integers(2, max_k))
    moves = draw(st.sampled_from(all_admissible(ell, k)))
    return PathSequence(tuple(LatticePath(m) for m in moves))


def path_from_heights(heights) -> LatticePath:
    """The path whose right move in column x is taken at height heights[x-1];
    the heights are weakly increasing and lie in [-ell, 0]."""
    y, moves = -len(heights), ""
    for h in heights:
        moves += "U" * (h - y) + "R"
        y = h
    return LatticePath(moves + "U" * -y)


@st.composite
def paths_st(draw, max_ell=5):
    """An arbitrary monotone path, via a weakly increasing height vector."""
    ell = draw(st.integers(1, max_ell))
    heights = sorted(draw(st.lists(st.integers(-ell, 0), min_size=ell, max_size=ell)))
    return path_from_heights(heights)


@st.composite
def nested_sequences_st(draw, max_ell=4, max_k=5):
    """An arbitrary nested sequence, admissible or not."""
    ell = draw(st.integers(1, max_ell))
    k = draw(st.integers(2, max_k))
    rows = [
        sorted(draw(st.lists(st.integers(-ell, 0), min_size=ell, max_size=ell)))
        for _ in range(k - 1)
    ]
    for i in range(1, k - 1):
        rows[i] = [max(a, b) for a, b in zip(rows[i - 1], rows[i])]
    return PathSequence(tuple(path_from_heights(r) for r in rows))
