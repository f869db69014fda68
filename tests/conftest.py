"""Shared hypothesis profile, generation helpers, and every oracle that two
or more test modules use; no test module imports another.

Strategies cache exhaustive enumerations of small objects so property tests
sample uniformly from complete populations instead of rebuilding them.

The admissibility oracles re-state every clause directly in terms of box
sets on the colored square, sharing no code with the implementation under
test: they list the boxes and their colors themselves, and find the boxes
below a path from the path's vertices. The full walk's clause step,
oracle_fits, re-states them on band tallies read off up-counts, at every
color, where latmult's _successors holds only the clauses on the colors
up to 0; it imports nothing private from latmult either.
"""

import itertools
import sys
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
    path_leq,
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


def involutions(n):
    """Oracle: a(n) = a(n-1) + (n-1) a(n-2), a(0) = a(1) = 1."""
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b


def frames_in_use():
    """The stack depth the interpreter counts here, C calls included."""
    def descend(depth):
        try:
            return descend(depth + 1)
        except RecursionError:
            return depth

    return sys.getrecursionlimit() - descend(0)


def vertices(p):
    """All lattice points visited by p, starting at (0, -ell)."""
    x, y = 0, -p.ell
    out = [(x, y)]
    for move in p.moves:
        if move == "R":
            x += 1
        else:
            y += 1
        out.append((x, y))
    return out


def boxes_weakly_below(p):
    """Oracle: box (a, b) counts when some visited vertex has x <= a, y >= b."""
    verts = vertices(p)
    out = set()
    for a in range(p.ell):
        for b in range(-(p.ell - 1), 1):
            if any(x <= a and y >= b for x, y in verts):
                out.add((a, b))
    return out


def oracle_band_counts(z):
    """Band tallies per color from raw box sets; the box cornered at (a, b)
    has color a + b."""
    ell, k = z.ell, z.k
    square = {(a, b) for a in range(ell) for b in range(1 - ell, 1)}
    below = [boxes_weakly_below(p) for p in z.paths]
    bands = [square - below[-1], below[0]]
    for i in range(2, k):
        bands.insert(i, below[i - 1] - below[i - 2])
    count = {}
    for i in range(k):
        for j in range(-(ell - 1), ell):
            count[(i, j)] = sum(1 for a, b in bands[i] if a + b == j)
    return count


def oracle_diagonal(p):
    """First path stays weakly below the anti-diagonal: every prefix has
    at least as many right moves as up moves."""
    r = u = 0
    for move in p.moves:
        if move == "R":
            r += 1
        else:
            u += 1
        if u > r:
            return False
    return True


def oracle_admissible(z):
    """Direct clause-by-clause transcription of the defining conditions."""
    if not oracle_diagonal(z.paths[0]):
        return False
    ell, k = z.ell, z.k
    t = oracle_band_counts(z)
    for i in range(2, k):
        for j in range(-(ell - 1), ell):
            if t[(i, j)] > t[(i - 1, j)]:
                return False
            budget = ell - abs(j) - t[(1, j)] - sum(t[(a, j)] for a in range(1, i))
            if t[(i, j)] > budget:
                return False
            if j > 0 and t[(i, j)] > t[(i, j - 1)]:
                return False
            if j < 0 and t[(i, j)] > t[(i, j + 1)]:
                return False
    return True


def oracle_type(z):
    """The color-zero band tallies, band 0 first, trailing zeros dropped."""
    t = oracle_band_counts(z)
    column = [t[(i, 0)] for i in range(z.k)]
    while column and column[-1] == 0:
        column.pop()
    return Partition(tuple(column))


def nested_sequences(ell, k):
    """Every nested sequence of k-1 paths on the ell square, unpruned."""
    paths = [
        LatticePath("".join("U" if m in ups else "R" for m in range(2 * ell)))
        for ups in itertools.combinations(range(2 * ell), ell)
    ]
    chains = [()]
    for _ in range(k - 1):
        chains = [c + (p,) for c in chains for p in paths if not c or path_leq(c[-1], p)]
    return [PathSequence(c) for c in chains]


def oracle_bands(j, ups):
    """Bands 1..len(ups) on color j from the up-counts ups after move
    ell + j: path i has u - max(j, 0) boxes of color j below it, and a band
    between two paths holds the difference."""
    below = [u - max(j, 0) for u in ups]
    return below[:1] + [b - a for a, b in zip(below, below[1:])]


def oracle_fits(ell, m, s, ups):
    """Oracle clause step at every color j = m - ell: whether paths
    1..len(ups) may go from the up-counts s after move m - 1 to ups after
    move m. Each stays on the square and nested, the first weakly below the
    anti-diagonal, and every band i >= 2 they bound keeps the cap against
    band i - 1 and the budget on color j, and monotonicity toward color 0
    between colors j - 1 and j."""
    j = m - ell
    if any(u > ell or m - u > ell for u in ups) or any(a > b for a, b in zip(ups, ups[1:])):
        return False
    if 2 * ups[0] > m:
        return False
    now, before = oracle_bands(j, ups), oracle_bands(j - 1, s[:len(ups)])
    for i in range(1, len(ups)):
        if now[i] > now[i - 1] or now[i] > ell - abs(j) - now[0] - sum(now[:i]):
            return False
        if (now[i] > before[i]) if j > 0 else (before[i] > now[i]):
            return False
    return True


def walked_admissible(ell, k):
    """Oracle for the pairing of halves: grow every sequence through all
    2 * ell moves, each column one path at a time through oracle_fits, with
    no state shared between sequences. Path i+1 moves up at move m exactly
    where its up-count grows."""
    layer = [(("",) * (k - 1), (0,) * (k - 1))]
    for m in range(1, 2 * ell + 1):
        grown = []
        for moves, s in layer:
            columns = [()]
            for before in s:
                columns = [c + (u,) for c in columns for u in (before, before + 1)
                           if oracle_fits(ell, m, s, c + (u,))]
            for nxt in columns:
                grown.append((tuple(p + ("U" if b > a else "R") for p, a, b in zip(moves, s, nxt)), nxt))
        layer = grown
    return [moves for moves, _ in layer]


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
