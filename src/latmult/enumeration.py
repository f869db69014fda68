"""Exhaustive enumeration of admissible sequences, move by move over up-count states.

Naively filtering all (k-1)-tuples of paths dies quickly: the tuple space
grows like binomial(2*ell, ell)**(k-1). Instead all k-1 paths advance
together, one move at a time. After move m the search is in the state
s = (u_1, ..., u_{k-1}), the paths' up-move counts so far; nesting makes it
weakly increasing, so a layer holds at most binomial(ell + k - 1, k - 1)
states (15 at most at ell 8, k 4).

Move m = ell + j fixes every band's tally on color j, and every clause on
color j reads only those and the tallies on color j - 1, which the state
after move m - 1 holds. So which states may follow depends only on (m, s):
admissibility._successors grows them with its clause step, for the moves
1..ell the search takes. A column is read off its two states: path i+1
moves up at move m exactly where its up-count grows, nxt[i] = s[i] + 1.

The search meets in the middle at move ell. _layers is its one walk: it
runs forward and yields one layer per move for moves 1..ell, each layer a
dict from a state to what reaches it, added up over the states s that lead
there, each passing on what it holds through carry(held, s, nxt); each
(m, s)'s successors are grown once, and nothing recurses. The layer after
move m is the one a walk to m alone would end on, so one walk gives every
move; the callers here read the last. By the reflection argument in
admissibility's docstring, the admissible sequences are the pairs (h, g)
of first halves that reach one state, h followed by g mirrored.

The lists carry prefixes: _halves_by_state groups the first halves by the
state they reach, appending to each the column read off the two states
of each step, and visit_admissible hands over each pair once, building a
group's mirrored tails once. They hold the halves in memory, syt_sum(ell, k)
of them, the square root of the visits. A self-conjugate sequence is the
pair (h, h), so each admissible half completes to exactly one self-conjugate
admissible sequence, paths._mirrored's, and has the type read off its state
after move ell.

The counts carry a number: how many first halves reach each state, g, with
no half built and no column read. Those halves are all of one type, and
pair into g * g admissible sequences, g of them self-conjugate; a type has
one state. So count_sequences and count_by_type hold one integer per
state, at most binomial(ell + k - 1, k - 1) of them, and build no move
letter.

The search hands raw move strings to its visitor; only the enumerate_*
wrappers build PathSequence objects, through paths._sequence.
"""

from operator import add, iadd
from typing import Callable, Iterator

from latmult.admissibility import _successors, _type_parts
from latmult.guards import check_guard
from latmult.partitions import Partition, _check_ell_k, partitions_of
from latmult.paths import PathSequence, _mirrored, _sequence, reflected_moves

GUARD_ELL = 6
GUARD_K = 5


def _check_size(ell: int, k: int, allow_large: bool) -> None:
    _check_ell_k(ell, k)
    check_guard(
        ell <= GUARD_ELL and k <= GUARD_K,
        allow_large,
        f"enumeration at ell={ell}, k={k} exceeds the default guard (ell <= {GUARD_ELL}, k <= {GUARD_K})",
    )


def _layers(ell: int, k: int, start, carry: Callable) -> Iterator[dict[tuple[int, ...], object]]:
    """What reaches each up-count state, yielded after each move 1..ell:
    the start state holds start, carry(held, s, nxt) is what state s passes
    to its successor nxt, and what reaches a state is added up."""
    layer = {(0,) * (k - 1): start}
    for m in range(1, ell + 1):
        grown: dict[tuple[int, ...], object] = {}
        for s, held in layer.items():
            for nxt in _successors(m, s):
                grown[nxt] = iadd(grown[nxt], carry(held, s, nxt)) if nxt in grown else carry(held, s, nxt)
        layer = grown
        yield layer


def _halves_by_state(ell: int, k: int) -> dict[tuple[int, ...], list[tuple[str, ...]]]:
    """The first ell moves of every admissible sequence, grouped by the
    up-count state after move ell. Path i+1's move from s to nxt is U
    where nxt[i] > s[i], R where they are equal."""
    def grow(held, s, nxt):
        column = ["U" if b > a else "R" for a, b in zip(s, nxt)]
        return [tuple(map(add, p, column)) for p in held]
    for last in _layers(ell, k, [("",) * (k - 1)], grow):
        pass  # one layer of halves alive at a time
    return last


def visit_admissible(ell: int, k: int, visit: Callable[[tuple[str, ...]], None]) -> None:
    """Stream each admissible sequence exactly once, order unspecified, to
    visit as its tuple of move strings, first path first: a first half
    joined to the mirror of any first half that meets it at one state.

    No size guard is applied here; the list building wrappers own that.
    """
    _check_ell_k(ell, k)
    for group in _halves_by_state(ell, k).values():
        tails = [tuple(map(reflected_moves, g)) for g in group]
        for h in group:
            for t in tails:
                visit(tuple(map(add, h, t)))


def enumerate_admissible(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """Every admissible sequence of k-1 nested paths, in lexicographic order
    of the concatenated move strings: tuple order, as all have length 2 * ell."""
    _check_size(ell, k, allow_large)
    found: list[tuple[str, ...]] = []
    visit_admissible(ell, k, found.append)
    return [_sequence(moves) for moves in sorted(found)]


def enumerate_self_conjugate(ell: int, k: int, *, allow_large: bool = False) -> list[PathSequence]:
    """The reflection-fixed subset of enumerate_admissible, same order: a
    mirrored half orders as the half does, so the halves are sorted."""
    _check_size(ell, k, allow_large)
    halves = sorted(h for group in _halves_by_state(ell, k).values() for h in group)
    return [_mirrored(half) for half in halves]


def count_sequences(ell: int, k: int, *, allow_large: bool = False) -> tuple[int, int]:
    """(admissible, self-conjugate) totals, not listed: g halves that reach
    one state pair into g * g admissible sequences, g of them self-conjugate."""
    _check_size(ell, k, allow_large)
    *_, last = _layers(ell, k, 1, lambda g, s, nxt: g)
    return sum(g * g for g in last.values()), sum(last.values())


def count_by_type(ell: int, k: int, *, allow_large: bool = False) -> dict[Partition, tuple[int, int]]:
    """Per-partition tallies: (admissible count, self-conjugate count), read
    off how many halves reach each state; those halves share the state's type.
    A type is reached at one state only: the state's up-counts are the
    running sums of the type's parts after the first, padded with zeros.

    Keys are exactly partitions_of(ell, k) in their canonical order.
    """
    _check_size(ell, k, allow_large)
    *_, reached = _layers(ell, k, 1, lambda g, s, nxt: g)
    tallies = {_type_parts(s, ell): (g * g, g) for s, g in reached.items()}
    return {lam: tallies[lam.parts] for lam in partitions_of(ell, k)}
