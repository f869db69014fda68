"""Constructive maps between standard tableaux and self-conjugate sequences,
plus the half-swap pairing that factors admissible sequences into ordered
pairs of self-conjugate ones of the same type."""

from latmult.admissibility import _require_type, _type_of
from latmult.paths import PathSequence, _mirrored, _sequence, is_self_conjugate, reflected_moves
from latmult.tableaux import StandardTableau


def tau(x: StandardTableau, k: int) -> PathSequence:
    """Send a standard tableau with height at most k to a self-conjugate
    admissible sequence on the square of its size.

    Path i rises exactly at the entries of rows 2..i+1 during the first
    ell moves; the remaining ell moves mirror the first half across the
    anti-diagonal.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if x.shape.height > k:
        raise ValueError(f"tableau height {x.shape.height} exceeds k={k}")
    ell = x.size
    row_index = {e: i for i, row in enumerate(x.rows, start=1) for e in row}
    z = _mirrored(
        "".join("U" if 2 <= row_index[v] <= i + 1 else "R" for v in range(1, ell + 1))
        for i in range(1, k)
    )
    if _type_of(z) is None:
        raise RuntimeError(f"internal error: inadmissible image for tableau {x.rows!r}")
    return z


def sigma(z: PathSequence) -> StandardTableau:
    """Inverse of tau: read the first ell moves of all paths back into rows.

    Entry v goes to row 1 when every path steps right at move v, otherwise
    to row m+1 where m is the first path that steps up there.
    """
    if not is_self_conjugate(z):
        raise ValueError("sigma needs a self-conjugate sequence")
    lam = _require_type(z)  # also rejects inadmissible input
    raw: list[list[int]] = [[] for _ in range(z.k)]
    for v in range(1, z.ell + 1):
        row = next((m for m, p in enumerate(z.paths, start=1) if p.moves[v - 1] == "U"), 0)
        raw[row].append(v)
    rows = tuple(tuple(r) for r in raw if r)
    try:
        result = StandardTableau(rows)
    except ValueError as exc:
        raise RuntimeError(f"internal error: non-standard filling {rows!r}") from exc
    if result.shape != lam:
        raise RuntimeError(f"internal error: filling shape {result.shape} is not the type {lam}")
    return result


def split(z: PathSequence) -> tuple[PathSequence, PathSequence]:
    """Reflect each half of an admissible sequence into a self-conjugate one.

    The first output keeps the below-diagonal halves, the second the
    above-diagonal halves; both have the type of z.
    """
    lam = _require_type(z)
    ell = z.ell
    first = _mirrored(p.moves[:ell] for p in z.paths)
    second = _mirrored(reflected_moves(p.moves[ell:]) for p in z.paths)
    if _type_of(first) != lam or _type_of(second) != lam:  # both self-conjugate by construction
        raise RuntimeError("internal error: split output failed validation")
    return first, second


def join(z1: PathSequence, z2: PathSequence) -> PathSequence:
    """Recombine two self-conjugate sequences of one type: the lower halves
    of z1 with the upper halves of z2. Inverse of split."""
    if z1.ell != z2.ell or z1.k != z2.k:
        raise ValueError("join needs sequences on one square with one path count")
    for z in (z1, z2):
        if not is_self_conjugate(z):
            raise ValueError("join needs self-conjugate inputs")
    type1, type2 = _require_type(z1), _require_type(z2)
    if type1 != type2:
        raise ValueError(f"join is only defined within one type class: {type1} vs {type2}")
    ell = z1.ell
    out = _sequence(tuple(p.moves[:ell] + q.moves[ell:] for p, q in zip(z1.paths, z2.paths)))
    if _type_of(out) != type1:
        raise RuntimeError("internal error: join output failed validation")
    return out
