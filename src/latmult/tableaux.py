"""Standard Young tableaux and an exhaustive backtracking enumerator."""

from dataclasses import dataclass

from latmult.guards import check_guard
from latmult.partitions import Partition

ENUMERATION_MAX_SIZE = 12


@dataclass(frozen=True)
class StandardTableau:
    """Rows of a standard filling: entries 1..n, strictly increasing along
    rows and down columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        shape = Partition(tuple(len(r) for r in rows))
        object.__setattr__(self, "shape", shape)  # the partition of the row lengths
        entries = sorted(e for row in rows for e in row)
        if entries != list(range(1, shape.size + 1)):
            raise ValueError(f"entries must be exactly 1..{shape.size}: {rows!r}")
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row not strictly increasing: {row!r}")
        for upper, lower in zip(rows, rows[1:]):
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise ValueError(f"columns not strictly increasing: {rows!r}")

    @property
    def size(self) -> int:
        return self.shape.size


def enumerate_syt(lam: Partition, *, allow_large: bool = False) -> list[StandardTableau]:
    """Every standard filling of lam, sorted by row-major entry reading.

    Places each value 1..n in turn at every cell that keeps the partial
    filling a Young diagram, then sorts the completed fillings.
    """
    check_guard(
        lam.size <= ENUMERATION_MAX_SIZE,
        allow_large,
        f"partition size {lam.size} exceeds the tableau guard (size <= {ENUMERATION_MAX_SIZE})",
    )
    parts = lam.parts
    height = len(parts)
    fill: list[list[int]] = [[] for _ in range(height)]
    found: list[tuple[tuple[int, ...], ...]] = []

    def place(v: int) -> None:
        if v > lam.size:
            found.append(tuple(tuple(r) for r in fill))
            return
        for i in range(height):
            used = len(fill[i])
            if used < parts[i] and (i == 0 or len(fill[i - 1]) > used):
                fill[i].append(v)
                place(v + 1)
                fill[i].pop()

    place(1)
    found.sort(key=lambda rows: tuple(e for row in rows for e in row))
    return [StandardTableau(rows) for rows in found]
