"""Standard Young tableaux and an exhaustive enumerator."""

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

    Places each value 1..n in turn at every cell that keeps each partial
    filling a Young diagram, one layer of partial fillings per value, then
    sorts the completed fillings.
    """
    check_guard(
        lam.size <= ENUMERATION_MAX_SIZE,
        allow_large,
        f"partition size {lam.size} exceeds the tableau guard (size <= {ENUMERATION_MAX_SIZE})",
    )
    parts = lam.parts
    height = len(parts)
    fillings: list[tuple[tuple[int, ...], ...]] = [((),) * height]
    for v in range(1, lam.size + 1):
        fillings = [
            rows[:i] + (rows[i] + (v,),) + rows[i + 1:]
            for rows in fillings
            for i in range(height)
            if len(rows[i]) < parts[i] and (i == 0 or len(rows[i - 1]) > len(rows[i]))
        ]
    fillings.sort(key=lambda rows: tuple(e for row in rows for e in row))
    return list(map(StandardTableau, fillings))
