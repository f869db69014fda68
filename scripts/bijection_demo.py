#!/usr/bin/env python3
"""Walk the tableau <-> path-sequence bijection on one worked example.

Picks an admissible sequence for the requested square (seeded, reproducible),
splits it into its two reflection-fixed halves, reads each half back to a
standard tableau, and rejoins. Every printed identity is recomputed live.

Usage: python scripts/bijection_demo.py --ell 5 --k 4 [--seed 7]

Takes ell <= 6 and k <= 5, the enumeration guard. Past it the script
refuses as the CLI does: one `resource guard: ...` line on stderr, nothing
on stdout, exit 3. An ell or k the library refuses (ell < 1, k < 2) ends
the same way with one `error: ...` line and exit 2.
"""

import argparse
import random
import sys

from latmult import (
    ResourceLimitError,
    enumerate_admissible,
    join,
    sequence_type,
    sigma,
    split,
    tau,
)
from latmult.cli import EXIT_GUARD, EXIT_USAGE


def show_sequence(label, z) -> None:
    print(f"{label} (type {list(sequence_type(z).parts)}):")
    for i, p in enumerate(z.paths, start=1):
        print(f"  path {i}: {p.moves}")


def show_tableau(label, x) -> None:
    print(f"{label}:")
    for row in x.rows:
        print("  " + " ".join(f"{e:>2}" for e in row))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ell", type=int, default=5, help="square size")
    parser.add_argument("--k", type=int, default=4, help="one more than the path count")
    parser.add_argument("--seed", type=int, default=0, help="selection seed")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    try:
        z = rng.choice(enumerate_admissible(args.ell, args.k))
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        sys.exit(EXIT_GUARD)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)

    show_sequence("admissible sequence z", z)
    z1, z2 = split(z)
    show_sequence("split: reflection-fixed half z1", z1)
    show_sequence("split: reflection-fixed half z2", z2)
    assert join(z1, z2) == z
    print("join(z1, z2) == z: ok")

    x1, x2 = sigma(z1), sigma(z2)
    show_tableau("sigma(z1)", x1)
    show_tableau("sigma(z2)", x2)
    assert tau(x1, args.k) == z1 and tau(x2, args.k) == z2
    print("tau(sigma(zi)) == zi for both halves: ok")


if __name__ == "__main__":
    main()
