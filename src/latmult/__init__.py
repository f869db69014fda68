"""Exact combinatorics of nested lattice paths on a colored square.

The package counts and constructs admissible sequences of nested lattice
paths, maps them bijectively to standard Young tableaux of bounded height,
counts permutations avoiding a long decreasing pattern, and evaluates the
matching multiplicities of maximal dominant weights for affine type A.
All arithmetic is exact (Python integers); nothing here uses floats.

Every name imported here is public: `__all__` lists, sorted, each name the
imports bind, less modules and names that start with `_`.
"""

import types

from latmult.admissibility import is_admissible, sequence_type
from latmult.avoidance import Permutation, count_avoiders, lds_length, rsk
from latmult.bijections import join, sigma, split, tau
from latmult.enumeration import (
    count_by_type,
    count_sequences,
    enumerate_admissible,
    enumerate_self_conjugate,
)
from latmult.guards import ResourceLimitError
from latmult.partitions import (
    Partition,
    count_syt,
    partitions_of,
    syt_sum,
    syt_sum_squares,
)
from latmult.paths import (
    ColorCountTable,
    LatticePath,
    PathSequence,
    color_counts,
    is_self_conjugate,
    path_leq,
    reflect,
)
from latmult.tableaux import StandardTableau, enumerate_syt
from latmult.verify import render_report, run_verification
from latmult.weights import (
    AffineCartan,
    FamilyEntry,
    RootVector,
    WeightVector,
    gamma,
    maximal_dominant_family,
    multiplicity,
    weight_pairings,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)

__version__ = "0.6.9"
