"""Converters for the command line's JSON and digit words; no bool or float passes as an int."""

from latmult.avoidance import Permutation
from latmult.paths import LatticePath, PathSequence
from latmult.tableaux import StandardTableau


def _int_list(obj, what: str) -> list[int]:
    if not isinstance(obj, list) or any(type(v) is not int for v in obj):
        raise ValueError(f"{what} must be a JSON array of integers, got {obj!r}")
    return obj


def tableau_to_json(x: StandardTableau) -> list[list[int]]:
    return [list(row) for row in x.rows]


def tableau_from_json(obj) -> StandardTableau:
    if not isinstance(obj, list):
        raise ValueError(f"tableau must be a JSON array of row arrays, got {obj!r}")
    return StandardTableau(tuple(tuple(_int_list(row, "tableau row")) for row in obj))


def path_from_json(obj) -> LatticePath:
    if not isinstance(obj, str):
        raise ValueError(f"path must be a JSON string of R/U moves, got {obj!r}")
    return LatticePath(obj)


def sequence_to_json(z: PathSequence) -> dict:
    return {"ell": z.ell, "k": z.k, "paths": [p.moves for p in z.paths]}


def sequence_from_json(obj) -> PathSequence:
    if not isinstance(obj, dict):
        raise ValueError(f"sequence must be a JSON object, got {obj!r}")
    missing = {"ell", "k", "paths"} - obj.keys()
    if missing:
        raise ValueError(f"sequence object is missing keys: {sorted(missing)}")
    if type(obj["ell"]) is not int or type(obj["k"]) is not int:
        raise ValueError(f"'ell' and 'k' must be JSON integers, got {obj['ell']!r}, {obj['k']!r}")
    if not isinstance(obj["paths"], list):
        raise ValueError("sequence 'paths' must be an array of move strings")
    z = PathSequence(tuple(path_from_json(s) for s in obj["paths"]))
    if z.ell != obj["ell"] or z.k != obj["k"]:
        raise ValueError(
            f"declared ell={obj['ell']}, k={obj['k']} do not match paths (ell={z.ell}, k={z.k})"
        )
    return z


def permutation_from_word(text: str) -> Permutation:
    """Parse a one-line word of ASCII decimal digits, for sizes up to 9."""
    word = text.strip()
    if not (word.isascii() and word.isdigit()):  # str.isdigit alone passes ３, ٣ and ²
        raise ValueError(f"word must be decimal digits like 26873415, got {text!r}")
    return Permutation(tuple(int(ch) for ch in word))
