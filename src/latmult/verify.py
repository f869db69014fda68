"""Cross-check suite: three routes to each count plus bijection roundtrips.

The report is deterministic text so repeated runs can be compared byte for
byte.
"""

from collections import Counter
from dataclasses import dataclass

from latmult.admissibility import _type_of
from latmult.avoidance import count_avoiders
from latmult.bijections import join, sigma, split, tau
from latmult.enumeration import enumerate_admissible
from latmult.partitions import count_syt, partitions_of, syt_sum, syt_sum_squares
from latmult.paths import is_self_conjugate
from latmult.tableaux import enumerate_syt


@dataclass(frozen=True)
class CheckResult:
    name: str
    ell: int
    k: int
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  [{self.detail}]" if self.detail and not self.ok else ""
        return f"{status} {self.name} ell={self.ell} k={self.k}{tail}"


def _check_cell(ell: int, k: int, allow_large: bool) -> list[CheckResult]:
    out: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        out.append(CheckResult(name, ell, k, ok, detail))

    def witness(name: str, items, broken, describe) -> None:
        """Fail the check with describe(x) for the first broken item x, if any."""
        detail = next((describe(x) for x in items if broken(x)), "")
        check(name, not detail, detail)

    def sequence(z) -> str:
        return f"sequence {[p.moves for p in z.paths]}"

    seqs = enumerate_admissible(ell, k, allow_large=allow_large)
    fixed = [z for z in seqs if is_self_conjugate(z)]
    want_squares = syt_sum_squares(ell, k)
    want_sum = syt_sum(ell, k)
    check("admissible-count", len(seqs) == want_squares,
          f"enumerated {len(seqs)}, formula {want_squares}")
    check("self-conjugate-count", len(fixed) == want_sum,
          f"enumerated {len(fixed)}, formula {want_sum}")

    # the cell is searched once: per-type tallies come from the same list
    by_type = Counter(_type_of(z) for z in seqs)
    fixed_by_type = Counter(_type_of(z) for z in fixed)
    want = {lam: (f * f, f) for lam in partitions_of(ell, k) for f in (count_syt(lam),)}
    got = {lam: (by_type[lam], fixed_by_type[lam]) for lam in want}
    witness("per-type-counts", want, lambda lam: got[lam] != want[lam],
            lambda lam: f"type {list(lam.parts)}: got {got[lam]}, expected {want[lam]}")

    syt = (x for lam in partitions_of(ell, k) for x in enumerate_syt(lam, allow_large=allow_large))
    witness("tableau-roundtrip", syt,
            lambda x: sigma(tau(x, k)) != x, lambda x: f"tableau {[list(r) for r in x.rows]}")
    witness("sequence-roundtrip", fixed, lambda z: tau(sigma(z), k) != z, sequence)
    witness("split-join-roundtrip", seqs, lambda z: join(*split(z)) != z, sequence)

    brute = count_avoiders(ell, k, "brute", allow_large=allow_large)
    by_insertion = count_avoiders(ell, k, "rsk", allow_large=allow_large)
    check("avoider-counts", brute == by_insertion == want_squares,
          f"brute {brute}, rsk {by_insertion}, formula {want_squares}")
    return out


def run_verification(ell_max: int, k_max: int, *, allow_large: bool = False) -> list[CheckResult]:
    """Run every check over the full (ell, k) grid up to the given bounds."""
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    results: list[CheckResult] = []
    for ell in range(1, ell_max + 1):
        for k in range(2, k_max + 1):
            results.extend(_check_cell(ell, k, allow_large))
    return results


def render_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    passed = sum(r.ok for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines)
