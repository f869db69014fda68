"""Acceptance gate: ten release criteria, one test and one printed line each.

Each test prints "ACCEPTANCE PASS <name>" (or FAIL) so the suite log shows
the gate status at a glance. Timed criteria measure a fresh call with
time.perf_counter after one warmup call; stated budgets are generous upper
bounds for commodity hardware.
"""

import itertools
import subprocess
import sys
import time

from latmult import (
    Partition,
    Permutation,
    count_avoiders,
    count_by_type,
    count_syt,
    enumerate_admissible,
    enumerate_self_conjugate,
    enumerate_syt,
    join,
    lds_length,
    maximal_dominant_family,
    multiplicity,
    partitions_of,
    rsk,
    sigma,
    split,
    syt_sum,
    syt_sum_squares,
    tau,
)

from conftest import hook_lengths


def report(capsys, name, ok):
    # bypass capture so the gate line lands in the suite log unconditionally
    with capsys.disabled():
        print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def timed(fn):
    fn()  # warmup so import and cache effects stay out of the measurement
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_01_hook_length_golden(capsys):
    def compute():
        return hook_lengths(Partition((4, 2, 1))), count_syt(Partition((4, 2, 1)))

    (grid, f), elapsed = timed(compute)
    ok = grid == ((6, 4, 2, 1), (3, 1), (1,)) and f == 35 and elapsed < 0.001
    report(capsys, "hook-length-golden", ok)


def test_criterion_02_per_shape_golden_and_119(capsys):
    def compute():
        fs = [count_syt(lam) for lam in partitions_of(5, 4)]
        return fs, syt_sum_squares(5, 4)

    (fs, total), elapsed = timed(compute)
    ok = fs == [1, 4, 5, 6, 5, 4] and total == 119 and elapsed < 0.001
    report(capsys, "per-shape-golden-119", ok)


def test_criterion_03_admissible_counts_match_squares(capsys):
    start = time.perf_counter()
    ok = all(
        len(enumerate_admissible(ell, k)) == syt_sum_squares(ell, k)
        for ell in range(1, 6)
        for k in range(2, 6)
    )
    ok = ok and time.perf_counter() - start < 60.0
    report(capsys, "admissible-counts-equal-square-sums", ok)


def test_criterion_04_self_conjugate_and_per_type_counts(capsys):
    start = time.perf_counter()
    ok = True
    for ell in range(1, 6):
        for k in range(2, 6):
            ok = ok and len(enumerate_self_conjugate(ell, k)) == syt_sum(ell, k)
            per = count_by_type(ell, k)
            for lam in partitions_of(ell, k):
                f = count_syt(lam)
                ok = ok and per[lam] == (f * f, f)
    ok = ok and time.perf_counter() - start < 60.0
    report(capsys, "self-conjugate-and-per-type-counts", ok)


def test_criterion_05_bijection_roundtrips(capsys):
    ok = True
    for ell in range(1, 6):
        for k in range(2, 6):
            for lam in partitions_of(ell, k):
                for x in enumerate_syt(lam):
                    ok = ok and sigma(tau(x, k)) == x
            for z in enumerate_self_conjugate(ell, k):
                ok = ok and tau(sigma(z), k) == z
    for ell in range(1, 5):
        for k in range(2, 5):
            for z in enumerate_admissible(ell, k):
                ok = ok and join(*split(z)) == z
    report(capsys, "bijection-roundtrips", ok)


def test_criterion_06_avoider_counts_and_lds_golden(capsys):
    start = time.perf_counter()
    ok = all(
        count_avoiders(ell, k, "brute")
        == count_avoiders(ell, k, "rsk")
        == syt_sum_squares(ell, k)
        for ell in range(1, 8)
        for k in range(2, 7)
    )
    ok = ok and lds_length(Permutation((2, 6, 8, 7, 3, 4, 1, 5))) == 4
    ok = ok and time.perf_counter() - start < 30.0
    report(capsys, "avoider-counts-and-lds-golden", ok)


def test_criterion_07_schensted_property(capsys):
    def brute_lds(word):
        return max(
            (
                len(sub)
                for r in range(1, len(word) + 1)
                for sub in itertools.combinations(word, r)
                if all(a > b for a, b in zip(sub, sub[1:]))
            ),
            default=0,
        )

    ok = True
    for n in range(1, 8):
        for word in itertools.permutations(range(1, n + 1)):
            insertion, _ = rsk(Permutation(word))
            ok = ok and insertion.shape.height == brute_lds(word)
    report(capsys, "schensted-property", ok)


def test_criterion_08_weight_arithmetic(capsys):
    start = time.perf_counter()
    ok = True
    for n in range(2, 13):
        for k in range(2, 6):
            for entry in maximal_dominant_family(n, k):
                ok = ok and all(p >= 0 for p in entry.weight.pairings)
    for n in (10, 11, 12):
        ok = ok and multiplicity(n, 4, 5) == 119
    ok = ok and time.perf_counter() - start < 1.0
    report(capsys, "weight-arithmetic", ok)


def test_criterion_09_tableau_count_oracle(capsys):
    start = time.perf_counter()
    ok = all(
        count_syt(lam) == len(enumerate_syt(lam))
        for ell in range(1, 11)
        for lam in partitions_of(ell, ell)
    )
    ok = ok and time.perf_counter() - start < 60.0
    report(capsys, "tableau-count-oracle", ok)


def test_criterion_10_verify_determinism(capsys):
    command = [sys.executable, "-m", "latmult", "verify", "--ell-max", "5", "--k-max", "5"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.endswith(b"140/140 checks passed\n")
    )
    report(capsys, "verify-determinism", ok)
