"""Past the enumeration guard, the CLI's routes agree with each other and with closed forms.

These are the paper's equalities of counts, checked on cells the default
guard refuses and at sizes where only the formulas run: admissible
sequences = sum of f_lambda^2 over heights <= k = (k+1)k...21-avoiding
permutations = the multiplicity of k*Lambda_0 - gamma_ell, and
self-conjugate sequences = sum of f_lambda. Each row runs `python -m
latmult` on the source tree in a fresh process, which must exit within the
row's bound in seconds; a process still running then fails the row. A
route that prints nothing fails too, as its output is parsed.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import involutions

ROOT = Path(__file__).resolve().parent.parent

# Runs the package as `-m latmult` does, then prints the peak resident set
# size of the process's own address space, in KiB, as the last line of
# stderr. Not ru_maxrss: Linux carries the forking parent's peak across
# exec into it, so a child of a 120 MB test session reads at least 120 MB.
PEAK_RSS = """\
import runpy, sys
try:
    runpy.run_module("latmult", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    print(peak, file=sys.stderr)
"""


def run(*argv, seconds, env=None, peak_rss=False):
    """The finished `python -m latmult argv` process; TimeoutExpired past `seconds`."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    entry = ["-c", PEAK_RSS] if peak_rss else ["-m", "latmult"]
    return subprocess.run(
        [sys.executable, *entry, *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=seconds,
    )


def stdout_of(*argv, seconds, max_mb=None):
    """What the process printed, once it exited 0 within `seconds` and, when
    `max_mb` is given, peaked at no more than `max_mb` of its own RSS."""
    proc = run(*argv, seconds=seconds, peak_rss=max_mb is not None)
    assert proc.returncode == 0, proc.stderr
    if max_mb is not None:
        peak_mb = int(proc.stderr.splitlines()[-1]) / 1024
        assert peak_mb <= max_mb, f"peak RSS {peak_mb:.1f} MB"
    return proc.stdout


def count(*argv, seconds, max_mb=None):
    """The one integer a count route prints; empty or extra output fails."""
    out = stdout_of(*argv, seconds=seconds, max_mb=max_mb)
    assert re.fullmatch(r"\d+\n", out), repr(out)
    return int(out)


# (quantity, ell, k, route checked against the formula, bound in seconds,
#  bound in MB on the route's own peak RSS or None)
ROUTES = [
    ("paths", 8, 4, "brute", 60, None),
    ("paths", 10, 4, "brute", 60, None),
    ("paths", 12, 6, "brute", 60, None),
    ("paths", 30, 6, "brute", 10, None),
    ("paths", 40, 4, "brute", 10, None),
    ("self-conjugate", 8, 4, "brute", 60, None),
    ("self-conjugate", 12, 6, "brute", 60, None),
    ("self-conjugate", 30, 6, "brute", 10, None),
    ("self-conjugate", 500, 2, "brute", 10, None),
    ("avoiders", 14, 4, "brute", 60, None),
    ("avoiders", 10, 4, "rsk", 60, None),
    ("avoiders", 11, 4, "rsk", 60, 45),
]


@pytest.mark.parametrize("what, ell, k, method, seconds, max_mb", ROUTES,
                         ids=[f"{w}-{ell}-{k}-{m}" for w, ell, k, m, *_ in ROUTES])
def test_route_equals_the_formula(what, ell, k, method, seconds, max_mb):
    def by(route, max_mb=None):
        return count("count", what, "--ell", ell, "--k", k, "--method", route, "--allow-large",
                     seconds=seconds, max_mb=max_mb)

    assert by(method, max_mb) == by("formula")


@pytest.mark.parametrize("ell, k, seconds", [(8, 4, 60), (20, 4, 10)], ids=["8-4", "20-4"])
def test_per_shape_rows_match_the_searches(ell, k, seconds):
    out = stdout_of("count", "paths", "--ell", ell, "--k", k, "--per-shape", "--allow-large",
                    seconds=seconds)
    header, *rows = [line.split("\t") for line in out.splitlines()]
    assert header == ["lambda", "f", "f_squared", "brute_admissible", "brute_self_conjugate"]
    assert len(rows) > 1
    for shape, f, f_squared, admissible, self_conjugate in rows:
        assert (f_squared, f) == (admissible, self_conjugate), shape


# (ell_max, k_max, --allow-large, bound in seconds, peak RSS bound in MB, last line)
VERIFY = [
    (6, 5, False, 60, None, "168/168 checks passed"),
    (8, 3, True, 60, None, "112/112 checks passed"),
    (7, 5, True, 60, None, "196/196 checks passed"),
    (8, 4, True, 60, None, "168/168 checks passed"),
    (9, 3, True, 60, 100, "126/126 checks passed"),
]


@pytest.mark.parametrize("ell_max, k_max, allow_large, seconds, max_mb, last", VERIFY,
                         ids=[f"{row[0]}-{row[1]}" for row in VERIFY])
def test_verify_passes(ell_max, k_max, allow_large, seconds, max_mb, last):
    argv = ["verify", "--ell-max", ell_max, "--k-max", k_max] + ["--allow-large"] * allow_large
    out = stdout_of(*argv, seconds=seconds, max_mb=max_mb)
    assert out.splitlines()[-1] == last


@pytest.mark.parametrize("argv, closed_form", [
    pytest.param(["count", "tableaux", "--ell", 40, "--max-height", 40], involutions(40),
                 id="tableaux-40-involutions"),
    pytest.param(["count", "paths", "--ell", 40, "--k", 40, "--method", "formula"],
                 math.factorial(40), id="paths-40-40-factorial"),
])
def test_formula_equals_its_closed_form(argv, closed_form):
    assert count(*argv, seconds=20) == closed_form


def test_multiplicity_equals_the_path_formula():
    out = stdout_of("mult", "--n", 120, "--k", 8, "--ell", 60, seconds=20)
    paths = count("count", "paths", "--ell", 60, "--k", 8, "--method", "formula", seconds=20)
    assert int(json.loads(out)["multiplicity"]) == paths


def test_mult_pairings_at_n_100000():
    # linear in n: the 20 s bound fails a quadratic pass over the nodes
    n = 100_000
    lines = stdout_of("mult", "--n", n, "--k", 2, "--ell", 1, "--format", "tsv",
                      seconds=20).splitlines()
    assert len(lines) == 3
    name, value = lines[1].split("\t")
    assert name == "pairings"
    assert json.loads(value) == [int(i in (1, n - 1)) for i in range(n)]


def test_the_environment_lifts_no_guard():
    # a fresh process, so that a read of the variable at import time shows too
    proc = run("count", "paths", "--ell", 7, "--k", 3, "--method", "brute",
               seconds=60, env={"LATMULT_GUARD_OVERRIDE": "1"})
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
