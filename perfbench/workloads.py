"""The three workloads: inputs drawn from the seed, the calls they time, and
the checks on every answer.

A workload is built once per set-up (inputs, oracles, warm-up) and then run
as a sequence of passes. A pass is the workload's unit of work; the timed
phase repeats passes until its time is up. Every call into the package goes
through a Tally, which times it and counts the operations the call stands
for and how many of them failed.
"""

import contextlib
import io
import json
import math
import random
import sys
import time

import oracles

GOLDEN_TABLEAU = [[1, 3], [2, 6], [4], [5]]


class Tally:
    """Operations attempted and failed, plus the (start, end) of each timed
    call; after each call, timed or not, the speed gauge may take a sample."""

    def __init__(self, gauge) -> None:
        self.gauge = gauge
        self.ops = 0
        self.failed = 0
        self.spans: list[tuple[float, float]] = []

    def record(self, ops: int, ok: bool) -> None:
        self.ops += ops
        if not ok:
            self.failed += ops

    def call(self, fn, *args, timed: bool = True, **kwargs):
        """(result, raised) of one call; a raising call is a failed
        operation to count, not a reason to stop the run."""
        start = time.perf_counter()
        try:
            result, raised = fn(*args, **kwargs), False
        except Exception:
            result, raised = None, True
        if timed:
            self.spans.append((start, time.perf_counter()))
        self.gauge.tick()
        return result, raised


class Client:
    """Sends one command line at a time to cli.main in this process, feeding
    stdin and capturing stdout; the library module is looked up per call so
    a tracer's rebinding takes effect."""

    def __init__(self, lib) -> None:
        self.lib = lib

    def call(self, tally: Tally, argv: list[str], stdin: str, timed: bool) -> tuple[int | None, str]:
        out = io.StringIO()
        saved_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code, raised = tally.call(self.lib.cli.main, argv, timed=timed)
        finally:
            sys.stdin = saved_stdin
        return (None if raised else code), out.getvalue()


def golden_requests():
    """The README examples with their documented answers, as (argv, stdin,
    check) triples; the map round trip is one request of two calls."""

    def scalar(expected):
        return lambda code, out: code == 0 and out.strip() == expected

    def mult(code, out):
        return code == 0 and json.loads(out)["multiplicity"] == "119"

    def verify(code, out):
        return code == 0 and out.strip().splitlines()[-1] == "42/42 checks passed"

    return [
        (["count", "tableaux", "--ell", "5", "--max-height", "4"], "", scalar("25")),
        (["count", "paths", "--ell", "4", "--k", "3", "--method", "brute"], "", scalar("23")),
        (["count", "self-conjugate", "--ell", "4", "--k", "3"], "", scalar("9")),
        (["count", "avoiders", "--ell", "7", "--k", "2", "--method", "rsk"], "", scalar("429")),
        (["mult", "--n", "10", "--k", "4", "--ell", "5"], "", mult),
        (["lds"], "26873415\n", scalar("4")),
        (["verify", "--ell-max", "3", "--k-max", "3"], "", verify),
        (["count", "paths", "--ell", "7", "--k", "3", "--method", "brute"], "",
         lambda code, out: code == 3 and out == ""),
        map_roundtrip(GOLDEN_TABLEAU, 4),
    ]


def map_roundtrip(rows: list[list[int]], k: int):
    """`map tau` then `map sigma` on its output: two operations, correct when
    tau gave k - 1 paths on the square of the tableau's size and sigma gave
    the tableau back."""
    size = sum(len(r) for r in rows)

    def run(client: Client, tally: Tally, timed: bool) -> None:
        code, out = client.call(tally, ["map", "tau", "--k", str(k)], json.dumps(rows), timed)
        ok = False
        if code == 0:
            code, back = client.call(tally, ["map", "sigma"], out, timed)
            try:
                seq = json.loads(out)
                ok = (seq["ell"] == size and seq["k"] == k and len(seq["paths"]) == k - 1
                      and code == 0 and json.loads(back) == rows)
            except (ValueError, KeyError, TypeError):
                ok = False
        tally.record(2, ok)

    return run


def send(client: Client, tally: Tally, request, timed: bool = True) -> None:
    if callable(request):
        request(client, tally, timed)
        return
    argv, stdin, check = request
    code, out = client.call(tally, argv, stdin, timed)
    try:
        ok = code is not None and check(code, out)
    except (ValueError, KeyError, IndexError, TypeError):  # malformed output
        ok = False
    tally.record(1, ok)


def probe(lib, tally: Tally) -> None:
    """Send every README example once through the command line, untimed."""
    client = Client(lib)
    for request in golden_requests():
        send(client, tally, request, timed=False)


class Exhaustive:
    """Search with pruning past the default guard, plus avoider scans."""

    op_unit = "visited sequences and scanned words"

    def __init__(self, lib, seed: int, tiny: bool) -> None:
        self.lib = lib
        self.rng = random.Random(seed)
        if tiny:
            self.seq_cells, self.type_cells, self.avoider_ell = [(4, 3), (5, 3)], [(4, 3)], 6
        else:
            self.seq_cells = [(7, 3), (7, 4), (7, 5), (8, 3), (8, 4)]
            self.type_cells, self.avoider_ell = [(7, 3)], 9
        L = lib
        self.want_seq = {c: (L.syt_sum_squares(*c), L.syt_sum(*c)) for c in self.seq_cells}
        self.want_type = {
            c: {lam: (L.count_syt(lam) ** 2, L.count_syt(lam)) for lam in L.partitions_of(*c)}
            for c in self.type_cells
        }
        self.want_avoiders = {
            k: L.count_avoiders(self.avoider_ell, k, "formula") for k in range(2, 6)
        }
        for k in (2, 3):
            L.count_sequences(4, k)
            L.count_by_type(4, k)
        L.count_avoiders(5, 2, "brute")
        L.count_avoiders(5, 2, "rsk")
        self.size = (f"count_sequences at {self.seq_cells}, count_by_type at {self.type_cells}, "
                     f"count_avoiders brute and rsk at ell={self.avoider_ell}")

    def tasks(self):
        L = self.lib
        out = []
        for ell, k in self.seq_cells:
            want = self.want_seq[(ell, k)]
            out.append((want[0], want, L.count_sequences, (ell, k), {"allow_large": True}))
        for ell, k in self.type_cells:
            want = self.want_type[(ell, k)]
            out.append((sum(a for a, _ in want.values()), want, L.count_by_type, (ell, k),
                        {"allow_large": True}))
        k = self.rng.randint(2, 5)
        words = math.factorial(self.avoider_ell)
        for method in ("brute", "rsk"):
            out.append((words, self.want_avoiders[k], L.count_avoiders,
                        (self.avoider_ell, k, method), {}))
        self.rng.shuffle(out)
        return out

    def run_pass(self, tally: Tally) -> None:
        for ops, want, fn, args, kwargs in self.tasks():
            result, raised = tally.call(fn, *args, **kwargs)
            tally.record(ops, not raised and result == want)


class Verify:
    """The cross-check suite over whole grids, one run_verification per grid."""

    op_unit = "cross-checks"

    def __init__(self, lib, seed: int, tiny: bool) -> None:
        self.lib = lib
        self.rng = random.Random(seed)
        self.grids = [(3, 3), (2, 4)] if tiny else [(6, 5), (5, 6), (5, 5), (4, 7)]
        lib.run_verification(3, 3)
        self.size = f"run_verification over grids (ell_max, k_max) in {self.grids}"

    def run_pass(self, tally: Tally) -> None:
        L = self.lib
        grids = list(self.grids)
        self.rng.shuffle(grids)
        for ell_max, k_max in grids:
            allow = not (ell_max <= 6 and k_max <= 5)
            expected = 7 * ell_max * (k_max - 1)
            results, raised = tally.call(L.run_verification, ell_max, k_max, allow_large=allow)
            passed = 0
            if not raised and len(results) == expected:
                passed = sum(1 for r in results if r.ok)
            tally.ops += expected
            tally.failed += expected - passed


class QueryMix:
    """A closed loop of one client sending command lines to cli.main.

    Keys (ell, k) are skewed toward small ell (weight 1/ell, an assumed
    skew), so popular keys repeat; sizes stay bounded so no single query
    dominates a pass.
    """

    op_unit = "queries"
    SMALL_ELL = 5

    def __init__(self, lib, seed: int, tiny: bool) -> None:
        self.lib = lib
        self.rng = random.Random(seed)
        self.client = Client(lib)
        self.per_pass, self.ell_max, self.k_max = (30, 8, 4) if tiny else (1000, 20, 6)
        self.map_sizes = (4, 8) if tiny else (20, 60)
        self.ells = list(range(1, self.ell_max + 1))
        self.ell_weights = [1 / ell for ell in self.ells]
        counts = oracles.TableauCounts()
        self.counts = counts
        self.sums = {(ell, k): counts.square_sums(ell, k)
                     for ell in self.ells for k in range(2, self.k_max + 1)}
        # small keys: the library's exhaustive routes, run once here
        self.brute = {}
        for ell in range(1, self.SMALL_ELL + 1):
            for k in range(2, self.k_max + 1):
                adm, fixed = lib.count_sequences(ell, k, allow_large=k > 5)
                self.brute[(ell, k)] = (fixed, adm, lib.count_avoiders(ell, k, "brute"))
        self.size = (f"{self.per_pass} queries per pass; ell <= {self.ell_max} with weight 1/ell, "
                     f"k <= {self.k_max}, map sizes {self.map_sizes}, lds words of 5-9 digits")

    # -- request generators -------------------------------------------------

    def _key(self):
        ell = self.rng.choices(self.ells, self.ell_weights)[0]
        return ell, self.rng.randint(2, self.k_max)

    def _expect(self, ell: int, k: int, which: int) -> int:
        """which: 0 for the sum of f, 1 for the sum of f squared."""
        want = self.sums[(ell, k)][which]
        small = self.brute.get((ell, k))
        if small is not None and (small[which] != want or (which and small[2] != want)):
            return -1  # the exhaustive and independent routes disagree: no answer is right
        return want

    def _format(self):
        return ["--format", "json"] if self.rng.random() < 0.5 else []

    @staticmethod
    def _value(out: str, fmt: list[str]) -> int:
        return int(json.loads(out)["count"]) if fmt else int(out.strip())

    def _scalar(self, argv, ell, k, which):
        fmt = self._format()
        want = self._expect(ell, k, which)
        return (argv + fmt, "", lambda code, out: code == 0 and self._value(out, fmt) == want)

    def _mult(self):
        ell, k = self._key()
        n = 2 * ell + self.rng.randint(0, 10)
        want = self._expect(ell, k, 1)
        coeffs, pairings = oracles.weight_data(n, k, ell)

        def check(code, out):
            doc = json.loads(out)
            return (code == 0 and int(doc["multiplicity"]) == want and doc["gamma"] == coeffs
                    and doc["pairings"] == pairings)

        return (["mult", "--n", str(n), "--k", str(k), "--ell", str(ell)], "", check)

    def _tableaux(self):
        ell, k = self._key()
        return self._scalar(["count", "tableaux", "--ell", str(ell), "--max-height", str(k)],
                            ell, k, 0)

    def _tableaux_per_shape(self):
        ell, k = self._key()
        want_total = self._expect(ell, k, 0)
        want_rows = {lam: self.counts.f(lam) for lam in oracles.partitions(ell, k)}

        def check(code, out):
            lines = out.strip().splitlines()
            if code != 0 or lines[0] != "lambda\tf" or lines[-1] != f"total\t{want_total}":
                return False
            rows = {tuple(json.loads(a)): int(b) for a, b in (ln.split("\t") for ln in lines[1:-1])}
            return rows == want_rows

        argv = ["count", "tableaux", "--ell", str(ell), "--max-height", str(k), "--per-shape"]
        return (argv, "", check)

    def _paths(self):
        ell, k = self._key()
        return self._scalar(["count", "paths", "--ell", str(ell), "--k", str(k),
                             "--method", "formula"], ell, k, 1)

    def _self_conjugate(self):
        ell, k = self._key()
        return self._scalar(["count", "self-conjugate", "--ell", str(ell), "--k", str(k),
                             "--method", "formula"], ell, k, 0)

    def _avoiders(self):
        ell, k = self._key()
        return self._scalar(["count", "avoiders", "--ell", str(ell), "--k", str(k),
                             "--method", "formula"], ell, k, 1)

    def _map(self):
        size = self.rng.randint(*self.map_sizes)
        word = list(range(1, size + 1))
        self.rng.shuffle(word)
        rows = oracles.recording_tableau(word)
        return map_roundtrip(rows, max(2, len(rows)) + self.rng.randint(0, 2))

    def _lds(self):
        word = list(range(1, self.rng.randint(5, 9) + 1))
        self.rng.shuffle(word)
        want = str(oracles.lds(word))
        text = "".join(map(str, word)) + "\n"
        return (["lds"], text, lambda code, out: code == 0 and out.strip() == want)

    def _refused(self):
        """Enumeration past the guard without --allow-large: must exit 3."""
        k = str(self.rng.randint(3, 5))
        argv = self.rng.choice([
            ["count", "paths", "--ell", "7", "--k", k, "--method", "brute"],
            ["count", "self-conjugate", "--ell", "7", "--k", k, "--method", "brute"],
            ["count", "paths", "--ell", "7", "--k", k, "--per-shape"],
            ["count", "avoiders", "--ell", "11", "--k", k, "--method", "brute"],
        ])
        return (argv, "", lambda code, out: code == 3 and out == "")

    # Every query type in an equal share, plus a small share of refusals.
    # Neither the shares nor the 1/ell key skew are measured traffic: they
    # are the plainest choices until such data exists.
    ANSWERED = ("_mult", "_tableaux", "_tableaux_per_shape", "_paths", "_self_conjugate",
                "_avoiders", "_map", "_lds")
    REFUSED_SHARE = 0.05

    def requests(self):
        return [self._refused() if self.rng.random() < self.REFUSED_SHARE
                else getattr(self, self.rng.choice(self.ANSWERED))()
                for _ in range(self.per_pass)]

    def run_pass(self, tally: Tally) -> None:
        for request in self.requests():
            send(self.client, tally, request)


WORKLOADS = {"exhaustive": Exhaustive, "verify": Verify, "query_mix": QueryMix}
