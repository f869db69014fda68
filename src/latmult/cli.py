"""Batch command line front end with stable, machine-readable output.

Each cmd_* handler returns its exit code, its JSON document and its TSV
lines; main alone picks the format and writes stdout in one write, only
after the verb has finished. So exits 2, 3 and 4 leave stdout empty; 141
means the reader left while that write was under way.

Exit codes: 0 success (verify: all checks passed), 1 verification failure,
2 usage or input error, 3 resource guard rejection, 4 internal error (one
stderr line), 141 quietly when the reader closes stdout early (as SIGPIPE).
Exit 2 for count paths --per-shape --method formula: the per-shape table
comes from the path search alone. Since 0.5.0 only count paths takes
--per-shape; count self-conjugate --per-shape exits 2.
Exit 3 for count avoiders: --method rsk past ell 9, --method brute past
ell 10; map tau past (k-1)*ell = 100 000 (TAU_GUARD_CELLS), ell the
tableau's size.
"""

import argparse
import json
import os
import sys

from latmult import serialize
from latmult.avoidance import count_avoiders, lds_length
from latmult.bijections import sigma, tau
from latmult.enumeration import count_by_type, count_sequences
from latmult.guards import ResourceLimitError, check_guard
from latmult.partitions import _check_ell_k, count_syt, partitions_of, syt_sum, syt_sum_squares
from latmult.verify import render_report, run_verification
from latmult.weights import gamma, multiplicity, weight_pairings

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

# map tau builds k-1 paths of 2*ell moves, in time and memory linear in
# (k-1)*ell; past this bound that takes seconds and grows without limit
TAU_GUARD_CELLS = 100_000

# What a verb hands back to main: (exit code, JSON document, TSV lines).
Output = tuple[int, object, list]

# count paths --per-shape: the columns after lambda, in order
PER_SHAPE_COLUMNS = ("f", "f_squared", "brute_admissible", "brute_self_conjugate")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "tsv"], default=None,
                   help="output format (default depends on the command)")
    p.add_argument("--allow-large", action="store_true",
                   help="override resource guards")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmult",
        description="Exact counts of nested lattice path families, standard tableaux, "
                    "pattern-avoiding permutations, and matching affine weight multiplicities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="exact counting commands")
    what = count.add_subparsers(dest="what", required=True)

    tab = what.add_parser(
        "tableaux",
        help="total standard tableaux with bounded height",
        epilog="TSV columns with --per-shape: lambda, f; a final 'total' row closes the table.",
    )
    tab.add_argument("--ell", type=int, required=True, help="number of cells")
    tab.add_argument("--max-height", type=int, required=True, help="height bound (>= 2)")
    tab.add_argument("--per-shape", action="store_true", help="one output row per partition")
    _add_common(tab)
    tab.set_defaults(handler=cmd_count_tableaux, default_format="tsv")

    per_shape_columns = ("TSV columns with --per-shape: "
                         f"{', '.join(('lambda',) + PER_SHAPE_COLUMNS)}.")
    for name, summary, self_conjugate, epilog in (
        ("paths", "admissible nested path sequences", False, per_shape_columns),
        ("self-conjugate", "reflection-fixed admissible sequences", True, None),
    ):
        verb = what.add_parser(name, help=summary, epilog=epilog)
        verb.add_argument("--ell", type=int, required=True, help="square size")
        verb.add_argument("--k", type=int, required=True, help="one more than the path count")
        verb.add_argument("--method", choices=["brute", "formula"], default=None)
        if not self_conjugate:
            verb.add_argument("--per-shape", action="store_true",
                              help="per-type table with formula and enumeration columns")
        _add_common(verb)
        verb.set_defaults(handler=cmd_count_paths, self_conjugate=self_conjugate,
                          per_shape=False, default_format="tsv")

    avoid = what.add_parser("avoiders", help="permutations with bounded decreasing runs")
    avoid.add_argument("--ell", type=int, required=True, help="word length")
    avoid.add_argument("--k", type=int, required=True, help="longest allowed decreasing run")
    avoid.add_argument("--method", choices=["brute", "rsk", "formula"], default="formula")
    _add_common(avoid)
    avoid.set_defaults(handler=cmd_count_avoiders, default_format="tsv")

    mult = sub.add_parser("mult", help="maximal dominant weight multiplicity")
    mult.add_argument("--n", type=int, required=True, help="rank parameter (>= 2)")
    mult.add_argument("--k", type=int, required=True, help="level (>= 2)")
    mult.add_argument("--ell", type=int, required=True, help="family index, 1..floor(n/2)")
    _add_common(mult)
    mult.set_defaults(handler=cmd_mult, default_format="json")

    mapping = sub.add_parser("map", help="apply a bijection to JSON read from stdin")
    mapping.add_argument("direction", choices=["tau", "sigma"],
                         help="tau: tableau to path sequence; sigma: the inverse")
    mapping.add_argument("--k", type=int, default=None,
                         help="path count parameter for tau (default: tableau height, min 2)")
    _add_common(mapping)
    mapping.set_defaults(handler=cmd_map, default_format="json")

    lds = sub.add_parser("lds", help="longest decreasing subsequence of a one-line word")
    lds.add_argument("word", nargs="?", default=None,
                     help="digits, e.g. 26873415 (read from stdin when omitted)")
    _add_common(lds)
    lds.set_defaults(handler=cmd_lds, default_format="tsv")

    ver = sub.add_parser("verify", help="run the cross-check suite over an (ell, k) grid")
    ver.add_argument("--ell-max", type=int, required=True)
    ver.add_argument("--k-max", type=int, required=True)
    _add_common(ver)
    ver.set_defaults(handler=cmd_verify, default_format="tsv")

    return parser


def _compact(values) -> str:
    return json.dumps(list(values), separators=(",", ":"))


def cmd_count_tableaux(args) -> Output:
    meta = {"ell": args.ell, "max_height": args.max_height}
    if not args.per_shape:
        total = syt_sum(args.ell, args.max_height)
        return EXIT_OK, {**meta, "count": str(total)}, [total]
    _check_ell_k(args.ell, args.max_height)  # the checks syt_sum makes
    rows = [(lam, count_syt(lam)) for lam in partitions_of(args.ell, args.max_height)]
    total = sum(f for _, f in rows)
    doc = {
        **meta,
        "total": str(total),
        "per_shape": [{"partition": list(lam.parts), "count": str(f)} for lam, f in rows],
    }
    lines = ["lambda\tf", *(f"{_compact(lam.parts)}\t{f}" for lam, f in rows)]
    lines.append(f"total\t{total}")
    return EXIT_OK, doc, lines


def cmd_count_paths(args) -> Output:
    if args.per_shape:
        if args.method == "formula":
            raise ValueError("--per-shape counts by the path search alone; drop --method formula")
        per = count_by_type(args.ell, args.k, allow_large=args.allow_large)
        rows = []
        for lam, (adm, fixed) in per.items():  # keys in partitions_of order
            f = count_syt(lam)
            rows.append((lam, [str(v) for v in (f, f * f, adm, fixed)]))
        doc = {
            "ell": args.ell,
            "k": args.k,
            "per_shape": [
                {"partition": list(lam.parts), **dict(zip(PER_SHAPE_COLUMNS, values))}
                for lam, values in rows
            ],
        }
        lines = ["\t".join(("lambda",) + PER_SHAPE_COLUMNS)]
        lines += ["\t".join([_compact(lam.parts), *values]) for lam, values in rows]
        return EXIT_OK, doc, lines
    meta = {"ell": args.ell, "k": args.k, "method": args.method or "formula"}
    if args.method == "brute":
        admissible, fixed = count_sequences(args.ell, args.k, allow_large=args.allow_large)
        value = fixed if args.self_conjugate else admissible
    else:
        value = (syt_sum if args.self_conjugate else syt_sum_squares)(args.ell, args.k)
    return EXIT_OK, {**meta, "count": str(value)}, [value]


def cmd_count_avoiders(args) -> Output:
    value = count_avoiders(args.ell, args.k, args.method, allow_large=args.allow_large)
    meta = {"ell": args.ell, "k": args.k, "method": args.method}
    return EXIT_OK, {**meta, "count": str(value)}, [value]


def cmd_mult(args) -> Output:
    g = gamma(args.ell, args.n)
    w = weight_pairings(args.k, g)
    value = multiplicity(args.n, args.k, args.ell)
    doc = {
        "n": args.n,
        "k": args.k,
        "ell": args.ell,
        "gamma": list(g.coeffs),
        "pairings": list(w.pairings),
        "multiplicity": str(value),
    }
    lines = [
        f"gamma\t{_compact(g.coeffs)}",
        f"pairings\t{_compact(w.pairings)}",
        f"multiplicity\t{value}",
    ]
    return EXIT_OK, doc, lines


def cmd_map(args) -> Output:
    payload = json.loads(sys.stdin.read())
    if args.direction == "tau":
        x = serialize.tableau_from_json(payload)
        k = args.k if args.k is not None else max(2, x.shape.height)
        check_guard(
            (k - 1) * x.size <= TAU_GUARD_CELLS,
            args.allow_large,
            f"map tau at k={k} on {x.size} cells exceeds the default guard "
            f"((k-1)*ell <= {TAU_GUARD_CELLS})",
        )
        z = tau(x, k)
        return EXIT_OK, serialize.sequence_to_json(z), [p.moves for p in z.paths]
    z = serialize.sequence_from_json(payload)
    x = sigma(z)
    rows = ["\t".join(str(e) for e in row) for row in x.rows]
    return EXIT_OK, serialize.tableau_to_json(x), rows


def cmd_lds(args) -> Output:
    text = args.word if args.word is not None else sys.stdin.read()
    w = serialize.permutation_from_word(text)
    value = lds_length(w)
    return EXIT_OK, {"word": list(w.word), "lds": value}, [value]


def cmd_verify(args) -> Output:
    results = run_verification(args.ell_max, args.k_max, allow_large=args.allow_large)
    doc = {
        "checks": [
            {"name": r.name, "ell": r.ell, "k": r.k, "ok": r.ok,
             **({"detail": r.detail} if not r.ok else {})}
            for r in results
        ],
        "passed": sum(r.ok for r in results),
        "total": len(results),
    }
    code = EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED
    return code, doc, [render_report(results)]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code, doc, lines = args.handler(args)
        if (args.format or args.default_format) == "json":
            text = json.dumps(doc) + "\n"
        else:
            text = "".join(f"{line}\n" for line in lines)
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except json.JSONDecodeError as exc:
        print(f"malformed JSON at line {exc.lineno} column {exc.colno} (char {exc.pos}): {exc.msg}",
              file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # send what is still buffered nowhere, so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        first_line = str(exc).partition("\n")[0]
        print(f"internal error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
