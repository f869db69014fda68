"""Batch command line front end with stable, machine-readable output.

Each cmd_* handler returns its exit code, its JSON document and its TSV
lines; main alone picks the format and writes stdout in one write, only
after the verb has finished. So exits 2, 3 and 4 leave stdout empty, as
does 130 on an interrupt before that write; 141 means the reader left
while that write was under way.

Exit codes: 0 success (verify: all checks passed), 1 verification failure,
2 usage or input error, 3 resource guard rejection, 4 internal error (one
stderr line), 130 on SIGINT (one stderr line, "interrupted"; the status a
shell gives a process ended by SIGINT), 141 quietly when the reader closes
stdout early (as SIGPIPE).
Exit 2 for count paths --per-shape --method formula: the per-shape table
comes from the path search alone. Only count paths takes --per-shape;
count self-conjugate --per-shape exits 2. Only map tau takes --k; map
sigma --k exits 2 before reading stdin.
Exit 3 for the enumeration guard: count paths --method brute or
--per-shape and count self-conjugate --method brute past ell 6 or k 5
(enumeration.GUARD_ELL, GUARD_K), and verify on a grid past it, which it
meets before the avoider and tableau guards. Exit 3 for count avoiders:
--method rsk past ell 9, --method brute past ell 10; map tau past
(k-1)*ell = 100 000 (TAU_GUARD_CELLS), ell the tableau's size; map and lds
on more than 1 MiB (2**20 characters) of stdin (STDIN_LIMIT_CHARS).

build_parser declares each verb once, as one row of a table, and builds
every verb; it gives options only to the verbs whose names argv holds as
tokens, the only verbs argparse can dispatch to. The table is built per
call, so a rebound cmd_* handler (as perfbench's tracer installs) is the
one main dispatches to.
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
from latmult.partitions import count_syt, partitions_of, syt_sum, syt_sum_squares
from latmult.verify import render_report, run_verification
from latmult.weights import gamma, multiplicity, weight_pairings

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

# map tau builds k-1 paths of 2*ell moves, in time and memory linear in
# (k-1)*ell; past this bound that takes seconds and grows without limit
TAU_GUARD_CELLS = 100_000

# map and lds read at most this many characters of stdin; the largest
# tableau the tau guard allows (one row of 100 000 cells) is 688 897
# characters of JSON, and its map tau output 200 039
STDIN_LIMIT_CHARS = 1 << 20

# What a verb hands back to main: (exit code, JSON document, TSV lines).
Output = tuple[int, object, list]

# count paths --per-shape: the columns after lambda, in order
PER_SHAPE_COLUMNS = ("f", "f_squared", "brute_admissible", "brute_self_conjugate")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv: every verb with its help and defaults, and the
    options of each verb whose names all appear as tokens of argv. Without
    argv, every verb's options: the full parser."""
    tokens = None if argv is None else set(argv)
    parser = argparse.ArgumentParser(
        prog="latmult",
        description="Exact counts of nested lattice path families, standard tableaux, "
                    "pattern-avoiding permutations, and matching affine weight multiplicities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = sub.add_parser("count", help="exact counting commands")
    what = count.add_subparsers(dest="what", required=True)

    def number(flag, help=None):  # a required integer option
        return flag, {"type": int, "required": True, "help": help}

    square = [number("--ell", "square size"), number("--k", "one more than the path count"),
              ("--method", {"choices": ["brute", "formula"], "default": None})]
    # One row per verb, built per call so that main dispatches to whatever
    # cmd_* is bound when it runs: names, help, epilog, default --format,
    # handler, fixed defaults, and the verb's own options in order.
    for names, summary, epilog, default_format, handler, fixed, options in (
        (("count", "tableaux"), "total standard tableaux with bounded height",
         "TSV columns with --per-shape: lambda, f; a final 'total' row closes the table.",
         "tsv", cmd_count_tableaux, {},
         [number("--ell", "number of cells"), number("--max-height", "height bound (>= 2)"),
          ("--per-shape", {"action": "store_true", "help": "one output row per partition"})]),
        (("count", "paths"), "admissible nested path sequences",
         f"TSV columns with --per-shape: {', '.join(('lambda',) + PER_SHAPE_COLUMNS)}.",
         "tsv", cmd_count_paths, {"self_conjugate": False, "per_shape": False},
         square + [("--per-shape", {"action": "store_true", "help":
                                    "per-type table with formula and enumeration columns"})]),
        (("count", "self-conjugate"), "reflection-fixed admissible sequences", None,
         "tsv", cmd_count_paths, {"self_conjugate": True, "per_shape": False}, square),
        (("count", "avoiders"), "permutations with bounded decreasing runs", None,
         "tsv", cmd_count_avoiders, {},
         [number("--ell", "word length"), number("--k", "longest allowed decreasing run"),
          ("--method", {"choices": ["brute", "rsk", "formula"], "default": "formula"})]),
        (("mult",), "maximal dominant weight multiplicity", None, "json", cmd_mult, {},
         [number("--n", "rank parameter (>= 2)"), number("--k", "level (>= 2)"),
          number("--ell", "family index, 1..floor(n/2)")]),
        (("map",), "apply a bijection to JSON read from stdin", None, "json", cmd_map, {},
         [("direction", {"choices": ["tau", "sigma"],
                         "help": "tau: tableau to path sequence; sigma: the inverse"}),
          ("--k", {"type": int, "default": None,
                   "help": "path count parameter for tau (default: tableau height, min 2)"})]),
        (("lds",), "longest decreasing subsequence of a one-line word", None, "tsv", cmd_lds, {},
         [("word", {"nargs": "?", "default": None,
                    "help": "digits, e.g. 26873415 (read from stdin when omitted)"})]),
        (("verify",), "run the cross-check suite over an (ell, k) grid", None, "tsv", cmd_verify,
         {}, [number("--ell-max"), number("--k-max")]),
    ):
        verb = (what if names[0] == "count" else sub).add_parser(
            names[-1], help=summary, epilog=epilog)
        if tokens is None or tokens.issuperset(names):
            for flag, kwargs in options + [
                ("--format", {"choices": ["json", "tsv"], "default": default_format,
                              "help": "output format (default depends on the command)"}),
                ("--allow-large", {"action": "store_true", "help": "override resource guards"}),
            ]:
                verb.add_argument(flag, **kwargs)
        verb.set_defaults(handler=handler, **fixed)
    return parser


def _compact(values) -> str:
    return json.dumps(list(values), separators=(",", ":"))


def cmd_count_tableaux(args) -> Output:
    if args.max_height < 2:  # checked here, where syt_sum's check would name it k
        raise ValueError(f"--max-height must be >= 2, got {args.max_height}")
    meta = {"ell": args.ell, "max_height": args.max_height}
    if not args.per_shape:
        total = syt_sum(args.ell, args.max_height)
        return EXIT_OK, {**meta, "count": str(total)}, [total]
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


def _read_stdin(args) -> str:
    """All of stdin, refused past STDIN_LIMIT_CHARS unless --allow-large."""
    text = sys.stdin.read(STDIN_LIMIT_CHARS + 1)
    if len(text) <= STDIN_LIMIT_CHARS:
        return text
    check_guard(False, args.allow_large, f"{args.command} stdin exceeds the default guard "
                f"(at most {STDIN_LIMIT_CHARS} characters)")
    return text + sys.stdin.read()


def cmd_map(args) -> Output:
    if args.direction == "sigma" and args.k is not None:
        raise ValueError("--k is for map tau only")
    payload = json.loads(_read_stdin(args))
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
    text = args.word if args.word is not None else _read_stdin(args)
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
    # one list, so an iterator serves both build_parser and parse_args
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for a usage error
        return exc.code
    try:
        code, doc, lines = args.handler(args)
        if args.format == "json":
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as exc:
        first_line = str(exc).partition("\n")[0]
        print(f"internal error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
