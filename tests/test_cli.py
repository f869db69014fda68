"""Command line surface: verbs, formats, exit codes, and error reporting."""

import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from latmult import cli, syt_sum, syt_sum_squares
from latmult.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_GUARD,
    EXIT_INTERNAL,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from latmult.guards import ResourceLimitError


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_main_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run_main(capsys, *argv)


TABLEAU = "[[1, 3], [2, 6], [4], [5]]"
SEQUENCE = '{"ell": 6, "k": 4, "paths": ["RURRRURUUURU", "RURURURURURU", "RURUUURRRURU"]}'

# Exact stdout and exit code of each verb in each format. A change of
# whitespace, key order or line order shows here even where the parsed
# values stay equal.
GOLDEN = [
    pytest.param(
        "count tableaux --ell 5 --max-height 4",
        None, EXIT_OK,
        b'25\n',
        id="tableaux-tsv",
    ),
    pytest.param(
        "count tableaux --ell 5 --max-height 4 --format json",
        None, EXIT_OK,
        b'{"ell": 5, "max_height": 4, "count": "25"}\n',
        id="tableaux-json",
    ),
    pytest.param(
        "count tableaux --ell 5 --max-height 4 --per-shape",
        None, EXIT_OK,
        (
            b'lambda\tf\n[5]\t1\n[4,1]\t4\n[3,2]\t5\n[3,1,1]\t6\n[2,2,1]\t5\n[2,1,1,1]\t4\n'
            b'total\t25\n'
        ),
        id="tableaux-per-shape-tsv",
    ),
    pytest.param(
        "count tableaux --ell 5 --max-height 4 --per-shape --format json",
        None, EXIT_OK,
        (
            b'{"ell": 5, "max_height": 4, "total": "25", "per_shape": [{"partition": [5], '
            b'"count": "1"}, {"partition": [4, 1], "count": "4"}, {"partition": [3, 2], '
            b'"count": "5"}, {"partition": [3, 1, 1], "count": "6"}, {"partition": [2, 2, 1], '
            b'"count": "5"}, {"partition": [2, 1, 1, 1], "count": "4"}]}\n'
        ),
        id="tableaux-per-shape-json",
    ),
    pytest.param(
        "count paths --ell 4 --k 3",
        None, EXIT_OK,
        b'23\n',
        id="paths-tsv",
    ),
    pytest.param(
        "count paths --ell 4 --k 3 --method brute --format json",
        None, EXIT_OK,
        b'{"ell": 4, "k": 3, "method": "brute", "count": "23"}\n',
        id="paths-json",
    ),
    pytest.param(
        "count paths --ell 3 --k 3 --per-shape",
        None, EXIT_OK,
        (
            b'lambda\tf\tf_squared\tbrute_admissible\tbrute_self_conjugate\n[3]\t1\t1\t1\t1\n'
            b'[2,1]\t2\t4\t4\t2\n[1,1,1]\t1\t1\t1\t1\n'
        ),
        id="paths-per-shape-tsv",
    ),
    pytest.param(
        "count paths --ell 3 --k 3 --per-shape --format json",
        None, EXIT_OK,
        (
            b'{"ell": 3, "k": 3, "per_shape": [{"partition": [3], "f": "1", "f_squared": "1", '
            b'"brute_admissible": "1", "brute_self_conjugate": "1"}, {"partition": [2, 1], '
            b'"f": "2", "f_squared": "4", "brute_admissible": "4", '
            b'"brute_self_conjugate": "2"}, {"partition": [1, 1, 1], "f": "1", '
            b'"f_squared": "1", "brute_admissible": "1", "brute_self_conjugate": "1"}]}\n'
        ),
        id="paths-per-shape-json",
    ),
    pytest.param(
        "count self-conjugate --ell 4 --k 3",
        None, EXIT_OK,
        b'9\n',
        id="self-conjugate-tsv",
    ),
    pytest.param(
        "count self-conjugate --ell 4 --k 3 --method brute --format json",
        None, EXIT_OK,
        b'{"ell": 4, "k": 3, "method": "brute", "count": "9"}\n',
        id="self-conjugate-json",
    ),
    pytest.param(
        # the per-shape table is count paths --per-shape's alone
        "count self-conjugate --ell 3 --k 3 --per-shape",
        None, EXIT_USAGE,
        b'',
        id="self-conjugate-per-shape-refused",
    ),
    pytest.param(
        "count avoiders --ell 7 --k 2 --method rsk",
        None, EXIT_OK,
        b'429\n',
        id="avoiders-tsv",
    ),
    pytest.param(
        "count avoiders --ell 5 --k 4 --format json",
        None, EXIT_OK,
        b'{"ell": 5, "k": 4, "method": "formula", "count": "119"}\n',
        id="avoiders-json",
    ),
    pytest.param(
        "mult --n 10 --k 4 --ell 5",
        None, EXIT_OK,
        (
            b'{"n": 10, "k": 4, "ell": 5, "gamma": [5, 4, 3, 2, 1, 0, 1, 2, 3, 4], '
            b'"pairings": [2, 0, 0, 0, 0, 2, 0, 0, 0, 0], "multiplicity": "119"}\n'
        ),
        id="mult-json",
    ),
    pytest.param(
        "mult --n 10 --k 4 --ell 5 --format tsv",
        None, EXIT_OK,
        (
            b'gamma\t[5,4,3,2,1,0,1,2,3,4]\npairings\t[2,0,0,0,0,2,0,0,0,0]\n'
            b'multiplicity\t119\n'
        ),
        id="mult-tsv",
    ),
    pytest.param(
        "map tau --k 4",
        TABLEAU, EXIT_OK,
        b'{"ell": 6, "k": 4, "paths": ["RURRRURUUURU", "RURURURURURU", "RURUUURRRURU"]}\n',
        id="tau-json",
    ),
    pytest.param(
        "map tau --k 4 --format tsv",
        TABLEAU, EXIT_OK,
        b'RURRRURUUURU\nRURURURURURU\nRURUUURRRURU\n',
        id="tau-tsv",
    ),
    pytest.param(
        "map sigma",
        SEQUENCE, EXIT_OK,
        b'[[1, 3], [2, 6], [4], [5]]\n',
        id="sigma-json",
    ),
    pytest.param(
        "map sigma --format tsv",
        SEQUENCE, EXIT_OK,
        b'1\t3\n2\t6\n4\n5\n',
        id="sigma-tsv",
    ),
    pytest.param(
        "lds 26873415",
        None, EXIT_OK,
        b'4\n',
        id="lds-argument",
    ),
    pytest.param(
        "lds",
        "26873415\n", EXIT_OK,
        b'4\n',
        id="lds-stdin",
    ),
    pytest.param(
        "lds 26873415 --format json",
        None, EXIT_OK,
        b'{"word": [2, 6, 8, 7, 3, 4, 1, 5], "lds": 4}\n',
        id="lds-json",
    ),
    pytest.param(
        "verify --ell-max 2 --k-max 3",
        None, EXIT_OK,
        (
            b'PASS admissible-count ell=1 k=2\nPASS self-conjugate-count ell=1 k=2\n'
            b'PASS per-type-counts ell=1 k=2\nPASS tableau-roundtrip ell=1 k=2\n'
            b'PASS sequence-roundtrip ell=1 k=2\nPASS split-join-roundtrip ell=1 k=2\n'
            b'PASS avoider-counts ell=1 k=2\nPASS admissible-count ell=1 k=3\n'
            b'PASS self-conjugate-count ell=1 k=3\nPASS per-type-counts ell=1 k=3\n'
            b'PASS tableau-roundtrip ell=1 k=3\nPASS sequence-roundtrip ell=1 k=3\n'
            b'PASS split-join-roundtrip ell=1 k=3\nPASS avoider-counts ell=1 k=3\n'
            b'PASS admissible-count ell=2 k=2\nPASS self-conjugate-count ell=2 k=2\n'
            b'PASS per-type-counts ell=2 k=2\nPASS tableau-roundtrip ell=2 k=2\n'
            b'PASS sequence-roundtrip ell=2 k=2\nPASS split-join-roundtrip ell=2 k=2\n'
            b'PASS avoider-counts ell=2 k=2\nPASS admissible-count ell=2 k=3\n'
            b'PASS self-conjugate-count ell=2 k=3\nPASS per-type-counts ell=2 k=3\n'
            b'PASS tableau-roundtrip ell=2 k=3\nPASS sequence-roundtrip ell=2 k=3\n'
            b'PASS split-join-roundtrip ell=2 k=3\nPASS avoider-counts ell=2 k=3\n'
            b'28/28 checks passed\n'
        ),
        id="verify-tsv",
    ),
    pytest.param(
        "verify --ell-max 2 --k-max 3 --format json",
        None, EXIT_OK,
        (
            b'{"checks": [{"name": "admissible-count", "ell": 1, "k": 2, "ok": true}, '
            b'{"name": "self-conjugate-count", "ell": 1, "k": 2, "ok": true}, '
            b'{"name": "per-type-counts", "ell": 1, "k": 2, "ok": true}, '
            b'{"name": "tableau-roundtrip", "ell": 1, "k": 2, "ok": true}, '
            b'{"name": "sequence-roundtrip", "ell": 1, "k": 2, "ok": true}, '
            b'{"name": "split-join-roundtrip", "ell": 1, "k": 2, "ok": true}, '
            b'{"name": "avoider-counts", "ell": 1, "k": 2, "ok": true}, '
            b'{"name": "admissible-count", "ell": 1, "k": 3, "ok": true}, '
            b'{"name": "self-conjugate-count", "ell": 1, "k": 3, "ok": true}, '
            b'{"name": "per-type-counts", "ell": 1, "k": 3, "ok": true}, '
            b'{"name": "tableau-roundtrip", "ell": 1, "k": 3, "ok": true}, '
            b'{"name": "sequence-roundtrip", "ell": 1, "k": 3, "ok": true}, '
            b'{"name": "split-join-roundtrip", "ell": 1, "k": 3, "ok": true}, '
            b'{"name": "avoider-counts", "ell": 1, "k": 3, "ok": true}, '
            b'{"name": "admissible-count", "ell": 2, "k": 2, "ok": true}, '
            b'{"name": "self-conjugate-count", "ell": 2, "k": 2, "ok": true}, '
            b'{"name": "per-type-counts", "ell": 2, "k": 2, "ok": true}, '
            b'{"name": "tableau-roundtrip", "ell": 2, "k": 2, "ok": true}, '
            b'{"name": "sequence-roundtrip", "ell": 2, "k": 2, "ok": true}, '
            b'{"name": "split-join-roundtrip", "ell": 2, "k": 2, "ok": true}, '
            b'{"name": "avoider-counts", "ell": 2, "k": 2, "ok": true}, '
            b'{"name": "admissible-count", "ell": 2, "k": 3, "ok": true}, '
            b'{"name": "self-conjugate-count", "ell": 2, "k": 3, "ok": true}, '
            b'{"name": "per-type-counts", "ell": 2, "k": 3, "ok": true}, '
            b'{"name": "tableau-roundtrip", "ell": 2, "k": 3, "ok": true}, '
            b'{"name": "sequence-roundtrip", "ell": 2, "k": 3, "ok": true}, '
            b'{"name": "split-join-roundtrip", "ell": 2, "k": 3, "ok": true}, '
            b'{"name": "avoider-counts", "ell": 2, "k": 3, "ok": true}], "passed": 28, '
            b'"total": 28}\n'
        ),
        id="verify-json",
    ),
    pytest.param(
        "count paths --ell 9 --k 5 --method brute",
        None, EXIT_GUARD,
        b'',
        id="guard-refusal",
    ),
    pytest.param(
        "count paths --ell 4",
        None, EXIT_USAGE,
        b'',
        id="usage-error",
    ),
]


@pytest.mark.parametrize("argv, stdin, code, out", GOLDEN)
def test_golden_stdout(capsysbinary, monkeypatch, argv, stdin, code, out):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv.split()) == code
    assert capsysbinary.readouterr().out == out


# Exact --help at a fixed 80-column width of the root, each group and each
# verb, keyed by the words before --help; only count paths takes --per-shape
# and lists its columns in the epilog.
HELP_GOLDEN = {
    "count paths": (
        b'usage: latmult count paths [-h] --ell ELL --k K [--method {brute,formula}]\n'
        b'                           [--per-shape] [--format {json,tsv}] [--allow-large]\n'
        b'\n'
        b'options:\n'
        b'  -h, --help            show this help message and exit\n'
        b'  --ell ELL             square size\n'
        b'  --k K                 one more than the path count\n'
        b'  --method {brute,formula}\n'
        b'  --per-shape           per-type table with formula and enumeration columns\n'
        b'  --format {json,tsv}   output format (default depends on the command)\n'
        b'  --allow-large         override resource guards\n'
        b'\n'
        b'TSV columns with --per-shape: lambda, f, f_squared, brute_admissible,\n'
        b'brute_self_conjugate.\n'
    ),
    "count self-conjugate": (
        b'usage: latmult count self-conjugate [-h] --ell ELL --k K\n'
        b'                                    [--method {brute,formula}]\n'
        b'                                    [--format {json,tsv}] [--allow-large]\n'
        b'\n'
        b'options:\n'
        b'  -h, --help            show this help message and exit\n'
        b'  --ell ELL             square size\n'
        b'  --k K                 one more than the path count\n'
        b'  --method {brute,formula}\n'
        b'  --format {json,tsv}   output format (default depends on the command)\n'
        b'  --allow-large         override resource guards\n'
    ),
    "": (
        b'usage: latmult [-h] {count,mult,map,lds,verify} ...\n'
        b'\n'
        b'Exact counts of nested lattice path families, standard tableaux, pattern-\n'
        b'avoiding permutations, and matching affine weight multiplicities.\n'
        b'\n'
        b'positional arguments:\n'
        b'  {count,mult,map,lds,verify}\n'
        b'    count               exact counting commands\n'
        b'    mult                maximal dominant weight multiplicity\n'
        b'    map                 apply a bijection to JSON read from stdin\n'
        b'    lds                 longest decreasing subsequence of a one-line word\n'
        b'    verify              run the cross-check suite over an (ell, k) grid\n'
        b'\n'
        b'options:\n'
        b'  -h, --help            show this help message and exit\n'
    ),
    "count": (
        b'usage: latmult count [-h] {tableaux,paths,self-conjugate,avoiders} ...\n'
        b'\n'
        b'positional arguments:\n'
        b'  {tableaux,paths,self-conjugate,avoiders}\n'
        b'    tableaux            total standard tableaux with bounded height\n'
        b'    paths               admissible nested path sequences\n'
        b'    self-conjugate      reflection-fixed admissible sequences\n'
        b'    avoiders            permutations with bounded decreasing runs\n'
        b'\n'
        b'options:\n'
        b'  -h, --help            show this help message and exit\n'
    ),
    "map": (
        b'usage: latmult map [-h] [--k K] [--format {json,tsv}] [--allow-large]\n'
        b'                   {tau,sigma}\n'
        b'\n'
        b'positional arguments:\n'
        b'  {tau,sigma}          tau: tableau to path sequence; sigma: the inverse\n'
        b'\n'
        b'options:\n'
        b'  -h, --help           show this help message and exit\n'
        b'  --k K                path count parameter for tau (default: tableau height,\n'
        b'                       min 2)\n'
        b'  --format {json,tsv}  output format (default depends on the command)\n'
        b'  --allow-large        override resource guards\n'
    ),
    "count tableaux": (
        b'usage: latmult count tableaux [-h] --ell ELL --max-height MAX_HEIGHT\n'
        b'                              [--per-shape] [--format {json,tsv}]\n'
        b'                              [--allow-large]\n'
        b'\n'
        b'options:\n'
        b'  -h, --help            show this help message and exit\n'
        b'  --ell ELL             number of cells\n'
        b'  --max-height MAX_HEIGHT\n'
        b'                        height bound (>= 2)\n'
        b'  --per-shape           one output row per partition\n'
        b'  --format {json,tsv}   output format (default depends on the command)\n'
        b'  --allow-large         override resource guards\n'
        b'\n'
        b"TSV columns with --per-shape: lambda, f; a final 'total' row closes the table.\n"
    ),
    "count avoiders": (
        b'usage: latmult count avoiders [-h] --ell ELL --k K\n'
        b'                              [--method {brute,rsk,formula}]\n'
        b'                              [--format {json,tsv}] [--allow-large]\n'
        b'\n'
        b'options:\n'
        b'  -h, --help            show this help message and exit\n'
        b'  --ell ELL             word length\n'
        b'  --k K                 longest allowed decreasing run\n'
        b'  --method {brute,rsk,formula}\n'
        b'  --format {json,tsv}   output format (default depends on the command)\n'
        b'  --allow-large         override resource guards\n'
    ),
    "mult": (
        b'usage: latmult mult [-h] --n N --k K --ell ELL [--format {json,tsv}]\n'
        b'                    [--allow-large]\n'
        b'\n'
        b'options:\n'
        b'  -h, --help           show this help message and exit\n'
        b'  --n N                rank parameter (>= 2)\n'
        b'  --k K                level (>= 2)\n'
        b'  --ell ELL            family index, 1..floor(n/2)\n'
        b'  --format {json,tsv}  output format (default depends on the command)\n'
        b'  --allow-large        override resource guards\n'
    ),
    "lds": (
        b'usage: latmult lds [-h] [--format {json,tsv}] [--allow-large] [word]\n'
        b'\n'
        b'positional arguments:\n'
        b'  word                 digits, e.g. 26873415 (read from stdin when omitted)\n'
        b'\n'
        b'options:\n'
        b'  -h, --help           show this help message and exit\n'
        b'  --format {json,tsv}  output format (default depends on the command)\n'
        b'  --allow-large        override resource guards\n'
    ),
    "verify": (
        b'usage: latmult verify [-h] --ell-max ELL_MAX --k-max K_MAX\n'
        b'                      [--format {json,tsv}] [--allow-large]\n'
        b'\n'
        b'options:\n'
        b'  -h, --help           show this help message and exit\n'
        b'  --ell-max ELL_MAX\n'
        b'  --k-max K_MAX\n'
        b'  --format {json,tsv}  output format (default depends on the command)\n'
        b'  --allow-large        override resource guards\n'
    ),
}


@pytest.mark.parametrize("verb", HELP_GOLDEN,
                         ids=lambda verb: verb.removeprefix("count ") or "root")
def test_help_golden(capsysbinary, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*verb.split(), "--help"]) == EXIT_OK
    assert capsysbinary.readouterr().out == HELP_GOLDEN[verb]


def _choices(*names) -> bytes:
    """A choice list as this Python's argparse writes it after "invalid
    choice": quoted ('a', 'b') by older releases, bare (a, b) by newer."""
    probe = argparse.ArgumentParser(exit_on_error=False)
    probe.add_argument("x", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as caught:
        probe.parse_args(["b"])
    quoted = "'a'" in str(caught.value)
    return ", ".join(map(repr if quoted else str, names)).encode()


# Exact stderr of usage errors, at a fixed 80-column width: exit 2 and empty
# stdout, with the usage line of the parser that met the error.
USAGE_GOLDEN = [
    pytest.param(
        "frobnicate",
        (
            b'usage: latmult [-h] {count,mult,map,lds,verify} ...\n'
            b"latmult: error: argument command: invalid choice: 'frobnicate' "
            b'(choose from ' + _choices("count", "mult", "map", "lds", "verify") + b')\n'
        ),
        id="unknown-verb",
    ),
    pytest.param(
        "count paths --ell 4",
        (
            b'usage: latmult count paths [-h] --ell ELL --k K [--method {brute,formula}]\n'
            b'                           [--per-shape] [--format {json,tsv}] [--allow-large]\n'
            b'latmult count paths: error: the following arguments are required: --k\n'
        ),
        id="missing-option",
    ),
    pytest.param(
        "count avoiders --ell 4 --k 2 --method guess",
        (
            b'usage: latmult count avoiders [-h] --ell ELL --k K\n'
            b'                              [--method {brute,rsk,formula}]\n'
            b'                              [--format {json,tsv}] [--allow-large]\n'
            b"latmult count avoiders: error: argument --method: invalid choice: 'guess' "
            b'(choose from ' + _choices("brute", "rsk", "formula") + b')\n'
        ),
        id="bad-method",
    ),
    pytest.param(
        "count self-conjugate --ell 4 --k 2 --per-shape",
        (
            b'usage: latmult [-h] {count,mult,map,lds,verify} ...\n'
            b'latmult: error: unrecognized arguments: --per-shape\n'
        ),
        id="self-conjugate-per-shape",
    ),
    pytest.param(
        "map",
        (
            b'usage: latmult map [-h] [--k K] [--format {json,tsv}] [--allow-large]\n'
            b'                   {tau,sigma}\n'
            b'latmult map: error: the following arguments are required: direction\n'
        ),
        id="bare-map",
    ),
    pytest.param(
        "count tableaux --ell 3 --max-height 1",
        b'error: --max-height must be >= 2, got 1\n',
        id="max-height-below-2",
    ),
]


@pytest.mark.parametrize("argv, err", USAGE_GOLDEN)
def test_usage_error_golden(capsysbinary, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv.split()) == EXIT_USAGE
    assert capsysbinary.readouterr() == (b'', err)


class TestCountTableaux:
    def test_scalar_tsv(self, capsys):
        code, out, _ = run_main(capsys, "count", "tableaux", "--ell", "6", "--max-height", "5")
        assert code == EXIT_OK
        assert out.strip() == "75"

    def test_scalar_json(self, capsys):
        code, out, _ = run_main(
            capsys, "count", "tableaux", "--ell", "5", "--max-height", "4", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {"ell": 5, "max_height": 4, "count": "25"}

    def test_per_shape_table(self, capsys):
        code, out, _ = run_main(
            capsys, "count", "tableaux", "--ell", "5", "--max-height", "4", "--per-shape"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda\tf"
        assert lines[1] == "[5]\t1"
        assert lines[-1] == "total\t25"
        body = [line.split("\t") for line in lines[1:-1]]
        assert [int(f) for _, f in body] == [1, 4, 5, 6, 5, 4]


class TestCountPaths:
    @pytest.mark.parametrize("method", ["formula", "brute"])
    def test_admissible_scalar(self, capsys, method):
        code, out, _ = run_main(
            capsys, "count", "paths", "--ell", "4", "--k", "3", "--method", method
        )
        assert code == EXIT_OK
        assert out.strip() == str(syt_sum_squares(4, 3))

    @pytest.mark.parametrize("method", ["formula", "brute"])
    def test_self_conjugate_scalar(self, capsys, method):
        code, out, _ = run_main(
            capsys, "count", "self-conjugate", "--ell", "4", "--k", "3", "--method", method
        )
        assert code == EXIT_OK
        assert out.strip() == str(syt_sum(4, 3))

    def test_per_shape_columns(self, capsys):
        code, out, _ = run_main(
            capsys, "count", "paths", "--ell", "4", "--k", "3", "--per-shape"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda\tf\tf_squared\tbrute_admissible\tbrute_self_conjugate"
        for line in lines[1:]:
            _, f, f2, adm, fixed = line.split("\t")
            assert int(f2) == int(f) ** 2
            assert int(adm) == int(f2)
            assert int(fixed) == int(f)

    def test_per_shape_json(self, capsys):
        code, out, _ = run_main(
            capsys, "count", "paths", "--ell", "3", "--k", "3", "--per-shape",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [row["partition"] for row in payload["per_shape"]] == [[3], [2, 1], [1, 1, 1]]
        for row in payload["per_shape"]:
            assert row["brute_admissible"] == row["f_squared"]
            assert row["brute_self_conjugate"] == row["f"]

    @pytest.mark.parametrize("verb", ["paths"])
    @pytest.mark.parametrize("ell", ["3", "9"])
    def test_per_shape_refuses_formula(self, capsys, verb, ell):
        # the table comes from the search alone, so an explicit --method
        # formula is refused, inside the guard and past it
        code, out, err = run_main(
            capsys, "count", verb, "--ell", ell, "--k", "5", "--per-shape", "--method", "formula"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1 and "--per-shape" in err
        # without --method, or with --method brute, the table is printed
        _, table, _ = run_main(capsys, "count", verb, "--ell", "3", "--k", "5", "--per-shape")
        assert run_main(capsys, "count", verb, "--ell", "3", "--k", "5", "--per-shape",
                        "--method", "brute") == (EXIT_OK, table, "")

    def test_guard_exit_code(self, capsys):
        code, out, err = run_main(
            capsys, "count", "paths", "--ell", "9", "--k", "5", "--method", "brute"
        )
        assert code == EXIT_GUARD
        assert out == ""
        assert "resource guard" in err
        assert "--allow-large" in err


class TestCountAvoiders:
    @pytest.mark.parametrize("method", ["brute", "rsk", "formula"])
    def test_catalan_entry(self, capsys, method):
        code, out, _ = run_main(
            capsys, "count", "avoiders", "--ell", "7", "--k", "2", "--method", method
        )
        assert code == EXIT_OK
        assert out.strip() == "429"

    def test_json_metadata(self, capsys):
        code, out, _ = run_main(
            capsys, "count", "avoiders", "--ell", "5", "--k", "4", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out) == {"ell": 5, "k": 4, "method": "formula", "count": "119"}

    @pytest.mark.parametrize("method, ell, code", [
        ("brute", 10, EXIT_OK), ("brute", 11, EXIT_GUARD),
        ("rsk", 9, EXIT_OK), ("rsk", 10, EXIT_GUARD),
    ])
    def test_guard_per_route(self, capsys, method, ell, code):
        got, out, err = run_main(
            capsys, "count", "avoiders", "--ell", str(ell), "--k", "2", "--method", method
        )
        assert got == code
        if code == EXIT_OK:
            assert out.strip() == str(syt_sum_squares(ell, 2))
        else:
            assert out == ""
            assert f"method '{method}'" in err


class TestMult:
    def test_json_golden(self, capsys):
        code, out, _ = run_main(capsys, "mult", "--n", "10", "--k", "4", "--ell", "5")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {
            "n": 10,
            "k": 4,
            "ell": 5,
            "gamma": [5, 4, 3, 2, 1, 0, 1, 2, 3, 4],
            "pairings": [2, 0, 0, 0, 0, 2, 0, 0, 0, 0],
            "multiplicity": "119",
        }

    def test_tsv_layout(self, capsys):
        code, out, _ = run_main(
            capsys, "mult", "--n", "7", "--k", "3", "--ell", "3", "--format", "tsv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "gamma\t[3,2,1,0,0,1,2]"
        assert lines[2].startswith("multiplicity\t")

    def test_out_of_range_ell(self, capsys):
        code, out, err = run_main(capsys, "mult", "--n", "6", "--k", "3", "--ell", "4")
        assert code == EXIT_USAGE
        assert "floor(n/2)" in err


class TestMap:
    def test_tau_then_sigma_pipe(self, capsys, monkeypatch):
        tableau = [[1, 3], [2, 6], [4], [5]]
        code, out, _ = run_main_stdin(
            capsys, monkeypatch, json.dumps(tableau), "map", "tau", "--k", "4"
        )
        assert code == EXIT_OK
        sequence = json.loads(out)
        assert sequence == {
            "ell": 6,
            "k": 4,
            "paths": ["RURRRURUUURU", "RURURURURURU", "RURUUURRRURU"],
        }
        code, out, _ = run_main_stdin(capsys, monkeypatch, json.dumps(sequence), "map", "sigma")
        assert code == EXIT_OK
        assert json.loads(out) == tableau

    def test_tau_default_k_is_height(self, capsys, monkeypatch):
        code, out, _ = run_main_stdin(capsys, monkeypatch, "[[1],[2],[3]]", "map", "tau")
        assert code == EXIT_OK
        assert json.loads(out)["k"] == 3

    def test_tau_tsv_lists_paths(self, capsys, monkeypatch):
        code, out, _ = run_main_stdin(
            capsys, monkeypatch, "[[1,2]]", "map", "tau", "--k", "3", "--format", "tsv"
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["RRUU", "RRUU"]

    def test_sigma_tsv_lists_rows(self, capsys, monkeypatch):
        payload = {"ell": 2, "k": 3, "paths": ["RRUU", "RRUU"]}
        code, out, _ = run_main_stdin(
            capsys, monkeypatch, json.dumps(payload), "map", "sigma", "--format", "tsv"
        )
        assert code == EXIT_OK
        assert out.splitlines() == ["1\t2"]

    def test_sigma_refuses_k_before_reading_stdin(self, capsys, monkeypatch):
        # --k is tau's path count; sigma reads k off its input
        stdin = io.StringIO(SEQUENCE)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_main(capsys, "map", "sigma", "--k", "99")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --k is for map tau only\n"
        assert stdin.tell() == 0

    def test_malformed_json_reports_position(self, capsys, monkeypatch):
        code, out, err = run_main_stdin(capsys, monkeypatch, "[[1,3],", "map", "tau")
        assert code == EXIT_USAGE
        assert "malformed JSON at line 1" in err
        assert "char" in err

    def test_semantic_error_is_usage(self, capsys, monkeypatch):
        code, _, err = run_main_stdin(capsys, monkeypatch, "[[2,1]]", "map", "tau")
        assert code == EXIT_USAGE
        assert "error:" in err
        # a JSON boolean or float is no integer, though True == 1 and 2.0 == 2
        sequence = '{"ell": true, "k": 2.0, "paths": ["RU"]}'
        code, out, _ = run_main_stdin(capsys, monkeypatch, sequence, "map", "sigma")
        assert (code, out) == (EXIT_USAGE, "")

    def test_tau_guard_on_k(self, capsys, monkeypatch):
        # refused before any path is built, so a huge k returns at once
        code, out, err = run_main_stdin(
            capsys, monkeypatch, "[[1,2],[3,4]]", "map", "tau", "--k", "10000000"
        )
        assert code == EXIT_GUARD
        assert out == ""
        assert "resource guard" in err
        assert "--allow-large" in err

    @pytest.mark.parametrize("k, allow, code", [
        (4, (), EXIT_OK), (5, (), EXIT_GUARD), (5, ("--allow-large",), EXIT_OK),
    ])
    def test_tau_guard_bound(self, capsys, monkeypatch, k, allow, code):
        # at a bound of 12 cells a 4-cell tableau fits with 3 paths, not with 4
        monkeypatch.setattr(cli, "TAU_GUARD_CELLS", 12)
        got, out, _ = run_main_stdin(
            capsys, monkeypatch, "[[1,2],[3,4]]", "map", "tau", "--k", str(k), *allow
        )
        assert got == code
        if code == EXIT_OK:
            assert len(json.loads(out)["paths"]) == k - 1
        else:
            assert out == ""


class TestLds:
    def test_word_argument(self, capsys):
        code, out, _ = run_main(capsys, "lds", "26873415")
        assert code == EXIT_OK
        assert out.strip() == "4"

    def test_word_on_stdin(self, capsys, monkeypatch):
        code, out, _ = run_main_stdin(capsys, monkeypatch, "26873415\n", "lds")
        assert code == EXIT_OK
        assert out.strip() == "4"

    def test_json_format(self, capsys):
        code, out, _ = run_main(capsys, "lds", "312", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == {"word": [3, 1, 2], "lds": 2}

    def test_bad_word(self, capsys):
        code, _, err = run_main(capsys, "lds", "104")
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("word", ["３１２", "٣١٢", "3²1"], ids=["fullwidth", "arabic-indic", "superscript"])
    @pytest.mark.parametrize("source", ["argument", "stdin"])
    def test_digits_outside_ascii_are_usage_errors(self, capsys, monkeypatch, word, source):
        text, argv = (word, ["lds", word]) if source == "argument" else (word + "\n", ["lds"])
        code, out, err = run_main_stdin(capsys, monkeypatch, text, *argv)  # stdin unread given the word
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: word must be decimal digits like 26873415, got {text!r}\n"


class TestStdinBound:
    """map and lds read at most cli.STDIN_LIMIT_CHARS characters of stdin."""

    def test_largest_tau_input_round_trips(self, capsys, monkeypatch):
        # one row of TAU_GUARD_CELLS cells: the most map tau --k 2 allows
        tableau = [list(range(1, cli.TAU_GUARD_CELLS + 1))]
        text = json.dumps(tableau)
        assert len(text) <= cli.STDIN_LIMIT_CHARS
        code, out, _ = run_main_stdin(capsys, monkeypatch, text, "map", "tau", "--k", "2")
        assert code == EXIT_OK
        assert len(out) <= cli.STDIN_LIMIT_CHARS
        code, out, _ = run_main_stdin(capsys, monkeypatch, out, "map", "sigma")
        assert code == EXIT_OK
        assert json.loads(out) == tableau

    @pytest.mark.parametrize("argv", [("map", "tau"), ("map", "sigma"), ("lds",)])
    def test_past_the_bound_is_refused(self, capsys, monkeypatch, argv):
        text = " " * (cli.STDIN_LIMIT_CHARS + 1)
        code, out, err = run_main_stdin(capsys, monkeypatch, text, *argv)
        assert (code, out) == (EXIT_GUARD, "")
        assert err.startswith("resource guard: ")
        assert err.count("\n") == 1

    def test_allow_large_reads_the_rest(self, capsys, monkeypatch):
        text = "26873415".ljust(cli.STDIN_LIMIT_CHARS + 1) + "\n"
        code, _, _ = run_main_stdin(capsys, monkeypatch, text, "lds")
        assert code == EXIT_GUARD
        code, out, _ = run_main_stdin(capsys, monkeypatch, text, "lds", "--allow-large")
        assert (code, out) == (EXIT_OK, "4\n")


class TestVerify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--ell-max", "3", "--k-max", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_json_format(self, capsys):
        code, out, _ = run_main(
            capsys, "verify", "--ell-max", "2", "--k-max", "2", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["passed"] == payload["total"] > 0
        assert all(check["ok"] for check in payload["checks"])


class TestUnexpectedErrors:
    def test_deep_json_is_internal_error(self, capsys, monkeypatch):
        deep = "[" * 100_000 + "]" * 100_000
        code, out, err = run_main_stdin(capsys, monkeypatch, deep, "map", "tau")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err.startswith("internal error: RecursionError: ")
        assert err.count("\n") == 1

    def test_closed_stdout_is_quiet(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "latmult", "verify", "--ell-max", "3", "--k-max", "3"],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == b""

    def test_interrupt_is_one_stderr_line(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "latmult", "map", "tau"],
            stdin=subprocess.PIPE,  # open and empty: map blocks reading it
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            wchan = f"/proc/{proc.pid}/wchan"
            deadline = time.monotonic() + 30
            while True:
                try:
                    with open(wchan) as f:
                        waiting = f.read()
                except FileNotFoundError:
                    pytest.skip(f"no {wchan} to tell when the process blocks reading stdin")
                if "pipe_read" in waiting:
                    break
                assert proc.poll() is None and time.monotonic() < deadline, "never blocked reading stdin"
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == EXIT_INTERRUPTED
        assert out == b""
        assert err == b"interrupted\n"


class TestStdoutContract:
    """stdout is written once, after the verb has finished, so every exit
    other than 0 and 1 leaves it empty."""

    @pytest.mark.parametrize("exc, code", [
        (ValueError("late"), EXIT_USAGE),
        (ResourceLimitError("late"), EXIT_GUARD),
        (RuntimeError("late"), EXIT_INTERNAL),
    ])
    def test_failure_after_some_rows_writes_nothing(self, capsys, monkeypatch, exc, code):
        real = cli.count_syt

        def count_syt(lam):
            if lam.parts == (2, 1, 1, 1):  # the last row of the table
                raise exc
            return real(lam)

        monkeypatch.setattr(cli, "count_syt", count_syt)
        got, out, _ = run_main(
            capsys, "count", "tableaux", "--ell", "5", "--max-height", "4", "--per-shape"
        )
        assert got == code
        assert out == ""


# Each verb of the real parser with its own options, for the argv property
# test; lds takes its word as a positional argument.
VERB_OPTIONS = {
    "count tableaux": ["--ell", "--max-height", "--per-shape"],
    "count paths": ["--ell", "--k", "--method", "--per-shape"],
    "count self-conjugate": ["--ell", "--k", "--method"],
    "count avoiders": ["--ell", "--k", "--method"],
    "mult": ["--n", "--k", "--ell"],
    "map tau": ["--k"],
    "map sigma": ["--k"],
    "lds": ["word"],
    "verify": ["--ell-max", "--k-max"],
}
ALL_OPTIONS = sorted({flag for flags in VERB_OPTIONS.values() for flag in flags} - {"word"})
SHARED_OPTIONS = {"-h", "--help", "--format", "--allow-large"}


def _verbs_action(parser):
    """parser's subcommand action, or None on a verb that takes no subcommand."""
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def _dispatched(parser, names):
    """The parser argparse hands names to; map's direction is a value of map."""
    for name in names:
        verbs = _verbs_action(parser)
        if verbs is None:
            break
        parser = verbs.choices[name]
    return parser


def _leaf_verbs(parser, names=()):
    """Each verb under parser with its own options, as in VERB_OPTIONS: a
    positional with choices (map's direction) is part of the verb's name."""
    verbs = _verbs_action(parser)
    if verbs is not None:
        for name, child in verbs.choices.items():
            yield from _leaf_verbs(child, names + (name,))
        return
    named_by = [a for a in parser._actions if not a.option_strings and a.choices]
    options = [flag for a in parser._actions if a not in named_by
               for flag in a.option_strings or [a.dest] if flag not in SHARED_OPTIONS]
    for value in named_by[0].choices if named_by else [None]:
        yield " ".join(names + ((value,) if value else ())), options


def test_verb_options_is_the_full_parsers_table():
    # the argv property tests draw from VERB_OPTIONS, so a stale entry
    # would quietly stop them reaching a verb or an option
    assert dict(_leaf_verbs(cli.build_parser())) == VERB_OPTIONS


@pytest.mark.parametrize("names", [(), ("count",), ("map",)]
                         + [tuple(verb.split()) for verb in VERB_OPTIONS],
                         ids=lambda names: " ".join(names) or "root")
def test_help_matches_the_full_parser(capsysbinary, monkeypatch, names):
    # main's parser gives options only to the verbs its argv names
    monkeypatch.setenv("COLUMNS", "80")
    assert main([*names, "--help"]) == EXIT_OK
    want = _dispatched(cli.build_parser(), names).format_help()
    assert capsysbinary.readouterr().out == want.encode()


@pytest.mark.parametrize("wrap", [tuple, iter], ids=["tuple", "iterator"])
def test_argv_may_be_any_iterable(capsys, wrap):
    # build_parser and parse_args must both see every token, even of an
    # iterator that can be read only once
    argv = ["lds", "312", "--format", "json"]
    assert main(argv) == EXIT_OK
    want = capsys.readouterr()
    assert main(wrap(argv)) == EXIT_OK
    assert capsys.readouterr() == want


def test_main_dispatches_to_the_handler_bound_at_call_time(capsys, monkeypatch):
    # perfbench's tracer rebinds cli.cmd_* to timed wrappers; a handler
    # captured at import would bypass them
    monkeypatch.setattr(cli, "cmd_mult", lambda args: (EXIT_OK, {}, [f"rebound n={args.n}"]))
    code, out, _ = run_main(capsys, "mult", "--n", "10", "--k", "4", "--ell", "5",
                            "--format", "tsv")
    assert (code, out) == (EXIT_OK, "rebound n=10\n")


@st.composite
def argv_st(draw):
    """A real verb, whole or cut short, with most of its own options and
    now and then a stray option or junk token, in any order. --allow-large
    is left out: the guard is what keeps the brute routes short, and past
    it one request runs for hours. Integers stay <= 12 (<= 3 under verify),
    since the formula verbs have no guard."""
    rarely = st.integers(0, 9).map(lambda i: i == 9)
    verb = draw(st.sampled_from([*VERB_OPTIONS, "", "count", "map"]))
    number = st.integers(-2, 3 if verb == "verify" else 12).map(str)
    junk = st.one_of(number, st.text(max_size=6))
    values = {
        "--method": st.sampled_from(["brute", "rsk", "formula"]),
        "--format": st.sampled_from(["json", "tsv"]),
        "word": st.integers(1, 9)
        .flatmap(lambda n: st.permutations(range(1, n + 1)))
        .map(lambda w: "".join(map(str, w))),
    }
    groups = []
    for flag in VERB_OPTIONS.get(verb, []) + ["--format"]:
        if draw(rarely):
            continue
        value = draw(junk if draw(rarely) else values.get(flag, number))
        if flag == "--per-shape":
            groups.append([flag])
        elif flag == "word":
            groups.append([value])
        else:
            groups.append([flag, value])
    if draw(rarely):
        groups.append(draw(st.one_of(
            st.tuples(st.sampled_from(ALL_OPTIONS), number),
            st.sampled_from(["--help", "--per-shape"]).map(lambda flag: (flag,)),
            junk.map(lambda token: (token,)),
        )))
    groups = draw(st.permutations(groups))
    return verb.split() + [token for group in groups for token in group]


STDIN_ST = st.one_of(
    st.text(max_size=40),
    st.sampled_from([TABLEAU, SEQUENCE, "[[1]]", "26873415", "", "{}", "[[2, 1]]"]),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3)),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(["ell", "k", "paths", "x"]), inner, max_size=3),
        max_leaves=12,
    ).map(json.dumps),
)


class TestExitCodeContract:
    """Whatever argv and stdin, the exit code is documented, stdout is empty
    unless the code is 0 or 1, and 1 comes from verify alone."""

    @staticmethod
    def run(argv, stdin):
        """main's exit code, stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", io.StringIO(stdin))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=200)
    @given(argv_st(), STDIN_ST)
    def test_any_argv_and_stdin(self, argv, stdin):
        code, out, _ = self.run(argv, stdin)
        assert code in {EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_GUARD, EXIT_INTERNAL}
        if code not in (EXIT_OK, EXIT_VERIFY_FAILED):
            assert out == ""
        if code == EXIT_VERIFY_FAILED:
            assert "verify" in argv

    @settings(max_examples=50)
    @given(argv_st(), STDIN_ST)
    def test_same_request_same_answer(self, argv, stdin):
        # the path search visits in no fixed order, so no verb's output may
        # depend on the order in which it sees things
        code, out, _ = self.run(argv, stdin)
        again, out_again, _ = self.run(argv, stdin)
        assert again == code
        assert out_again.encode() == out.encode()

    @settings(max_examples=200)
    @given(argv_st(), STDIN_ST)
    # values and stray tokens that happen to be verb names
    @example(["map", "tau", "--k", "count"], "[[1]]")
    @example(["lds", "verify"], "")
    @example(["count", "paths", "--ell", "3", "--k", "mult"], "")
    @example(["mult", "count", "paths", "--n", "4"], "")
    @example(["--", "count", "tableaux", "--ell", "3", "--max-height", "2"], "")
    def test_full_parser_gives_the_same_run(self, argv, stdin):
        # main gives options only to the verbs argv names; a parser with
        # every verb's options must not change a byte of the outcome
        full = cli.build_parser
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "build_parser", lambda argv: full())
            want = self.run(argv, stdin)
        assert self.run(argv, stdin) == want


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latmult", "count", "tableaux",
             "--ell", "5", "--max-height", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.strip() == "25"

    def test_console_script(self):
        proc = subprocess.run(
            ["latmult", "mult", "--n", "10", "--k", "4", "--ell", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["multiplicity"] == "119"

    def test_verify_deterministic_output(self):
        command = [sys.executable, "-m", "latmult", "verify", "--ell-max", "4", "--k-max", "4"]
        first = subprocess.run(command, capture_output=True)
        second = subprocess.run(command, capture_output=True)
        assert first.returncode == second.returncode == EXIT_OK
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"checks passed\n")
