"""Command line surface: verbs, formats, exit codes, and error reporting."""

import contextlib
import io
import json
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from latmult import cli, syt_sum, syt_sum_squares
from latmult.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_GUARD,
    EXIT_INTERNAL,
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


# Exact --help of the two path-count verbs, at a fixed 80-column width; only
# count paths takes --per-shape and lists its columns in the epilog.
HELP_GOLDEN = {
    "paths": (
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
    "self-conjugate": (
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
}


@pytest.mark.parametrize("verb", HELP_GOLDEN)
def test_help_golden(capsysbinary, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["count", verb, "--help"]) == EXIT_OK
    assert capsysbinary.readouterr().out == HELP_GOLDEN[verb]


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


class TestUsageErrors:
    def test_missing_required_option(self, capsys):
        code, _, err = run_main(capsys, "count", "paths", "--ell", "4")
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run_main(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_bad_method_choice(self, capsys):
        code, _, _ = run_main(
            capsys, "count", "avoiders", "--ell", "4", "--k", "2", "--method", "guess"
        )
        assert code == EXIT_USAGE


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
    "map sigma": [],
    "lds": ["word"],
    "verify": ["--ell-max", "--k-max"],
}
ALL_OPTIONS = sorted({flag for flags in VERB_OPTIONS.values() for flag in flags} - {"word"})


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
        """main's exit code and stdout."""
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdin", io.StringIO(stdin))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        return code, out.getvalue()

    @settings(max_examples=200)
    @given(argv_st(), STDIN_ST)
    def test_any_argv_and_stdin(self, argv, stdin):
        code, out = self.run(argv, stdin)
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
        code, out = self.run(argv, stdin)
        again, out_again = self.run(argv, stdin)
        assert again == code
        assert out_again.encode() == out.encode()


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
