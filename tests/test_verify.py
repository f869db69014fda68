"""Cross-check suite: result formatting, grid coverage, and failure surfacing."""

import pytest

from latmult import render_report, run_verification
from latmult.verify import CheckResult

EXPECTED_CHECKS = (
    "admissible-count",
    "self-conjugate-count",
    "per-type-counts",
    "tableau-roundtrip",
    "sequence-roundtrip",
    "split-join-roundtrip",
    "avoider-counts",
)


class TestCheckResult:
    def test_pass_line_has_no_detail(self):
        r = CheckResult("admissible-count", 3, 2, True, "enumerated 5, formula 5")
        assert r.line() == "PASS admissible-count ell=3 k=2"

    def test_fail_line_names_witness(self):
        r = CheckResult("per-type-counts", 4, 3, False, "type [2, 2]: got (3, 2), expected (4, 2)")
        assert r.line() == "FAIL per-type-counts ell=4 k=3  [type [2, 2]: got (3, 2), expected (4, 2)]"


class TestRunVerification:
    def test_grid_shape_and_names(self):
        results = run_verification(3, 4)
        cells = {(r.ell, r.k) for r in results}
        assert cells == {(ell, k) for ell in range(1, 4) for k in range(2, 5)}
        for cell in cells:
            names = tuple(r.name for r in results if (r.ell, r.k) == cell)
            assert names == EXPECTED_CHECKS

    def test_all_pass_on_small_grid(self):
        results = run_verification(4, 4)
        assert all(r.ok for r in results)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            run_verification(0, 3)
        with pytest.raises(ValueError):
            run_verification(3, 1)

    def test_allow_large_reaches_tableau_enumeration(self, monkeypatch):
        # the override passes through to enumerate_syt, past its size guard
        import latmult.tableaux as tableaux
        from latmult import ResourceLimitError

        monkeypatch.setattr(tableaux, "ENUMERATION_MAX_SIZE", 2)
        results = run_verification(3, 2, allow_large=True)
        assert len(results) == 3 * len(EXPECTED_CHECKS)  # cells (1..3, 2)
        assert all(r.ok for r in results)
        with pytest.raises(ResourceLimitError):
            run_verification(3, 2)


class TestRenderReport:
    def test_summary_counts(self):
        results = [
            CheckResult("admissible-count", 1, 2, True),
            CheckResult("avoider-counts", 1, 2, False, "brute 4, rsk 5, formula 5"),
        ]
        text = render_report(results)
        lines = text.splitlines()
        assert lines[0] == "PASS admissible-count ell=1 k=2"
        assert lines[1] == "FAIL avoider-counts ell=1 k=2  [brute 4, rsk 5, formula 5]"
        assert lines[2] == "1/2 checks passed"

    def test_real_report_ends_with_summary(self):
        results = run_verification(2, 3)
        text = render_report(results)
        assert text.splitlines()[-1] == f"{len(results)}/{len(results)} checks passed"


class TestFailureSurfacesInCli:
    def test_verify_exit_one_and_detail(self, capsys, monkeypatch):
        import latmult.cli as cli

        broken = [
            CheckResult("admissible-count", 2, 2, True),
            CheckResult("per-type-counts", 2, 2, False, "type [2]: got (0, 0), expected (1, 1)"),
        ]
        monkeypatch.setattr(cli, "run_verification", lambda *a, **kw: broken)
        code = cli.main(["verify", "--ell-max", "2", "--k-max", "2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_VERIFY_FAILED
        assert "FAIL per-type-counts ell=2 k=2  [type [2]" in out
        assert out.strip().endswith("1/2 checks passed")


class TestSingleSearchStillFails:
    """Each cell is searched once; a wrong formula must still show as FAIL."""

    def test_square_sum_off_by_one(self, monkeypatch):
        import latmult.verify as verify

        real = verify.syt_sum_squares
        monkeypatch.setattr(verify, "syt_sum_squares", lambda ell, k: real(ell, k) + 1)
        results = run_verification(3, 3)
        for name in ("admissible-count", "avoider-counts"):
            failed = [r for r in results if r.name == name]
            assert failed and all(not r.ok and r.detail for r in failed)
        assert all(r.ok for r in results if r.name == "per-type-counts")

    def test_hook_count_off_by_one(self, monkeypatch):
        import latmult.verify as verify

        real = verify.count_syt
        monkeypatch.setattr(verify, "count_syt", lambda lam: real(lam) + 1)
        results = run_verification(3, 3)
        failed = [r for r in results if r.name == "per-type-counts"]
        assert failed and all(not r.ok and r.detail.startswith("type [") for r in failed)
        assert all(r.ok for r in results if r.name == "admissible-count")
