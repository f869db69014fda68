"""The scripts under scripts/ run end to end against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bijection_demo.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_bijection_demo_runs_clean():
    proc = run_demo("--ell", "4", "--k", "3", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert "join(z1, z2) == z: ok" in proc.stdout.splitlines()
    assert "tau(sigma(zi)) == zi for both halves: ok" in proc.stdout.splitlines()


def test_bijection_demo_refuses_past_the_guard():
    # as the CLI refuses: one stderr line, empty stdout, exit 3; no traceback
    proc = run_demo("--ell", "7", "--k", "3")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("resource guard: enumeration at ell=7, k=3")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--ell", "3", "--k", "1"], "error: k must be >= 2, got 1", id="k-1"),
    pytest.param(["--ell", "0"], "error: ell must be >= 1, got 0", id="ell-0"),
])
def test_bijection_demo_refuses_bad_arguments(argv, message):
    # as the CLI refuses input: one stderr line, empty stdout, exit 2
    proc = run_demo(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]
