"""The scripts under scripts/ run end to end against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bijection_demo_runs_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bijection_demo.py"),
         "--ell", "4", "--k", "3", "--seed", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "join(z1, z2) == z: ok" in proc.stdout.splitlines()
    assert "tau(sigma(zi)) == zi for both halves: ok" in proc.stdout.splitlines()
