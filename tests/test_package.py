"""The package surface: every exported name resolves, README's Library
example runs as written, and the two version strings agree."""

import re
from pathlib import Path

import latmult

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in latmult.__all__ if not hasattr(latmult, name)]
    assert missing == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.M)
    assert declared is not None
    assert declared.group(1) == latmult.__version__
