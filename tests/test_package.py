"""The package surface: every exported name resolves, README's Library
example runs as written, the two version strings agree, the two guards
whose refusal no command line gives refuse with their fixed messages and are
lifted only by the call's own allow_large, never by the environment
(tests/test_cli.py's GUARD_GOLDEN pins each refusal the command line gives),
and the value types refuse bad input with fixed messages and keep what they
derive out of their fields. Every private helper in the package has a
caller. No test module imports another, and the shared oracles in
tests/conftest.py import no private latmult name."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import latmult
from latmult import (
    LatticePath,
    Partition,
    ResourceLimitError,
    StandardTableau,
    cli,
    enumerate_self_conjugate,
    enumerate_syt,
)

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in latmult.__all__ if not hasattr(latmult, name)]
    assert missing == []


def test_every_export_is_named_in_readme():
    """Each exported name shows in README's Library section as code: in its
    python example or between backticks."""
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```python\n(.*?)```", library, re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", library, flags=re.S))
    named = set(re.findall(r"\w+", " ".join(code)))
    assert [name for name in latmult.__all__ if name not in named] == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_readme_names_every_exit_code():
    """README's "Exit codes" paragraph names each cli.EXIT_* value as code."""
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("\nExit codes: ", 1)[1].split("\n\n", 1)[0]
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert len(codes) >= 7
    assert [name for name, value in codes.items() if f"`{value}`" not in paragraph] == []


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.M)
    assert declared is not None
    assert declared.group(1) == latmult.__version__


# Each guard whose refusal no argv gives, with its one message
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: enumerate_self_conjugate(7, 3),
                 "enumeration at ell=7, k=3 exceeds the default guard (ell <= 6, k <= 5)",
                 id="enumerate_self_conjugate"),
    pytest.param(lambda: enumerate_syt(Partition((7, 6))),
                 "partition size 13 exceeds the tableau guard (size <= 12)", id="enumerate_syt"),
])
def test_environment_lifts_no_guard(monkeypatch, call, message):
    # the variable that lifted every guard before 0.4.0 lifts none
    monkeypatch.setenv("LATMULT_GUARD_OVERRIDE", "1")
    suffix = "; pass allow_large=True (CLI: --allow-large)"
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message + suffix)}$"):
        call()


# Each bad input with the one message its constructor gives, checks in order:
# an odd length is refused before a stray letter, a stray letter before an
# R/U imbalance, and a tableau's shape before its entries.
@pytest.mark.parametrize("cls, value, message", [
    (LatticePath, "", "move string must have positive even length: ''"),
    (LatticePath, "RRU", "move string must have positive even length: 'RRU'"),
    (LatticePath, "RX", "moves must be 'R' and 'U' only: 'RX'"),
    (LatticePath, "RXRX", "moves must be 'R' and 'U' only: 'RXRX'"),
    (LatticePath, "RRRU", "need equally many R and U moves: 'RRRU'"),
    (StandardTableau, ((2, 1),), "row not strictly increasing: (2, 1)"),
    (StandardTableau, ((1, 2), (3, 2)), "entries must be exactly 1..4: ((1, 2), (3, 2))"),
    (StandardTableau, ((1, 3),), "entries must be exactly 1..2: ((1, 3),)"),
    (StandardTableau, ((1,), (2, 3)), "parts must be weakly decreasing: (1, 2)"),
])
def test_constructor_messages(cls, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(value)


@pytest.mark.parametrize("value, field, derived, text", [
    (LatticePath("RURU"), "moves", "up_prefix", "LatticePath(moves='RURU')"),
    (StandardTableau(((1, 2), (3,))), "rows", "shape",
     "StandardTableau(rows=((1, 2), (3,)))"),
])
def test_derived_value_outside_fields(value, field, derived, text):
    assert [f.name for f in dataclasses.fields(value)] == [field]
    twin = type(value)(getattr(value, field))
    object.__setattr__(twin, derived, None)  # a derived value that differs
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value) == text


def test_up_prefix_built_by_the_constructor():
    assert vars(LatticePath("RURU"))["up_prefix"] == (0, 0, 1, 1, 2)


def test_every_private_helper_is_loaded():
    """Each module-level _-prefixed function in src/latmult is loaded by
    name somewhere in the package: a helper a change left without a caller
    fails here."""
    trees = [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "latmult").glob("*.py"))]
    helpers = [f.name for tree in trees for f in tree.body
               if isinstance(f, ast.FunctionDef) and f.name.startswith("_")]
    loaded = {n.id for tree in trees for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert helpers
    assert [name for name in helpers if name not in loaded] == []


def _imported(node) -> list[str]:
    """Each dotted name an import statement reads: module.name for a from-import,
    with the module left blank when the import is relative."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return []


def test_no_test_module_imports_another():
    """Shared oracles live in tests/conftest.py, so no file under tests/
    imports a test_ module."""
    found = [f"{path.name}:{node.lineno}" for path in sorted((ROOT / "tests").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if any(part.startswith("test_") for name in _imported(node) for part in name.split("."))]
    assert found == []


def test_conftest_imports_no_private_name():
    """The shared oracles check the package from outside: tests/conftest.py
    imports no _-prefixed latmult name."""
    tree = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    private = [name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for name in _imported(node)
               if name.split(".")[0] == "latmult" and name.rsplit(".", 1)[1].startswith("_")]
    assert private == []
