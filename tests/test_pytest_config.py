"""The test run's own configuration: warnings that ``pyproject.toml`` turns
into errors must not swallow a failing property test's report, and every
package the tests import is declared and installed by README's block."""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 3
'''


def test_a_failing_hypothesis_test_prints_its_example(tmp_path):
    # on a failure hypothesis imports libcst to offer a patch, and libcst's
    # import of mypy_extensions.TypedDict warns; under the DeprecationWarning
    # errors that warning ended the run in INTERNALERROR, without the example
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         str(tmp_path / "test_failing.py")],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def _distribution(requirement: str) -> str:
    """The import name of a requirement such as ``mpmath>=1.3``."""
    name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
    return name.lower().replace("-", "_")


def test_every_package_the_tests_import_is_declared_and_installed():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    extra = {_distribution(r)
             for r in project["optional-dependencies"]["test"]}
    declared = extra | {_distribution(r) for r in project["dependencies"]}
    tests = sorted((ROOT / "tests").glob("*.py"))
    own = {"warpcheck", *(p.stem for p in tests)}
    imported = {}
    for path in tests:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in own:
                    imported.setdefault(top, path.name)
    assert {"pytest", "hypothesis", "mpmath"} <= set(imported)
    undeclared = {m: where for m, where in imported.items()
                  if m not in declared}
    assert not undeclared, f"imported by tests, not declared: {undeclared}"

    # README's install block installs the extra, not a hand-kept list
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Install and test\n\n```sh\n(.*?)```", readme,
                      re.S).group(1)
    assert re.search(r"^pip install .*\.\[test\]", block, re.M), block
