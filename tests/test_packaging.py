"""The package imports only what `pip install .` brings: the standard library and numpy."""

import ast
import pathlib
import sys

import pytest

import faultgen

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "faultgen"}
MODULES = sorted(pathlib.Path(faultgen.__file__).parent.glob("*.py"))


def _imported(tree):
    """The top-level name of each absolute import in `tree`; a relative import is of faultgen itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "faultgen" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_imports_only_the_standard_library_numpy_and_faultgen(path):
    assert sorted(set(_imported(ast.parse(path.read_text()))) - ALLOWED) == []


def test_the_package_modules_are_found():
    assert {"__init__.py", "cli.py"} <= {path.name for path in MODULES}
