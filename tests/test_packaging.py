"""The package imports only what `pip install .` brings, the standard library and numpy, and keys its
random streams without arithmetic on seeds."""

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


def _seeded_with_arithmetic(tree):
    """Each `default_rng(...)` or `SeedSequence(...)` call in `tree` with an arithmetic expression in its arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in (
                "default_rng", "SeedSequence"):
            if any(isinstance(sub, (ast.BinOp, ast.UnaryOp)) for arg in (*node.args, *node.keywords)
                   for sub in ast.walk(arg)):
                yield ast.unparse(node)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_seeds_a_random_stream_with_arithmetic(path):
    # `default_rng(seed + i)` gave seeds s and s + 1 all but one series in common; `data.series_rng` keys a
    # series' stream by (seed, role, i) instead
    assert list(_seeded_with_arithmetic(ast.parse(path.read_text()))) == []
