"""The package imports only what `pip install .` brings, the standard library and numpy, keys its
random streams by (seed, role, index) in one place, without arithmetic on seeds, gives each of its
error classes one exit code of the CLI, and builds a run config only in `config.py`."""

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


def _callee(node):
    """The name a call calls: `f` of `f(...)` and of `a.b.f(...)`."""
    return getattr(node.func, "attr", getattr(node.func, "id", None))


def _seeded_with_arithmetic(tree):
    """Each `default_rng(...)`, `SeedSequence(...)` or `series_rng(...)` call in `tree` with an arithmetic expression
    in its arguments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) in ("default_rng", "SeedSequence", "series_rng"):
            if any(isinstance(sub, (ast.BinOp, ast.UnaryOp)) for arg in (*node.args, *node.keywords)
                   for sub in ast.walk(arg)):
                yield ast.unparse(node)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_seeds_a_random_stream_with_arithmetic(path):
    # `default_rng(seed + i)` gave seeds s and s + 1 all but one series in common; `data.series_rng` keys a
    # series' stream by (seed, role, i) instead
    assert list(_seeded_with_arithmetic(ast.parse(path.read_text()))) == []


# where a seed may become a generator: the keyed helper, and the two streams left as they are
STREAM_CONSTRUCTORS = {
    ("data.py", "series_rng"),                  # the one rule: a stream keyed by (seed, role, index)
    ("data.py", "make_fault_dataset"),          # the fault-spec stream, which every pinned corpus digest holds
    ("metrics.py", "ContextEncoder.__init__"),  # a fixed constant, which keeps context-FID comparable
}


def _stream_constructors(node, scope=""):
    """(enclosing function's qualified name, source) of each `default_rng(...)` or `SeedSequence(...)` call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _stream_constructors(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call) and _callee(child) in ("default_rng", "SeedSequence"):
            yield scope, ast.unparse(child)
        yield from _stream_constructors(child, scope)


def test_a_seed_becomes_a_generator_only_in_the_keyed_helper_and_two_named_exceptions():
    found = {}
    for path in MODULES:
        for scope, call in _stream_constructors(ast.parse(path.read_text())):
            found[path.name, scope] = call
    assert set(found) == STREAM_CONSTRUCTORS, found


def test_no_function_rebinds_a_module_level_name_but_the_tapes_recording_switch():
    # a module-level setting that a function rebinds is shared by every caller in the process; a tensor's
    # dtype comes from its data, and `no_grad` keeps the one such switch
    declared = {(path.name, name) for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Global) for name in node.names}
    assert declared <= {("autodiff.py", "_GRAD_ENABLED")}


def _caught(function):
    """The set of names that each `except` clause in `function` catches."""
    for node in ast.walk(function):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield {ast.unparse(t) for t in types}


def test_each_error_class_has_one_except_clause_of_cli_main_to_itself():
    # one class per exit code: a class no clause names, or a clause that names two, is a synonym a raise
    # site would have to choose among
    package = pathlib.Path(faultgen.__file__).parent
    classes = {node.name for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    main = next(node for node in ast.parse((package / "cli.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    clauses = [names & classes for names in _caught(main) if names & classes]
    assert all(len(names) == 1 for names in clauses), clauses
    assert sorted(name for names in clauses for name in names) == sorted(classes)


def test_only_config_builds_a_run_config():
    # only the training phases read a run config, and they get it from `resolve_config`; a `RunConfig` built
    # elsewhere would be a second, partial path to a run's settings
    built = [(path.name, ast.unparse(node)) for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and _callee(node) == "RunConfig"]
    assert {name for name, _ in built} <= {"config.py"}, built
