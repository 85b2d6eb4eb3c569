"""The names the benchmark harness in ``perfbench/`` takes from rieszcert.

The harness wraps the functions in ``perfbench/tracing.TRACED`` and
rebinds every module-level name that refers to one of them, and its
workloads and tests call library functions by name. A deletion or a
rename in the library that breaks a traced run fails here, in the
library's own suite. The harness files are read, never changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REBIND_TEST = "test_tracer_rebinds_imported_names_and_restores_them"


def _traced():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def _aliases(tree):
    """{alias: module} for ``from rieszcert import module as alias``."""
    return {name.asname or name.name: name.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "rieszcert"
            for name in node.names}


def _library_attributes(node, aliases):
    """(module, attribute) for every ``alias.attribute`` read in
    ``node``."""
    return sorted({(aliases[n.value.id], n.attr) for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name)
                   and n.value.id in aliases})


def _harness_files():
    return sorted(PERFBENCH.glob("*.py")) + sorted(
        PERFBENCH.glob("tests/*.py"))


@pytest.mark.parametrize("module, func", _traced())
def test_every_traced_function_resolves(module, func):
    value = getattr(importlib.import_module(f"rieszcert.{module}"), func)
    assert callable(value)


@pytest.mark.parametrize("path", _harness_files(),
                         ids=lambda p: p.relative_to(PERFBENCH).as_posix())
def test_every_library_name_the_harness_reads_exists(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for module, attr in _library_attributes(tree, _aliases(tree)):
        assert hasattr(importlib.import_module(f"rieszcert.{module}"),
                       attr), f"{path.name}: rieszcert.{module}.{attr}"


def test_rebinding_targets_are_traced_functions():
    # the tracer rebinds a name only where it is the traced function
    # itself, so each name the rebinding test reads must be one
    tree = ast.parse((PERFBENCH / "tests" / "test_perfbench.py")
                     .read_text(encoding="utf-8"))
    test = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == REBIND_TEST)
    targets = _library_attributes(test, _aliases(tree))
    assert targets
    traced = [getattr(importlib.import_module(f"rieszcert.{m}"), f)
              for m, f in _traced()]
    for module, attr in targets:
        value = getattr(importlib.import_module(f"rieszcert.{module}"), attr)
        assert any(value is t for t in traced), f"{module}.{attr}"
