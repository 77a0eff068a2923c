"""Checks on the code itself rather than on its results.

The benchmark's tracer names pqcent functions by string; each must exist.
`perfbench/run.py` only warns when a traced name is missing, so a renamed
or deleted function would silently drop its per-layer figures.

No module of the package may import a name it never reads (`__init__`
re-exports aside), every module-level private function must be
referenced from some module, and every public module-level function or
class must be named somewhere in the source, tests, scripts or benchmark
outside its own definition: code removed from a path leaves no debris.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from pqcent.verify import CHECK_IDS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr, name", tracing.FUNCTIONS,
                         ids=[name for *_, name in tracing.FUNCTIONS])
def test_traced_functions_exist(module, attr, name):
    assert callable(getattr(importlib.import_module(f"pqcent.{module}"),
                            attr, None)), name


@pytest.mark.parametrize("module, cls, meth, name", tracing.METHODS,
                         ids=[name for *_, name in tracing.METHODS])
def test_traced_methods_exist(module, cls, meth, name):
    # the tracer patches the method on the class itself
    owner = getattr(importlib.import_module(f"pqcent.{module}"), cls)
    assert meth in owner.__dict__, name


def test_traced_check_ids_exist():
    assert set(tracing.VERIFY_IDS) <= set(CHECK_IDS)


# ---------------------------------------------------------------------------
# dead code in the package: imports nothing reads, private functions that
# no module calls, and public definitions that nothing names
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pqcent"
TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for folder in ("src", "tests", "scripts", "perfbench")
         for path in sorted((ROOT / folder).rglob("*.py"))}
MODULES = {path.stem: tree for path, tree in TREES.items()
           if path.parent == SRC}


def _referenced(tree) -> set[str]:
    """The names a module reads, as plain names or attribute names; import
    statements and definitions bind names and read none."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_used(module):
    # `__init__` imports in order to re-export
    tree = MODULES[module]
    used = _referenced(tree)
    unused = [f"{alias.asname or alias.name.split('.')[0]} (line {node.lineno})"
              for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, f"{module} imports but never uses {unused}"


def test_every_private_function_is_referenced():
    referenced = set().union(*map(_referenced, MODULES.values()))
    dead = [f"{module}.{node.name}" for module, tree in MODULES.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert not dead, f"private functions no module references: {dead}"


def test_every_public_definition_is_named_elsewhere():
    # a name counts only in a top-level statement other than the definition
    # itself, so a recursive call does not keep a function alive; an
    # `__all__` entry is a string and names nothing
    holders: dict[str, set[int]] = {}
    for tree in TREES.values():
        for statement in tree.body:
            for name in _referenced(statement):
                holders.setdefault(name, set()).add(id(statement))
    dead = [f"{module}.{node.name}" for module, tree in MODULES.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")
            and not holders.get(node.name, set()) - {id(node)}]
    assert not dead, f"public definitions nothing else names: {dead}"
