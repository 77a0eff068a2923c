"""Checks on the code itself rather than on its results.

The benchmark's tracer names pqcent functions by string; each must exist.
`perfbench/run.py` only warns when a traced name is missing, so a renamed
or deleted function would silently drop its per-layer figures.

No module of the package may import a name it never reads (`__init__`
re-exports aside), and every module-level private function must be
referenced from some module. A public name of the package counts as used
only when a reader outside `tests/` reads it: `src/` outside the name's
own definition, `scripts/` or `perfbench/`. A test is not a reader, so a
name that only tests read is debris. Every public module-level function
or class must be named by a reader or be exported in `pqcent.__all__`,
which declares it API; every public method or property of a package class
must be read as an attribute by a reader. The rule reaches parameters
too: a defaulted parameter of a package function or method counts as used
only when a call in a reader passes it, by keyword or by position, so a
knob that only tests set is debris as well. `__init__` re-exports exactly
the names it lists in `__all__`, and the README's quick start runs as
printed. Only `Algebra.table`, the serializer and the fixtures read the
Fraction `products` view; every computation reads the integer form.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import pqcent
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
# no module calls, public definitions that no reader names, and defaulted
# parameters that no reader passes; tests are not readers
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pqcent"
TREES = {path: ast.parse(path.read_text(encoding="utf-8"))
         for folder in ("src", "scripts", "perfbench")
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


def test_every_public_definition_is_named_by_a_reader_or_exported():
    # a name counts only in a top-level statement other than the definition
    # itself, so a recursive call does not keep a function alive; an
    # `__all__` entry is a string and names nothing, so it counts apart
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
            and node.name not in pqcent.__all__
            and not holders.get(node.name, set()) - {id(node)}]
    assert not dead, f"public definitions no reader names: {dead}"


def test_every_public_method_is_read_as_an_attribute():
    # a method or property counts only when some `x.name` in a reader,
    # outside its own definition, reads it; a local variable of the same
    # name reads nothing
    reads: dict[str, set[int]] = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
    dead = [f"{module}.{cls.name}.{node.name}"
            for module, tree in MODULES.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and not reads.get(node.name, set()) - set(map(id, ast.walk(node)))]
    assert not dead, f"public methods no reader reads: {dead}"


def test_every_defaulted_parameter_is_passed_by_a_reader():
    # a defaulted parameter counts only when some call in a reader passes
    # a keyword of its name, or calls a function of its name (the class,
    # for `__init__`) with enough positional arguments to reach it; in a
    # method the first argument is bound, so positions start after it
    keywords: set[str] = set()
    reach: dict[str, int] = {}
    for tree in TREES.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                keywords |= {k.arg for k in call.keywords}
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                reach[callee] = max(reach.get(callee, 0), len(call.args))
    dead = []
    for module, tree in MODULES.items():
        owner = {id(node): cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(node))
            where = f"{module}.{cls.name + '.' if cls else ''}{node.name}"
            callee = cls.name if cls and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            dead += [f"{where}({arg.arg})"
                     for i, arg in enumerate(positional[first:], first)
                     if arg.arg not in keywords
                     and reach.get(callee, 0) < i + 1 - bool(cls)]
            dead += [f"{where}({arg.arg})"
                     for arg, default in zip(node.args.kwonlyargs,
                                             node.args.kw_defaults)
                     if default is not None and arg.arg not in keywords]
    assert not dead, f"defaulted parameters no reader passes: {dead}"


def _attribute_readers(node, attr, scope=()):
    """The qualified name of the function or class around each read of
    `x.attr` under node, one per read."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Attribute) and child.attr == attr:
            yield ".".join(scope)
        yield from _attribute_readers(child, attr, inner)


def test_only_the_fraction_readers_read_products():
    # computations stay on the integer form; the Fraction `products` view
    # serves the dense `table`, the serializer and the fixtures that
    # rebuild an algebra from another's constants
    readers = {f"{module}.{scope}" for module, tree in MODULES.items()
               for scope in _attribute_readers(tree, "products")}
    assert "fileio.serialize_algebra" in readers
    allowed = {"algebras.Algebra.table", "fileio.serialize_algebra"}
    assert {r for r in readers
            if r not in allowed and not r.startswith("fixtures.")} == set()


def test_init_reexports_exactly_all():
    imported = [alias.asname or alias.name
                for node in MODULES["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(set(imported))
    assert sorted(imported) == sorted(pqcent.__all__)


def test_readme_quick_start_runs(capsys):
    # the first python block of README.md, whose printed lines each appear
    # in it as the comment that ends a line
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = {line.split("# ", 1)[1] for line in block.splitlines()
                if "# " in line}
    assert printed and set(printed) <= comments, printed
