"""Every module-level import and private name in the package is used.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  A name bound by a top-level `import` or
`from ... import` in a package or test module must appear as a name
somewhere else in the module; the package's `__init__.py` re-exports by
importing and `from __future__` imports are directives, so both are exempt.  A private name (one leading underscore)
bound at the top level of a module must be read somewhere in the package,
as a name, an attribute or an imported name; binding it again does not
count as a use.  A public function or class defined at the top level of a
package module must be read by some package module other than
`__init__.py`, whose re-exports are not reads.  Only `strategies` reads
`ProcessPoolExecutor`, so every worker pool is its `pool_map`, and only
`arith` calls the builtin `pow` with a modulus, so every other F_p inverse
reads the field's inverse table.  Every `cached(...)` call passes a function
defined at the top level of its module, as a pickled field's cache keys need.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "howecurves"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _top_level_bindings(tree: ast.Module) -> dict:
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    return bound


def _reads(tree: ast.Module) -> set:
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def unused_private_names(sources: dict) -> list:
    """(module, line, name) for each top-level private name nothing reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    return sorted((mod, line, name)
                  for mod, tree in trees.items()
                  for name, line in _top_level_bindings(tree).items()
                  if _is_private(name) and name not in read)


def unread_public_names(sources: dict) -> list:
    """(module, line, name) for each public top-level function or class that
    no module other than __init__.py reads; __init__.py's re-exports do not
    count as reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items() if mod != "__init__.py"}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    out = []
    for mod, tree in trees.items():
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        out += [(mod, line, name) for name, line in _top_level_bindings(tree).items()
                if name in defined and not name.startswith("_") and name not in read]
    return sorted(out)


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "from typing import List, Optional\n"
           "x: Optional[int] = None\n")
    assert unused_imports(src) == [(2, "os"), (3, "List")]


def test_checker_flags_an_unused_private_name():
    sources = {
        "a": ("__all__ = ['f']\n"
              "_TABLE = {}\n"
              "_STATE = None\n"
              "def _helper(): return _TABLE\n"
              "def _dead(): pass\n"
              "def f():\n"
              "    global _STATE\n"
              "    _STATE = 1\n"),
        "b": ("from .a import _helper\n"
              "class _Shape: pass\n"
              "import a\n"
              "x = a._Other\n"
              "def _Other(): pass\n"),
    }
    assert unused_private_names(sources) == [
        ("a", 3, "_STATE"), ("a", 5, "_dead"), ("b", 2, "_Shape")]


def test_checker_flags_an_unread_public_name():
    sources = {
        "__init__.py": ("from .a import dead, Shape, used, LIMIT\n"
                        "__all__ = ['dead', 'Shape', 'used', 'LIMIT']\n"),
        "a.py": ("LIMIT = 3\n"
                 "def used(): return _helper()\n"
                 "def _helper(): return LIMIT\n"
                 "def dead(): pass\n"
                 "class Shape: pass\n"
                 "def recursive(n): return recursive(n - 1) if n else 0\n"),
        "b.py": ("from .a import used\n"
                 "import a\n"
                 "x = a.recursive\n"
                 "class Box:\n"
                 "    def dead(self): pass\n"
                 "def run(): return used()\n"),
    }
    assert unread_public_names(sources) == [
        ("a.py", 4, "dead"), ("a.py", 5, "Shape"), ("b.py", 4, "Box"), ("b.py", 6, "run")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_package_has_no_unused_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_package_has_no_unread_public_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_names(sources) == []


def test_only_strategies_uses_the_process_pool():
    # every worker pool goes through strategies.pool_map: no other package
    # module imports ProcessPoolExecutor or reads it as an attribute
    users = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if "ProcessPoolExecutor" in _reads(ast.parse(p.read_text()))]
    assert users == ["strategies.py"]


def modular_pow_calls(source: str) -> list:
    """Lines of the calls of the builtin pow with three arguments."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "pow" and len(n.args) + len(n.keywords) == 3)


def test_checker_flags_a_modular_pow():
    src = ("def f(ctx, x, p):\n"
           "    a = pow(x, p - 2, p)\n"
           "    b = pow(x, 2) + ctx.pow(x, 3)\n"
           "    return pow(x, p - 2, mod=p)\n")
    assert modular_pow_calls(src) == [2, 4]


def test_only_arith_takes_modular_powers():
    # Miller-Rabin and Euler's criterion stay in arith; every other F_p
    # inverse reads FieldCtx.inv_table()
    users = [p.name for p in sorted(PACKAGE.glob("*.py"))
             if modular_pow_calls(p.read_text())]
    assert users == ["arith.py"]


def readers(source: str, name: str) -> list:
    """The top-level functions and classes of a module that read name,
    "<module>" for any other top-level statement."""
    out = []
    for node in ast.parse(source).body:
        if name in _reads(node):
            defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            out.append(node.name if isinstance(node, defs) else "<module>")
    return out


def test_checker_finds_the_readers_of_a_name():
    src = ("import arith\n"
           "x = arith.power\n"
           "def power(): pass\n"
           "def square(f): return f.power(2)\n"
           "class Poly:\n"
           "    def cube(self): return power(self)\n")
    assert readers(src, "power") == ["<module>", "square", "Poly"]


def test_only_the_cubic_power_reads_the_truncated_power():
    # strategy a's _cubic_power is the one reader of UniPoly.pow_truncated;
    # the package's Cartier-Manin entries come from genus2.cartier_manin_rows
    # alone, and the truncated power of a sextic is the oracle in
    # tests/oracles.py
    users = [(p.name, fn) for p in sorted(PACKAGE.glob("*.py"))
             for fn in readers(p.read_text(), "pow_truncated")]
    assert users == [("strategies.py", "_cubic_power")]


def cache_keys(source: str) -> list:
    """(line, ok) for each call of cached, ok when its one argument names a
    function defined at the top level of the module."""
    tree = ast.parse(source)
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    return [(n.lineno, len(n.args) == 1 and not n.keywords
             and isinstance(n.args[0], ast.Name) and n.args[0].id in defined)
            for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "attr", getattr(n.func, "id", None)) == "cached"]


def test_checker_flags_a_cache_key_that_is_no_module_function():
    src = ("def _table(ctx): return 1\n"
           "def f(ctx):\n"
           "    def inner(c): return 2\n"
           "    a = ctx.cached(_table) + cached(_table)\n"
           "    b = ctx.cached(lambda c: 3)\n"
           "    return ctx.cached(inner) + ctx.cached(compute=_table)\n")
    assert sorted(cache_keys(src)) == [(4, True), (4, True), (5, False), (6, False), (6, False)]


def test_every_cache_key_is_a_module_level_function():
    # FieldCtx.cached keys a field's values by the function, and a pickled
    # field's keys must unpickle, by import path, to the same objects
    keys = [key for p in sorted(PACKAGE.glob("*.py")) for key in cache_keys(p.read_text())]
    assert len(keys) >= 7 and all(ok for _, ok in keys)
