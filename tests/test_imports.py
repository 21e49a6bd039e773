"""Every module-level import in the package is used.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by a top-level `import` or
`from ... import` must appear as a name somewhere else in the module.
`__init__.py` re-exports by importing and `from __future__` imports are
directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "howecurves"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_checker_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "from typing import List, Optional\n"
           "x: Optional[int] = None\n")
    assert unused_imports(src) == [(2, "os"), (3, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
