"""Every name a package module imports is used in that module.

No linter ships with the project, so this reads each module's syntax tree
with ast: a name bound by an import statement must be read somewhere else
in the module.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "remskit"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of source that no expression of it reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.linalg.inv starts at the Name np
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy.linalg\n"
        "from math import pi as PI, e\n"
        "numpy.linalg.inv(PI)\n"
    )
    assert unused_imports(source) == ["e", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_package_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
