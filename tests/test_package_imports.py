"""Every name a package module imports is used in that module, and every private function is read.

No linter ships with the project, so this reads each module's syntax tree
with ast: a name bound by an import statement must be read somewhere else
in the module, and a module-level _private function must be read by some
package module outside its own body.
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


def dead_private_functions(sources: dict) -> list:
    """Module-level _private functions of sources (module name -> text) that no module reads.

    A read is a Name, an attribute or an imported name equal to the function's
    name, anywhere but inside the function's own body.
    """
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (module, stmt.name)
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    reads.append((owner, node.id))
                elif isinstance(node, ast.Attribute):
                    reads.append((owner, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    reads.extend((owner, a.name) for a in node.names)
    return sorted(f"{m}.{name}" for m, name in defined if not any(
        read == name and owner != (m, name) for owner, read in reads
    ))


def test_the_check_finds_a_dead_private_function():
    sources = {
        "a": "def _used():\n    return 1\n\n\ndef _dead():\n    return _dead()\n\n\ndef public():\n    pass\n",
        "b": "from .a import _used\n\n\ndef _via_attribute():\n    pass\n\n\nclass C:\n"
        "    def _method(self):\n        return b._via_attribute\n",
    }
    assert dead_private_functions(sources) == ["a._dead"]


def test_package_has_no_dead_private_function():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_private_functions(sources) == []
