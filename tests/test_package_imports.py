"""Every name a package module imports is used in that module, every private function,
public method, dataclass field and public function is read, and caller input is read in one place.

No linter ships with the project, so this reads each module's syntax tree
with ast: a name bound by an import statement must be read somewhere else
in the module, a module-level _private function must be read by some
package module outside its own body, a public method or property of a
package class must be read outside its own body by some module of src/,
tests/ or perfbench/, a field of a package dataclass must be read as
an attribute by some module of those three, and a module-level public
function must be exported by the package or read by some module of src/ or
perfbench/, so that no function ships for the tests alone. No public function,
public method or __post_init__ outside _textio reads its own parameters or
fields by hand (np.asarray or np.array to float or complex, np.linalg.norm,
math.isfinite, np.isfinite), but for four named calls, each with its reason:
caller input goes through the readers of _textio.
"""

import ast
import pathlib
from collections import Counter

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


def _reads(node) -> Counter:
    """How often node reads each name: as a Name, an attribute or an imported name."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            reads.update(a.name for a in sub.names)
    return reads


def _unread(defs, trees) -> list:
    """The (label, def) pairs of defs whose name trees read nowhere but inside that def's own body."""
    total = sum((_reads(tree) for tree in trees), Counter())
    return sorted(label for label, node in defs if total[node.name] == _reads(node)[node.name])


def dead_private_functions(sources: dict) -> list:
    """Module-level _private functions of sources (module name -> text) that no module reads.

    A read is a Name, an attribute or an imported name equal to the function's
    name, anywhere but inside the function's own body.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs = [
        (f"{module}.{stmt.name}", stmt)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
    ]
    return _unread(defs, trees.values())


def dead_public_methods(package: dict, readers: list) -> list:
    """Public methods and properties of the classes of package (module name -> text) that no reader reads.

    readers holds the texts of every module that may use the package. A read
    is as for dead_private_functions, anywhere but inside the method's own body.
    """
    defs = [
        (f"{module}.{cls.name}.{stmt.name}", stmt)
        for module, source in package.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_")
    ]
    return _unread(defs, [ast.parse(source) for source in readers])


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


def test_the_check_finds_a_dead_public_method():
    package = {
        "a": "class A:\n    def called(self):\n        pass\n\n    @property\n    def recursive(self):\n"
        "        return self.recursive\n\n    def _private(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n    def read_by_b(self):\n        pass\n",
    }
    readers = [package["a"], "from a import A\n\nA().called()\nx = A.read_by_b\n"]
    assert dead_public_methods(package, readers) == ["a.A.recursive"]
    assert dead_public_methods(package, readers[:1]) == ["a.A.called", "a.A.read_by_b", "a.A.recursive"]


def test_package_has_no_dead_public_method():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    root = PACKAGE.parent.parent
    paths = [p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")]
    readers = [p.read_text(encoding="utf-8") for p in paths]
    assert dead_public_methods(package, readers) == []


def dead_dataclass_fields(package: dict, readers: list) -> list:
    """Fields of the dataclasses of package (module name -> text) that no reader reads as an attribute.

    A field is an annotated name in the body of a class decorated with
    dataclass, dataclass(...) or dataclasses.dataclass. A read is an attribute
    of that name in a load context, such as self.field or base.field; a store
    such as self.field = x in __post_init__ is not one.
    """
    fields = [
        (f"{module}.{cls.name}.{stmt.target.id}", stmt.target.id)
        for module, source in package.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(label for label, name in fields if name not in read)


def test_the_check_finds_a_dead_dataclass_field():
    package = {
        "a": "import dataclasses\nfrom dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass A:\n"
        "    used: int\n    stored: int\n    dead: int = 0\n\n    def __post_init__(self):\n"
        "        self.stored = 1\n\n\n@dataclasses.dataclass\nclass B:\n    read_by_b: float\n\n\n"
        "class Plain:\n    annotated: int\n",
    }
    readers = [package["a"], "from a import A, B\n\nA(1, 2).used + B(0.0).read_by_b\n"]
    assert dead_dataclass_fields(package, readers) == ["a.A.dead", "a.A.stored"]
    assert dead_dataclass_fields(package, readers[:1]) == ["a.A.dead", "a.A.stored", "a.A.used", "a.B.read_by_b"]


def test_package_has_no_dead_dataclass_field():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    root = PACKAGE.parent.parent
    paths = [p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py")]
    readers = [p.read_text(encoding="utf-8") for p in paths]
    assert dead_dataclass_fields(package, readers) == []


def functions_only_tests_read(package: dict, readers: list) -> list:
    """Public module-level functions of package (module name -> text) that no reader reads.

    readers holds the texts of every module that ships or runs with the
    package, its __init__ included, so an exported function is read by the
    export. A read is as for dead_private_functions, anywhere but inside the
    function's own body.
    """
    defs = [
        (f"{module}.{stmt.name}", stmt)
        for module, source in package.items()
        for stmt in ast.parse(source).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_")
    ]
    return _unread(defs, [ast.parse(source) for source in readers])


def test_the_check_finds_a_test_only_function():
    package = {
        "__init__": "from .a import exported\n",
        "a": "def exported():\n    pass\n\n\ndef used():\n    pass\n\n\ndef test_only():\n"
        "    return test_only()\n\n\ndef _private():\n    pass\n",
    }
    readers = [package["__init__"], package["a"], "from a import used\n\nused()\n"]
    assert functions_only_tests_read(package, readers) == ["a.test_only"]
    assert functions_only_tests_read(package, readers[1:]) == ["a.exported", "a.test_only"]
    assert functions_only_tests_read(package, readers[:2]) == ["a.test_only", "a.used"]


def test_package_has_no_test_only_function():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    root = PACKAGE.parent.parent
    readers = [p.read_text(encoding="utf-8") for d in ("src", "perfbench") for p in (root / d).rglob("*.py")]
    assert functions_only_tests_read(package, readers) == []


# The calls that may still read a parameter or field by hand, each for a reason:
HAND_READ_EXEMPT = {
    # theta is the library's own angle, a Direction's or a grid sample's, never a caller's geometry
    "farfield.DirectionGrid.interp_stencil: np.asarray(theta, dtype=float)",
    # a NaN guard before the SVD of the package's own matrices, which does not converge on NaN
    "network.condition_number: np.isfinite(mat)",
    # the rank-1 pass's per-coordinate rows: an overflow in them must reach checked_inv as NumericsError
    "beamform.zf_precoder: np.asarray(h, dtype=complex)",
    # a dB magnitude may be -inf, the one non-finite number a Touchstone file holds
    "network.TouchstoneData.__post_init__: np.isfinite(self.columns)",
}

_HAND_READS = ("np.linalg.norm", "math.isfinite", "np.isfinite")


def hand_reads(sources: dict) -> list:
    """The calls that read a parameter or field by hand, as "label: call", in the public functions, public
    methods and __post_init__ methods of sources (module name -> text).

    A hand reading is np.asarray or np.array with dtype float or complex, np.linalg.norm, math.isfinite or
    np.isfinite, whose first argument reads a parameter; self is one, so self.field is a field. _textio,
    whose readers do every such reading for the package, is not scanned.
    """
    found = []
    for module, source in sources.items():
        if module == "_textio":
            continue
        tree = ast.parse(source)
        defs = [(f"{module}.{f.name}", f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        defs += [
            (f"{module}.{cls.name}.{f.name}", f)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for f in cls.body
            if isinstance(f, ast.FunctionDef)
        ]
        for label, fn in defs:
            if fn.name.startswith("_") and fn.name != "__post_init__":
                continue
            params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
            for call in ast.walk(fn):
                if not (isinstance(call, ast.Call) and call.args):
                    continue
                name = ast.unparse(call.func)
                dtype = [k.value for k in call.keywords if k.arg == "dtype"] + call.args[1:2]
                to_number = any(ast.unparse(d) in ("float", "complex") for d in dtype)
                converts = name in ("np.asarray", "np.array") and to_number
                read = {n.id for n in ast.walk(call.args[0]) if isinstance(n, ast.Name)}
                if (converts or name in _HAND_READS) and read & params:
                    found.append(f"{label}: {ast.unparse(call)}")
    return sorted(found)


def hand_read_report(sources: dict, exempt: set) -> tuple:
    """(the hand readings of sources that no exemption names, the exemptions that no hand reading needs)."""
    found = set(hand_reads(sources))
    return sorted(found - exempt), sorted(exempt - found)


def test_the_check_finds_each_hand_reading():
    sources = {
        "a": "def norm(v):\n    return np.linalg.norm(v)\n\n\n"
        "def stack(elements):\n    return np.array([o for o, _ in elements], dtype=float)\n\n\n"
        "def finite(x, y):\n    return math.isfinite(x), np.isfinite(y).all()\n\n\n"
        "def _private(v):\n    return np.asarray(v, dtype=float)\n\n\n"
        "def local(v):\n    w = v + 1\n    return np.linalg.norm(w), np.isfinite(w), np.asarray(v)\n\n\n"
        "class C:\n    def method(self, theta):\n        return np.asarray(theta, complex)\n\n"
        "    def __post_init__(self):\n        self.x = np.array(self.x, dtype=complex)\n"
        "        self.ok = math.isfinite(self.y)\n\n"
        "    def _helper(self):\n        return np.isfinite(self.x)\n",
        "_textio": "def real_vector(value):\n    return np.asarray(value, dtype=float)\n",
    }
    assert hand_reads(sources) == [
        "a.C.__post_init__: math.isfinite(self.y)",
        "a.C.__post_init__: np.array(self.x, dtype=complex)",
        "a.C.method: np.asarray(theta, complex)",
        "a.finite: math.isfinite(x)",
        "a.finite: np.isfinite(y)",
        "a.norm: np.linalg.norm(v)",
        "a.stack: np.array([o for o, _ in elements], dtype=float)",
    ]
    # an unexempted reading fails the check, and so does an exemption that no reading needs any more
    exempt = {"a.norm: np.linalg.norm(v)", "a.gone: np.isfinite(x)"}
    unexempted, stale = hand_read_report(sources, exempt)
    assert len(unexempted) == 6 and stale == ["a.gone: np.isfinite(x)"]


def test_package_reads_caller_input_through_textio():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert hand_read_report(sources, HAND_READ_EXEMPT) == ([], [])
