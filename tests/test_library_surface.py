"""The library carries no public API that only tests call."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "closehecke").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def _references(tree):
    """Identifiers a tree uses, each with whether it can reach a method:
    attributes and strings that name an attribute (as the benchmark's tracer
    does) can, names and imported names cannot."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, True


def _public_definitions(tree):
    """Top-level functions and classes, then their methods, each with
    whether it is a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((item, True) for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.ClassDef)))


def unreferenced_public_names(library=LIBRARY, callers=CALLERS):
    """``module.name`` for every public definition of ``library`` that no
    file of ``callers`` references outside the definition itself.  A method
    counts as referenced only through an attribute or a string, so a local
    variable of the same name does not keep it."""
    uses = Counter()
    for path in callers:
        uses.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    out = []
    for path in library:
        for node, is_method in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if node.name.startswith("_"):
                continue
            kinds = (True,) if is_method else (True, False)
            used = sum(uses[node.name, kind] for kind in kinds)
            own = sum(1 for name, kind in _references(node) if name == node.name and kind in kinds)
            if used - own == 0:
                out.append(f"{path.stem}.{node.name}")
    return out


def test_no_library_api_that_only_tests_call():
    assert unreferenced_public_names() == []


def test_surface_scan_flags_a_name_without_callers(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n    def used(self):\n        return 1\n\n"
                   "    def unused(self):\n        return self.unused()\n\n"
                   "    def shadowed(self):\n        return 2\n\n"
                   "def helper():\n    shadowed = A().used()\n    return shadowed\n\n"
                   "def _private():\n    pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from lib import helper\n")
    assert unreferenced_public_names([lib], [lib, caller]) == ["lib.unused", "lib.shadowed"]
