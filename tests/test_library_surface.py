"""The library carries no public API that only tests call."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "closehecke").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def _references(tree):
    """Identifiers a tree uses: names, attributes, imported names, and
    strings that name an attribute (as the benchmark's tracer does)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def _public_definitions(tree):
    """Top-level functions and classes and their methods, without the
    underscore names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.ClassDef)))


def unreferenced_public_names(library=LIBRARY, callers=CALLERS):
    """``module.name`` for every public definition of ``library`` that no
    file of ``callers`` references outside the definition itself."""
    uses = Counter()
    for path in callers:
        uses.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    out = []
    for path in library:
        for node in _public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if node.name.startswith("_"):
                continue
            own = sum(1 for name in _references(node) if name == node.name)
            if uses[node.name] - own == 0:
                out.append(f"{path.stem}.{node.name}")
    return out


def test_no_library_api_that_only_tests_call():
    assert unreferenced_public_names() == []


def test_surface_scan_flags_a_name_without_callers(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class A:\n    def used(self):\n        return 1\n\n"
                   "    def unused(self):\n        return self.unused()\n\n"
                   "def helper():\n    return A().used()\n\n"
                   "def _private():\n    pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from lib import helper\n")
    assert unreferenced_public_names([lib], [lib, caller]) == ["lib.unused"]
