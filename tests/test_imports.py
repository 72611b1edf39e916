"""Every name a module of the package imports is used in that module, and
every function, class and method the package defines is used somewhere.

``__init__.py`` is exempt from the import scan: its imports are the
package's re-exports.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import adjkit

PACKAGE = Path(adjkit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_scan_sees_an_unused_import():
    src = "from x import a, b\nimport c.d\ndef f() -> b:\n    return c.d\n"
    assert unused_imports(src) == ["a (line 1)"]


def definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level functions and classes, and the non-dunder methods of
    module-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [m for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def mentions(tree: ast.AST) -> list[str]:
    """Every identifier the code mentions: names, attributes, imported
    names, and the identifier-like words of string constants other than
    docstrings (perfbench names what it wraps as strings such as
    "GenericContext.det_power")."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = []
    for node in ast.walk(tree):
        if id(node) in docstrings:
            continue
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append((node.asname or node.name).split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out += re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value)
    return out


def unused_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """The definitions in ``package`` (file name -> source) that no code in
    it or in ``others`` mentions outside the definition itself."""
    count = Counter()
    defined = []
    for name, source in sorted(package.items()):
        tree = ast.parse(source)
        count.update(mentions(tree))
        defined += [(name, d) for d in definitions(tree)]
    for source in others:
        count.update(mentions(ast.parse(source)))
    # a mention inside the definition itself (recursion) does not count
    return sorted(f"{name}: {d.name} (line {d.lineno})" for name, d in defined
                  if count[d.name] - mentions(d).count(d.name) < 1)


def test_no_unused_definitions():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text() for d in ("tests", "perfbench")
              for p in sorted((ROOT / d).glob("*.py"))]
    assert unused_definitions(package, others) == []


def test_the_scan_sees_an_unused_definition():
    src = ('"""Module text: doc_only."""\n'
           "class A:\n"
           '    """Class text: doc_only."""\n'
           "    def used(self):\n"
           '        """Method text: doc_only."""\n'
           "        return self.used_too()\n"
           "    def used_too(self): return 1\n"
           "    def unused(self): return self.unused()\n"
           "    def __repr__(self): return ''\n"
           "def helper(): return helper()\n"
           "def named(): pass\n"
           "def doc_only(): pass\n")
    assert unused_definitions({"m.py": src}, ["A().used()", "x = 'm.named'"]) == [
        "m.py: doc_only (line 12)", "m.py: helper (line 10)",
        "m.py: unused (line 8)"]
