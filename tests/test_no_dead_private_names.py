"""Every private helper in the package is used by the package.

A function, method or class of ``src/preab`` whose name starts with an
underscore (dunders aside) is an internal helper, so when nothing in
``src/preab`` refers to it, it is dead code and is deleted rather than
kept for the tests.  An AST walk collects each such definition and each
reference: a name that is read, an attribute, or a name imported.  A
reference from inside a definition of the same name, as in a recursive
call, does not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "preab"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions_and_references(tree: ast.AST):
    """({name: first line} of the private definitions, {names referred to})."""
    defined, referred = {}, set()

    def visit(node, enclosing):
        if isinstance(node, _DEFINITIONS):
            if _is_private(node.name):
                defined.setdefault(node.name, node.lineno)
            enclosing = enclosing | {node.name}
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.ImportFrom):
            names = tuple(alias.name for alias in node.names)
        referred.update(name for name in names if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return defined, referred


def test_the_checker_finds_each_unreferenced_private_name():
    source = "\n".join([
        "def _dead(): return _dead()",
        "def _called(): pass",
        "class _Used: pass",
        "class _Unused:",
        "    def _method(self): pass",
        "    def _hook(self): pass",
        "    def __init__(self): self._hook()",
        "def public(): return _called(), _Used",
        "from .elsewhere import _imported",
    ])
    defined, referred = _definitions_and_references(ast.parse(source))
    assert set(defined) - referred == {"_dead", "_Unused", "_method"}


def test_every_private_definition_is_referenced():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 5
    defined, referred = {}, set()
    for path in sources:
        names, refs = _definitions_and_references(ast.parse(path.read_text(), str(path)))
        defined.update((name, f"{path.relative_to(PACKAGE)}:{line}")
                       for name, line in names.items())
        referred |= refs
    assert len(defined) > 40
    assert sorted(f"{where}: {name}" for name, where in defined.items()
                  if name not in referred) == []
