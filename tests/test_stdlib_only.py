"""The package runs on the standard library alone.

Every import in ``src/preab``, top level or inside a function, must name
a standard-library module or preab itself, so installing preab pulls in
no runtime dependency.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "preab"


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 5
    foreign = [
        f"{path.relative_to(PACKAGE)}: {root}"
        for path in sources
        for root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root != "preab" and root not in sys.stdlib_module_names
    ]
    assert not foreign
