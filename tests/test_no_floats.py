"""The package computes with no floating point.

Every number in ``src/preab`` is an int or a Fraction, so results are
exact and reports byte-identical across machines.  An AST walk refuses
the three ways a float gets in: a true division ``/`` (or ``/=``), a
call of ``float`` or ``round``, and a float literal.  A float literal
is allowed only as an operand of a comparison, as in the random draws'
branch thresholds (``rng.random() < 0.2``), where it is never computed
with.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "preab"


def _float_uses(tree: ast.AST):
    """(line, what) for each use of floating point in ``tree``."""
    compared = {id(node) for cmp in ast.walk(tree) if isinstance(cmp, ast.Compare)
                for node in (cmp.left, *cmp.comparators)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "round"):
            yield node.lineno, f"{node.func.id}() call"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float) \
                and id(node) not in compared:
            yield node.lineno, f"float literal {node.value!r}"


def test_the_checker_finds_each_float_use():
    source = "\n".join([
        "a = 1 / 2",
        "a /= 2",
        "b = float(3)",
        "c = round(a)",
        "d = 0.5",
        "e = f(2.0)",
        "ok = rng.random() < 0.2 and 0.1 <= x",
        "also_ok = 7 // 2",
    ])
    assert sorted(line for line, _ in _float_uses(ast.parse(source))) == [1, 2, 3, 4, 5, 6]


def test_package_uses_no_floating_point():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in sources
        for line, what in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not found
