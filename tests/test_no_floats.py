"""The library computes in exact arithmetic only: no source file under
src/latmod uses a float literal, float(), math.sqrt or math.pi, and no
`/` is written outside matrixops.ratio, the one exact quotient (between
two ints, `/` is a float)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latmod"
FLOAT_MATH = {"sqrt", "pi"}
# (file, function) where `/` may be written.
DIVISION_ALLOWED = {("matrixops.py", "ratio")}


def float_uses(tree):
    """(line, what) for every float literal, float() call and use of
    math.sqrt or math.pi, by attribute or by import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal %r" % node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float()"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append((node.lineno, "math." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, "math." + a.name) for a in node.names if a.name in FLOAT_MATH)
    return found


def test_library_source_has_no_floating_point():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        "%s:%d: %s" % (path.name, line, what)
        for path in files
        for line, what in float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_float_uses_are_detected():
    src = "import math\nfrom math import pi\nx = 0.5\ny = float(3)\nz = math.sqrt(2)\n"
    assert [what for _, what in float_uses(ast.parse(src))] == [
        "math.pi",
        "float literal 0.5",
        "float()",
        "math.sqrt",
    ]


def true_divisions(tree):
    """(line, enclosing function) for every true division, `a / b` or
    `a /= b`; the function is "" at module level."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return found


def test_library_source_divides_only_in_ratio():
    found = [
        "%s:%d in %s()" % (path.name, line, function)
        for path in sorted(SRC.glob("*.py"))
        for line, function in true_divisions(ast.parse(path.read_text(), str(path)))
        if (path.name, function) not in DIVISION_ALLOWED
    ]
    assert found == []


def test_true_divisions_are_detected():
    src = "h = 1 / 2\ndef ratio(a, b):\n    return a / b\ndef f(x):\n    x /= 2\n    return x // 3 / 4\n"
    assert true_divisions(ast.parse(src)) == [(1, ""), (3, "ratio"), (5, "f"), (6, "f")]
