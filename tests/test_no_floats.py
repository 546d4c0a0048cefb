"""The library computes in exact arithmetic only: no source file under
src/latmod uses a float literal, float(), math.sqrt or math.pi."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latmod"
FLOAT_MATH = {"sqrt", "pi"}


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
