"""No source file under src/latmod writes an `assert` statement: `python -O`
strips them, so the library raises AssertionError itself on a broken
invariant, and the CLI exits 2 on it with or without -O."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latmod"


def test_library_source_has_no_assert_statement():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
