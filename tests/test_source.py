"""Properties of the library source itself."""

import ast
from pathlib import Path

import semimod

SOURCES = sorted(Path(semimod.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_library():
    """Invariants are real checks: `assert` vanishes under `python -O`."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
