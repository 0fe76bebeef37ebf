"""Invariants in the package are explicit raises: `python -O` strips asserts."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ezdlab"


def _assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_walker_finds_asserts():
    assert _assert_lines("def f(x):\n    if x:\n        assert x > 0, 'neg'\n") == [3]
    assert _assert_lines("x = 'assert False'  # assert\n") == []


def test_package_has_no_assert_statements():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}" for path in files for line in _assert_lines(path.read_text())]
    assert not found, f"assert statements in src/ezdlab (raise instead): {found}"
