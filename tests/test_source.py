"""Checks on the package source itself."""

import ast
from pathlib import Path

import superschur

SRC = Path(superschur.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check that a library
    # caller relies on must raise an explicit exception instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
