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


def test_no_nested_function_refers_to_its_own_name():
    # a nested function that refers to its own name holds itself in its
    # closure cell, a reference cycle that keeps everything it closes
    # over alive until a full garbage collection
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, functions):
                    continue
                names = {node.id for node in ast.walk(inner)
                         if isinstance(node, ast.Name)}
                if inner.name in names:
                    found.add(f"{path.name}:{inner.lineno} {inner.name}")
    assert sorted(found) == []


def test_only_laurent_uses_its_private_names():
    # the packed exponent form and the other private helpers of
    # `laurent` stay behind its public names
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "laurent.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} {alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module in ("laurent", "superschur.laurent")
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []
