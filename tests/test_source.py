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


# names that code outside the package calls, each with the caller
REACHED_FROM_OUTSIDE = {
    # argparse calls it on a bad command line
    "cli._Parser.error",
    # the benchmark's tracer patches it by name; it is the division
    # reference that the tests check quotients against
    "laurent.LaurentPoly.exact_divide",
    # the benchmark's tracer patches it by name; it is the JSON reference
    # that the tests check `_canonical` against
    "laurent.LaurentPoly.to_json_dict",
}


def test_every_definition_is_referenced_in_the_package():
    # a function, method or class that no code of the package names,
    # apart from its own body, is reached by tests alone; tests keep
    # such references in tests/reference.py instead
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, path.stem)]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    defs.append((f"{prefix}.{child.name}", child))
                    stack.append((child, f"{prefix}.{child.name}"))
                else:
                    stack.append((child, prefix))
        refs += [(node, node.id if isinstance(node, ast.Name) else node.attr)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))]
    unreferenced = []
    for qualname, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        own = {id(inner) for inner in ast.walk(node)}
        if not any(ref == name and id(at) not in own for at, ref in refs):
            unreferenced.append(qualname)
    assert sorted(unreferenced) == sorted(REACHED_FROM_OUTSIDE)
