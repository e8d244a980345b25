"""No module of the package uses `assert` or raises AssertionError.

Malformed input raises ValueError where it enters, and an invariant that holds
by construction is tested, not checked again at run time. An internal
post-condition would reach a CLI user as a traceback, and `python -O` drops
`assert` statements.
"""

import ast
import pathlib

import fracsurf


def test_no_assert_statement_or_assertion_error():
    root = pathlib.Path(fracsurf.__file__).parent
    modules = sorted(root.rglob("*.py"))
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raises AssertionError")
            elif isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} asserts")
    assert len(modules) > 1 and not found, found
