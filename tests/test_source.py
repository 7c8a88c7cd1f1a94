"""Source-level invariants of the package."""

import ast
import pathlib

import overmoments

SRC = pathlib.Path(overmoments.__file__).parent


def test_no_assert_in_src():
    # `python -O` strips assert statements; invariants must raise explicitly,
    # and with a type other than AssertionError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
