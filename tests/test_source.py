"""Source-level invariants of the package."""

import ast
import importlib
import pathlib
import pkgutil

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


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only at `from module import *` time
    modules = [overmoments] + [
        importlib.import_module(f"overmoments.{info.name}")
        for info in pkgutil.iter_modules([str(SRC)])
        if info.name != "__main__"  # importing it runs the command line
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert not missing, missing


def test_every_error_type_is_raised():
    # an error class that nothing raises is dead API
    errors = ast.parse((SRC / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined - raised == {"OvermomentsError"}
