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


def test_every_exported_name_is_used_in_src():
    # a public name that nothing in the package calls is dead API: delete
    # it, or move it into tests/oracles.py if it serves as an oracle.  The
    # names are every module's __all__ and every public method of a class.
    # A method counts as used only where an attribute reads it: a local or
    # an argument of the same spelling does not call it
    used, read = set(), set()
    exported, methods = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported += [(f"{path.stem}.{name}", name) for name in ast.literal_eval(node.value)]
            elif isinstance(node, ast.ClassDef):
                methods += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    unused = [label for label, name in exported if name not in used and name not in read]
    unused += [label for label, name in methods if name not in read]
    assert not unused, unused


def test_no_concurrency_in_src():
    # every command runs one serial path; a pool or a thread would be a
    # second path that no benchmark workload runs
    banned = {"concurrent", "multiprocessing", "threading"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] in banned]
    assert not found, found


def _readers(name: str) -> set[str]:
    """Every "module.function" in src/ that reads `name`, as an attribute, a
    bare name or an import, each read charged to its innermost function."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):  # breadth first: inner functions come later
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), node.name) for n in ast.walk(node))
        readers |= {
            f"{path.stem}.{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.alias) and node.name.endswith(name)
        }
    return readers


def test_eta_is_read_only_in_the_pole_expansion():
    # every main term reads eta off `asympt.pole_coefficients`; the residual
    # suite's closed form of delta_r is the one independent second side
    readers = _readers("altzeta")
    assert readers <= {"asympt.pole_coefficients", "checks.residual"}, readers


def test_one_entry_point_divides_a_moment_series():
    # every exact moment series is `genfunc.moment_series`; besides it only
    # the pbar memo and the quotient at a few indices divide by theta_4.
    # genfunc's <module> read is its import
    readers = _readers("divide_by_theta4")
    assert readers == {
        "genfunc.<module>",
        "genfunc.moment_series",
        "series.overpartition_gf",
        "series.theta4_quotient_at",
    }, readers
