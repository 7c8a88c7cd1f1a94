"""Source-level invariants of the package."""

import ast
import importlib
import pathlib
import pkgutil
import re
import sys

import overmoments

SRC = pathlib.Path(overmoments.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]


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


def _functions_with(match) -> set[str]:
    """Every "module.function" in src/ holding a node for which match(node)
    is true, each node charged to its innermost function."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for node in ast.walk(tree):  # breadth first: inner functions come later
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), node.name) for n in ast.walk(node))
        found |= {
            f"{path.stem}.{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if match(node)
        }
    return found


def _readers(name: str) -> set[str]:
    """Every "module.function" in src/ that reads `name`, as an attribute, a
    bare name or an import."""
    return _functions_with(
        lambda node: isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.alias) and node.name.endswith(name)
    )


def test_eta_is_read_only_in_the_pole_expansion():
    # every main term reads eta off `asympt.pole_coefficients`; the residual
    # suite's closed form of delta_r is the one independent second side
    readers = _readers("altzeta")
    assert readers <= {"asympt.pole_coefficients", "checks.residual"}, readers


def test_one_entry_point_divides_a_moment_series():
    # every exact moment series is `genfunc.moment_series`; besides it only
    # the pbar memo divides by theta_4, and the quotient at a few indices
    # reads that memo.  genfunc's <module> read is its import
    readers = _readers("divide_by_theta4")
    assert readers == {
        "genfunc.<module>",
        "genfunc.moment_series",
        "series.overpartition_gf",
    }, readers


def _is_kind_membership(node) -> bool:
    # kind in ("crank", "rank"), kind not in {"rank", "crank"}, ..., or a
    # membership test on two or more of the flavor names
    def names(right):
        return {e.value for e in right.elts if isinstance(e, ast.Constant)}

    return isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.In, ast.NotIn))
        and isinstance(right, (ast.Tuple, ast.List, ast.Set))
        and (
            {"crank", "rank"} <= names(right)
            or len(names(right) & {"moment", "difference", "symmetrized"}) >= 2
        )
        for op, right in zip(node.ops, node.comparators)
    )


def _names_the_order(node) -> bool:
    # a raise whose message reads "... r must be >= ...", or leaves the name
    # to its caller, as "{name} must be >= ..." does; each interpolation
    # reads as {}
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
        return False
    message = node.exc.args[0]
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    text = "".join(
        part.value if isinstance(part, ast.Constant) and isinstance(part.value, str) else "{}"
        for part in parts
    )
    return re.search(r"(?<![\w}])(r|\{\}) must be >", text) is not None


def _is_order_floor_raise(node) -> bool:
    # if r < least: raise ..., also as 0 > r, r <= 0 or part of a longer test;
    # or a floor on any name whose raise names the order, as in
    # if low < least: raise ValueError(f"{name} must be >= {least}")
    def below(compare):
        sides = [compare.left, *compare.comparators]
        return any(
            isinstance(left, ast.Name) and left.id == "r" and isinstance(op, (ast.Lt, ast.LtE))
            or isinstance(right, ast.Name) and right.id == "r" and isinstance(op, (ast.Gt, ast.GtE))
            for left, op, right in zip(sides, compare.ops, sides[1:])
        )

    if not isinstance(node, ast.If):
        return False
    compares = [n for n in ast.walk(node.test) if isinstance(n, ast.Compare)]
    raises = [n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Raise)]
    return bool(compares and raises) and (
        any(map(below, compares)) or any(map(_names_the_order, raises))
    )


def test_one_owner_for_the_kind_and_order_rules():
    # which statistics exist and which orders are valid is written once, in
    # series, and the flavors are read off genfunc.Flavor; every entry point
    # that takes a kind or an order calls these.  The order's floor is the
    # size rule's, with the name "order r" left to its caller
    assert _functions_with(_is_kind_membership) == {"series.check_kind"}
    assert _functions_with(_is_order_floor_raise) == {"series.check_size"}


def test_circle_states_no_input_rule_of_its_own():
    # tol's finiteness and a Bessel segment's order are series' rules, read
    # through check_size and check_order
    source = (SRC / "circle.py").read_text()
    raises = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and "ValueError" in ast.unparse(node.exc or node)
    ]
    assert "isfinite" not in source and not raises, raises


def _constructs_oversize_request(node) -> bool:
    return isinstance(node, ast.Call) and "OversizeRequest" in ast.unparse(node.func)


def _is_floor_raise(node) -> bool:
    # if a < b: raise ValueError(...), with <, <=, > or >= as the test or one
    # operand of an and/or, or a negated range, if not a <= b <= c, on any
    # name and whatever the message says.  A test inside any(), as
    # combinat's rules on the parts of one overpartition, and a negated
    # single comparison, as its subset test on the overlined values, are not
    if not isinstance(node, ast.If):
        return False
    tests = node.test.values if isinstance(node.test, ast.BoolOp) else [node.test]
    tests = [
        t.operand if isinstance(t, ast.UnaryOp) and isinstance(t.op, ast.Not)
        and isinstance(t.operand, ast.Compare) and len(t.operand.ops) > 1 else t
        for t in tests
    ]
    return any(
        isinstance(test, ast.Compare)
        and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in test.ops)
        for test in tests
    ) and any(
        isinstance(n, ast.Raise) and n.exc is not None and "ValueError" in ast.unparse(n.exc)
        for stmt in node.body
        for n in ast.walk(stmt)
    )


def test_one_owner_for_the_size_rule():
    # every floor and cap on a trunc, order, N, K, term count, budget or
    # tolerance is series.check_size: OversizeRequest is built nowhere else,
    # and no other if refuses a compared value with ValueError.  Two
    # exceptions refuse what is not a size: checks.converge a computed value,
    # an exact coefficient that is not positive, and genfunc.weight a shift
    # outside -1..r-1, a bad argument at either end, where check_size's
    # OversizeRequest (exit 3, a tripped guard) would be the wrong error
    assert _functions_with(_constructs_oversize_request) == {"series.check_size"}
    assert _functions_with(_is_floor_raise) == {
        "series.check_size", "checks.converge", "genfunc.weight",
    }


def test_only_the_command_line_reads_hashlib():
    # the series JSON manifest and its checksum rule live in cli, beside the
    # bytes they shape; the generating-function code loads no hashlib
    readers = _readers("hashlib")
    assert readers and {reader.split(".")[0] for reader in readers} == {"cli"}, readers


def test_the_command_line_reads_no_numeric_module():
    # cli only parses, dispatches and writes: the numeric stack is loaded
    # inside checks' functions, converge's table among them
    readers = set().union(*map(_readers, ("mpmath", "asympt", "circle")))
    assert not {reader for reader in readers if reader.startswith("cli.")}, readers


def _is_fixed_point_conversion(node) -> bool:
    # mp.mpf((mantissa, -W)): an int read back from a fixed-point scale
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == "mp.mpf"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Tuple)
        and isinstance(node.args[0].elts[-1], ast.UnaryOp)
        and isinstance(node.args[0].elts[-1].op, ast.USub)
    )


def test_one_runner_converts_a_kernel_result():
    # every numeric q-series, the circle's integrand included, is a kernel
    # run by asympt.evaluate, which alone turns its int pair into an mpc
    assert _functions_with(_is_fixed_point_conversion) == {"asympt.evaluate"}


def test_the_exact_trunc_cap_is_read_only_in_series():
    # series.check_trunc is the one home of the cap; a second check of it
    # elsewhere can only drift from the first
    readers = _readers("EXACT_TRUNC_CAP")
    assert readers and {reader.split(".")[0] for reader in readers} == {"series"}, readers


def test_the_pbar_memo_is_read_only_by_overpartition_gf():
    # every reader takes pbar from overpartition_gf, which alone grows the memo
    readers = _readers("_pbar")
    assert readers == {"series.<module>", "series.overpartition_gf"}, readers


def test_no_unused_import_in_src():
    # no linter is a declared dependency, so this is the check: a name an
    # import binds counts as used where its module reads it or lists it in
    # __all__
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{n} {name}" for name, n in imported.items() if name not in read]
    assert not unused, unused


def _rounded_returns(node) -> bool:
    # return +x, or +x in a returned tuple, list or list comprehension
    if not isinstance(node, ast.Return) or node.value is None:
        return False
    value = node.value
    parts = [value.elt] if isinstance(value, ast.ListComp) else getattr(value, "elts", [value])
    return any(isinstance(part, ast.UnaryOp) and isinstance(part.op, ast.UAdd) for part in parts)


def test_numeric_functions_return_unrounded():
    # asympt and circle return each value at the precision they computed it
    # in; only the reporting layer rounds, once.  A unary plus on the way out
    # rounds a second time, to a precision that need not fit the value
    found = [
        f"{name}:{node.lineno}"
        for name in ("asympt.py", "circle.py")
        for node in ast.walk(ast.parse((SRC / name).read_text()))
        if _rounded_returns(node)
    ]
    assert not found, found


def test_imports_are_stdlib_declared_or_own():
    # a third-party module installed where the tests run but not declared in
    # pyproject.toml (numpy, scipy, sympy, yaml, ...) imports fine there and
    # fails on a clean install; pyproject is read as text, since tomllib is
    # not in python 3.10
    declared = set(re.findall(
        r'"([A-Za-z0-9_.-]+)',
        " ".join(re.findall(r"^(?:dependencies|test) = \[(.*)\]$",
                            (REPO / "pyproject.toml").read_text(), re.M)),
    ))
    assert declared == {"mpmath", "pytest", "hypothesis"}, declared
    allowed = set(sys.stdlib_module_names) | declared | {"overmoments", "oracles", "conftest"}
    found = []
    for path in sorted(p for d in ("src", "tests", "demos") for p in (REPO / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(REPO)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not found, found
