"""Command-line interface: formats, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overmoments import checks, cli, combinat, genfunc
from overmoments.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"

# SHA-256 of `verify --suite S` reports with default flags; proposition and
# oracle recorded while the suites still lived in the cli module, residual
# when delta_r's check against the pole expansion replaced the constant
# identity that held by algebra, wright when the full circle took one
# radius for an absolute aliasing target of tol/8
VERIFY_DIGESTS = {
    "proposition": "c3d8a0db18082dcb03aa841da3581c9b68c7f30938124cc803b730b900e09c94",
    "oracle": "1ea0c023384348200c9ea3222f82de96e06a06c867f5b74588fbc27bdb8ac614",
    "residual": "c1fa84436b6575471943a68917316baab198f53adc35fe3d96b7d03c5f9997d7",
    "wright": "8ce555245dae7c1b14482b9c12a3bb739338ed61fe35f695b5cc62fa7cdc4a0b",
}

# SHA-256 of `converge --flavor F --kind K --r 3 --grid 100,400,1600` (csv,
# at 256 bits); difference and symmetrized recorded while the subleading
# fit still ran at the caller's precision, moment while the power moments
# still went through the rational basis change, symmetrized rank while the
# Bessel factor still came from a hand-rolled recurrence
CONVERGE_DIGESTS = {
    ("difference", "crank"): "ba9f4c83a63d218650ad7071ed35ad76f81cb496d635746aff4f4e0bc74fb66c",
    ("moment", "crank"): "141b1470c3faba6d132d1d08d6961079e0cddfe1edc4980a369cfbd6c172f574",
    ("moment", "rank"): "bf3261be02e8baf811c24bf3c364917699f652914ead3763c82b44d621b63b0e",
    ("symmetrized", "crank"): "e3bfa7849085de3c944de9b145d0b68a2c00d60495a84fd098b3192f4bfbdd8f",
    ("symmetrized", "rank"): "7eb9b6abd008c49cdc6436312a79ac5ab663877bcdd46b5b8ef58e47ba05e222",
}


def run(args):
    return main(args)


def test_series_csv(tmp_path):
    out = tmp_path / "sr3.csv"
    assert run(["series", "--kind", "rank", "--r", "3", "--trunc", "7",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,coefficient"
    assert [int(line.split(",")[1]) for line in lines[1:]] == [0, 0, 0, 2, 8, 24, 60, 134]


def checksum(ser) -> str:
    """The series JSON checksum: the SHA-256 of the coefficients' decimal
    strings joined by newlines."""
    return hashlib.sha256("\n".join(map(str, ser)).encode()).hexdigest()


def test_series_json_manifest(tmp_path):
    out = tmp_path / "sr3.json"
    run(["series", "--kind", "rank", "--r", "3", "--trunc", "7",
         "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    ser = genfunc.moment_series("symmetrized", "rank", 3, 7)
    assert set(payload) == {"kind", "r", "trunc", "shift", "checksum", "coefficients"}
    assert (payload["kind"], payload["r"], payload["trunc"]) == ("rank", 3, 7)
    assert payload["checksum"] == checksum(ser)
    assert payload["coefficients"] == [str(c) for c in ser]


@pytest.mark.parametrize(
    "kind, r, trunc, shift", [("rank", 3, 0, None), ("crank", 4, 300, 2), ("rank", 7, 2000, None)]
)
def test_series_json_is_the_json_dump_of_its_manifest(kind, r, trunc, shift, tmp_path):
    # the coefficient strings are written one at a time, and the checksum
    # fed one at a time, with the bytes json.dump writes for the whole
    # manifest; trunc 0 hashes its one coefficient
    out = tmp_path / "s.json"
    argv = ["series", "--kind", kind, "--r", str(r), "--trunc", str(trunc), "--format", "json"]
    assert run(argv + ([] if shift is None else ["--shift", str(shift)]) + ["--out", str(out)]) == 0
    ser = genfunc.moment_series("symmetrized", kind, r, trunc, shift)
    payload = {
        "kind": kind,
        "r": r,
        "trunc": trunc,
        "checksum": checksum(ser),
        "shift": shift,
        "coefficients": [str(c) for c in ser],
    }
    assert out.read_text() == json.dumps(payload, sort_keys=True) + "\n"


def test_series_trunc_zero(tmp_path):
    out = tmp_path / "z.csv"
    run(["series", "--kind", "crank", "--r", "2", "--trunc", "0", "--out", str(out)])
    assert out.read_text().splitlines()[1:] == ["0,0"]


def test_outputs_are_deterministic(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    argv = ["series", "--kind", "crank", "--trunc", "200", "--format", "json"]
    run(argv + ["--r", "5", "--out", str(a)])
    run(argv + ["--r", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    want = checksum(genfunc.moment_series("symmetrized", "crank", 5, 200))
    assert json.loads(a.read_text())["checksum"] == want
    # another order, another checksum
    run(argv + ["--r", "4", "--out", str(c)])
    assert json.loads(c.read_text())["checksum"] != want
    a2, b2 = tmp_path / "a2.csv", tmp_path / "b2.csv"
    argv = ["ospt", "--r", "1:3", "--N", "0:40"]
    run(argv + ["--out", str(a2)])
    run(argv + ["--out", str(b2)])
    assert a2.read_bytes() == b2.read_bytes()


def test_ospt_verdicts(tmp_path):
    out = tmp_path / "ospt.csv"
    assert run(["ospt", "--r", "1:2", "--N", "0:30", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for r, N, value, verdict in rows:
        if N == "0":
            assert verdict == "not-applicable"
        else:
            assert verdict == "positive" and int(value) > 0


def test_converge_single_row_has_no_verdict(tmp_path):
    out = tmp_path / "c.json"
    run(["converge", "--flavor", "moment", "--kind", "crank", "--r", "2",
         "--grid", "100", "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 1
    assert payload["verdict"] is None


def test_converge_decreasing_verdict(tmp_path):
    out = tmp_path / "c.csv"
    run(["converge", "--flavor", "moment", "--kind", "rank", "--r", "2",
         "--grid", "100,225,400", "--out", str(out)])
    text = out.read_text()
    assert "# verdict=decreasing" in text
    assert "# prec_bits=256" in text


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify"])  # missing required --suite
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["converge", "--flavor", "moment", "--r", "2", "--grid", ""])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ospt", "--r", "1", "--N=-3:2"], "N must be >= 0, got -3"),
        (["ospt", "--r", "0:1", "--N", "1:3"], "r must be >= 1, got 0"),
        (["converge", "--flavor", "moment", "--r", "0", "--grid", "100"],
         "r must be >= 1, got 0"),
        (["converge", "--flavor", "moment", "--r", "2", "--grid", "100,-5"],
         "N must be >= 0, got -5"),
        (["series", "--kind", "crank", "--r", "3", "--trunc", "-1"],
         "trunc must be >= 0, got -1"),
        (["series", "--kind", "crank", "--r", "3", "--trunc", "5", "--shift", "7"],
         "shift 7 outside supported range -1..2"),
        (["converge", "--flavor", "moment", "--r", "2", "--grid", "100", "--workers", "0"],
         "invalid choice: 0 (choose from 1)"),
        (["verify", "--suite", "oracle", "--workers", "2"],
         "invalid choice: 2 (choose from 1)"),
    ],
)
def test_out_of_range_arguments_exit_2(argv, message, capsys):
    # negative N used to index the value list from its end; r < 1 and the
    # library's ValueErrors used to escape as a traceback with exit 1;
    # --workers is accepted only as 1, so 0 and 2 are both usage errors
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


def test_ospt_csv_is_byte_identical(tmp_path):
    # SHA-256 of the exact ospt table recorded before the fused pipeline
    out = tmp_path / "ospt.csv"
    assert run(["ospt", "--r", "1:6", "--N", "0:600", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "09833e42088f747efd4ca99a83dcae5c7b17f55ebfe20b36960d663610114bfd"
    )


def test_ospt_json_is_byte_identical(tmp_path, capsys):
    # SHA-256 recorded while the whole table was built before json.dump wrote it
    out = tmp_path / "ospt.json"
    argv = ["ospt", "--r", "1:3", "--N", "0:200", "--format", "json"]
    assert run(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ba349408bdcc7011ec7e57f79e2a7b300cc8c936328e40e8a032e2182796dd0d"
    )
    capsys.readouterr()
    assert run(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_ospt_memory_does_not_grow_with_orders(tmp_path):
    # each order's values are freed once its rows are written, so six orders
    # peak about where the largest one alone does (1.05 times).  With every
    # order held to the end it was 3.7 times, and 1.37 times with only the
    # `del` left out.  The yardstick is the largest order, not r = 1,
    # because order 6 alone peaks about 1.8 times as high as order 1; a
    # first small run keeps one-off first-call allocations out of both peaks.
    import tracemalloc

    def peak(orders, indices="0:2000"):
        tracemalloc.start()
        try:
            assert run(["ospt", "--r", orders, "--N", indices,
                        "--out", str(tmp_path / "ospt.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("1:1", "0:10")
    assert peak("1:6") <= 1.1 * peak("6:6")


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--kind", "crank", "--r", "3", "--trunc", "10"],
        ["ospt", "--r", "1:2", "--N", "0:10"],
        ["converge", "--flavor", "moment", "--r", "2", "--grid", "100"],
        ["verify", "--suite", "proposition"],
    ],
)
def test_unopenable_out_exits_2(argv, tmp_path, capsys):
    # used to finish the work, then die with a FileNotFoundError traceback
    # and exit 1, which verify reserves for a failed check
    path = tmp_path / "no-such-dir" / "x"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "cannot open --out" in err[0] and str(path) in err[0]


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["series", "--kind", "crank", "--r", "3", "--trunc", "10"], genfunc, "moment_series"),
        (["converge", "--flavor", "moment", "--r", "2", "--grid", "100"], cli,
         "_convergence_rows"),
        (["verify", "--suite", "oracle"], checks.SUITES, "oracle"),
        (["ospt", "--r", "1:2", "--N", "1:10"], genfunc, "moment_series"),
    ],
    ids=["series", "converge", "verify", "ospt"],
)
def test_unwritable_out_is_refused_before_the_work(argv, module, name, tmp_path, monkeypatch):
    # verify --suite oracle used to run the whole suite, about 2 s, before
    # a missing directory, an existing directory given as the file, a
    # regular file given as the directory, or an empty path exited 2
    def work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    if isinstance(module, dict):
        monkeypatch.setitem(module, name, work)
    else:
        monkeypatch.setattr(module, name, work)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "no-such-dir" / "x", tmp_path, tmp_path / "file" / "x", ""):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2


def test_ospt_opens_out_before_any_division(tmp_path):
    # six divisions through 200000 would take minutes
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run(["ospt", "--r", "1:6", "--N", "1:200000",
             "--out", str(tmp_path / "no-such-dir" / "x")])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 2


def test_budget_guard_exit_3(tmp_path, monkeypatch, capsys):
    # the enumeration budget is a module cap, so only a smaller cap trips it
    monkeypatch.setattr(combinat, "ENUMERATION_BUDGET", 10)
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "oracle", "--out", str(out)]) == 3
    assert "capped at overpartitions=10, got " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ospt", "--r", "1", "--N", "1:10000000"],
        ["series", "--kind", "rank", "--r", "3", "--trunc", "200001"],
        ["converge", "--flavor", "moment", "--r", "2", "--grid", "100,300000"],
    ],
)
def test_exact_trunc_guard_exit_3(argv, tmp_path, capsys):
    # ospt --N 1:10^7 used to start building 10^7 big integers
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    assert "capped at trunc=200000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["--N", "1:1000000000000"], 3, "capped at trunc=200000, got 1000000000000"),
        (["--N=-1000000000000:2"], 2, "N must be >= 0, got -1000000000000"),
    ],
)
def test_ospt_checks_the_ends_of_n_at_once(argv, code, message):
    # min and max of the --N range used to iterate it, for hours at 10^12
    # before the guard; a signal cannot interrupt that loop in C, so the
    # command runs in a child process that the timeout kills
    proc = subprocess.run(
        [sys.executable, "-m", "overmoments", "ospt", "--r", "1", *argv],
        capture_output=True, timeout=2, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == code
    assert proc.stderr.decode().splitlines()[-1].endswith(message)


def test_verify_proposition_suite(tmp_path):
    out = tmp_path / "prop.json"
    assert run(["verify", "--suite", "proposition", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "sample-expansion-rank-r3" in names
    assert "sample-expansion-crank-r4-shift2" in names


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--flavor", "moment", "--r", "2", "--grid", "100", "--prec", "512"],
        ["verify", "--suite", "oracle", "--budget", "10"],
    ],
    ids=["converge-prec", "verify-budget"],
)
def test_removed_options_are_usage_errors(argv, capsys):
    # the working precision and the enumeration budget are the constants
    # cli.PREC and combinat.ENUMERATION_BUDGET
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_command_line_census():
    # every option of every subcommand; a new one is an edit here
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for a in p._actions for s in a.option_strings if a.dest != "help"]
        for name, p in sub.choices.items()
    }
    assert options == {
        "series": ["--kind", "--r", "--trunc", "--shift", "--out", "--format"],
        "ospt": ["--r", "--N", "--out", "--format"],
        "converge": ["--flavor", "--kind", "--r", "--grid", "--workers", "--out", "--format"],
        "verify": ["--suite", "--workers", "--out"],
    }


def test_workers_1_is_accepted_and_changes_nothing(tmp_path):
    # scripts still pass --workers 1; it must write what the plain command writes
    for argv in (
        ["converge", "--flavor", "symmetrized", "--kind", "crank", "--r", "3",
         "--grid", "64,144,256", "--format", "json"],
        ["verify", "--suite", "proposition"],
    ):
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert run(argv + ["--out", str(plain)]) == 0
        assert run(argv + ["--workers", "1", "--out", str(flagged)]) == 0
        assert plain.read_bytes() == flagged.read_bytes()


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_report_is_byte_identical(suite, verify_run):
    code, report, _ = verify_run(suite)
    assert code == 0
    assert hashlib.sha256(report).hexdigest() == VERIFY_DIGESTS[suite]


@pytest.mark.parametrize("flavor, kind", sorted(CONVERGE_DIGESTS))
def test_converge_table_is_byte_identical(flavor, kind, tmp_path):
    out = tmp_path / f"{flavor}-{kind}.csv"
    assert run(["converge", "--flavor", flavor, "--kind", kind, "--r", "3",
                "--grid", "100,400,1600", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONVERGE_DIGESTS[flavor, kind]


def test_converge_tables_share_one_theta4_division(monkeypatch, tmp_path):
    # four tables on one grid read their coefficients off one pbar: the
    # empty memo forces that one division, whatever ran before
    from overmoments import genfunc, series

    calls = []
    divide = series.divide_by_theta4

    def counted(coeffs, trunc):
        calls.append(trunc)
        return divide(coeffs, trunc)

    monkeypatch.setattr(series, "_pbar", [])
    for module in (series, genfunc):
        monkeypatch.setattr(module, "divide_by_theta4", counted)
    for kind, r in (("crank", 3), ("crank", 4), ("rank", 3), ("rank", 4)):
        assert run(["converge", "--flavor", "symmetrized", "--kind", kind, "--r", str(r),
                    "--grid", "100,400,1600", "--out", str(tmp_path / "out")]) == 0
    assert calls == [1600]


@pytest.mark.parametrize("flavor", ["moment", "symmetrized", "difference"])
def test_converge_any_flavor_at_r9(flavor, tmp_path):
    # difference ratios 0.462, 0.685, 0.829 on this grid
    out = tmp_path / f"{flavor}.json"
    assert run(["converge", "--flavor", flavor, "--r", "9", "--grid", "100,400,1600",
                "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    res = [row["residual"] for row in report["rows"]]
    assert len(res) == 3 and all(b < a for a, b in zip(res, res[1:]))
    assert report["verdict"] == "decreasing"


@pytest.mark.parametrize(
    "argv",
    [
        ["ospt", "--r", "1000000000", "--N", "1:10"],
        ["converge", "--flavor", "difference", "--r", "257", "--grid", "10"],
        ["series", "--kind", "crank", "--r", "257", "--trunc", "10"],
    ],
)
def test_exact_order_guard_exit_3(argv, tmp_path, capsys):
    # ospt --r 10^9 used to start building weights m^r of about 415 MB each;
    # one past the cap is cheap to compute, so a missing guard fails fast
    start = time.perf_counter()
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err.splitlines()
    r = argv[argv.index("--r") + 1]
    assert err == [f"resource guard: exact moments capped at order r=256, got {r}"]
    assert not (tmp_path / "out").exists()


def test_module_entry_point_under_optimize(tmp_path):
    # python -O strips asserts: the checks must hold without them
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "overmoments", "verify", "--suite", "proposition"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_DIGESTS["proposition"]


# the numeric stack: mpmath with asympt and circle, hashlib (OpenSSL) and
# dataclasses (with inspect and ast), about 9 MB and 60 ms of a process
NUMERIC_STACK = (
    "mpmath", "hashlib", "dataclasses", "inspect", "overmoments.asympt", "overmoments.circle",
)

_LOADED_BY = """
import json, sys
before = set(sys.modules)
from overmoments import cli

def run(*argv):
    if cli.main([*argv, "--out", sys.argv[1]]) != 0:
        raise SystemExit(f"{argv} failed")
    print(json.dumps(sorted(m for m in %r if m in sys.modules and m not in before)))

run("ospt", "--r", "1:2", "--N", "1:20")
run("series", "--kind", "rank", "--r", "3", "--trunc", "30")
run("verify", "--suite", "proposition")
run("series", "--kind", "rank", "--r", "3", "--trunc", "30", "--format", "json")
run("converge", "--flavor", "moment", "--r", "2", "--grid", "100")
""" % (NUMERIC_STACK,)


def test_exact_commands_load_no_numeric_stack(tmp_path):
    # ospt, series and the exact suites are big-integer work; only series
    # --format json (its checksum) and converge load what they need of the
    # stack.  A child interpreter, since this one has loaded everything
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY, str(tmp_path / "out")],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = [json.loads(line) for line in proc.stdout.decode().splitlines()]
    assert loaded[:3] == [[], [], []]
    assert "hashlib" in loaded[3] and "mpmath" not in loaded[3]
    assert {"mpmath", "overmoments.asympt"} <= set(loaded[4])

def test_failed_check_exits_1(tmp_path, monkeypatch):
    from overmoments import checks

    monkeypatch.setitem(
        checks.SUITES, "oracle", lambda: [checks.check("forced", False)]
    )
    out = tmp_path / "fail.json"
    assert run(["verify", "--suite", "oracle", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["passed"] is False


def test_quadrature_failure_exits_3(tmp_path, monkeypatch, capsys):
    from overmoments import circle
    from overmoments.errors import QuadratureFailure

    def fail(*args):
        raise QuadratureFailure("forced")

    monkeypatch.setattr(circle, "_trapezoid_coefficient", fail)
    out = tmp_path / "wright.json"
    assert run(["verify", "--suite", "wright", "--out", str(out)]) == 3
    assert "resource guard: forced" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Random argument vectors: every exit is one of the documented codes.
# ---------------------------------------------------------------------------

def number(lo, hi):
    return st.integers(lo, hi).map(str)


def span(lo, hi):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(
        lambda p: "{}:{}".format(*sorted(p)))


def flags(required, optional):
    """argv fragments: every required --flag and some optional ones, each
    with a drawn value, then at most one stray token."""
    parts = [v.map(lambda x, f=f: [f"--{f}", x]) for f, v in required.items()]
    parts += [
        st.one_of(st.just([]), v.map(lambda x, f=f: [f"--{f}", x])) for f, v in optional.items()
    ]
    parts.append(st.sampled_from([[]] * 10 + MALFORMED))
    return st.tuples(*parts).map(lambda drawn: [a for part in drawn for a in part])


# stray tokens, each a usage error in every subcommand
MALFORMED = [
    ["x"], ["1.5"], ["1:2:3"], ["--bogus"], ["--r"], ["--prec", "256"], ["--budget", "10"],
]
FORMATS = st.sampled_from(["csv", "json", "xml"])
KINDS = st.sampled_from(["crank", "rank", "mock"])
MALFORMED_VERIFY = [
    ["--suite", "bogus"], ["--suite"], ["--budget", "10"], ["--prec", "256"],
    ["--workers", "2"], ["--bogus"], ["--out"],
]
ARGV = {
    "series": flags(
        {"kind": KINDS, "r": number(-2, 8), "trunc": number(-1, 40)},
        {"shift": number(-2, 8), "format": FORMATS},
    ),
    "ospt": flags({"r": span(0, 8), "N": span(-1, 40)}, {"format": FORMATS}),
    "converge": flags(
        {
            "flavor": st.sampled_from(["moment", "difference", "symmetrized", "mean"]),
            "r": number(-1, 8),
            "grid": st.lists(st.integers(-1, 400), min_size=1, max_size=3).map(
                lambda grid: ",".join(map(str, grid))),
        },
        {
            "kind": KINDS,
            "workers": st.sampled_from(["1", "1", "2"]),
            "format": FORMATS,
        },
    ),
    # a valid verify runs a whole suite, so only malformed flags are drawn
    "verify": st.lists(st.sampled_from(MALFORMED_VERIFY), min_size=1, max_size=3).map(
        lambda drawn: [a for part in drawn for a in part]),
}


def exit_status(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", sorted(ARGV))
def test_random_argument_vectors_exit_with_a_documented_code(command, tmp_path_factory):
    # exit 0 ok, 1 check failed, 2 usage error, 3 guard tripped; any other
    # exception escaping main fails the test
    folder = tmp_path_factory.mktemp(command)
    outs = st.sampled_from(["-", str(folder / "out"), str(folder / "missing" / "out")])

    @settings(max_examples=60, deadline=None, database=None)
    @given(ARGV[command], st.one_of(st.just([]), outs.map(lambda out: ["--out", out])))
    def exits_documented(argv, out):
        assert exit_status([command] + argv + out) in (0, 1, 2, 3)

    exits_documented()
