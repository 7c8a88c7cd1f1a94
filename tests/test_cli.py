"""Command-line interface: formats, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from overmoments.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"

# SHA-256 of `verify --suite S` reports with default flags; proposition and
# oracle recorded while the suites still lived in the cli module, residual
# when delta_r's check against the pole expansion replaced the constant
# identity that held by algebra, wright when the full circle moved to
# N + 2 - N % 2 points on a smaller radius
VERIFY_DIGESTS = {
    "proposition": "c3d8a0db18082dcb03aa841da3581c9b68c7f30938124cc803b730b900e09c94",
    "oracle": "1ea0c023384348200c9ea3222f82de96e06a06c867f5b74588fbc27bdb8ac614",
    "residual": "c1fa84436b6575471943a68917316baab198f53adc35fe3d96b7d03c5f9997d7",
    "wright": "9934e32ffc92b8f60a74638b38dac82708074511972b22fcf87ea8ce8cedec15",
}

# SHA-256 of `converge --flavor F --kind K --r 3 --grid 100,400,1600` (csv,
# default --prec); difference and symmetrized recorded while the subleading
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


def test_series_json_manifest(tmp_path):
    from overmoments import genfunc

    out = tmp_path / "sr3.json"
    run(["series", "--kind", "rank", "--r", "3", "--trunc", "7",
         "--format", "json", "--out", str(out)])
    payload = json.loads(out.read_text())
    ser = genfunc.rank_binomial_series(3, 7)
    manifest = genfunc.series_manifest("rank", 3, 7, ser)
    assert payload["checksum"] == manifest["checksum"]
    assert payload["coefficients"] == [str(c) for c in ser]


def test_series_trunc_zero(tmp_path):
    out = tmp_path / "z.csv"
    run(["series", "--kind", "crank", "--r", "2", "--trunc", "0", "--out", str(out)])
    assert out.read_text().splitlines()[1:] == ["0,0"]


def test_outputs_are_deterministic(tmp_path):
    from overmoments import genfunc

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["series", "--kind", "crank", "--r", "5", "--trunc", "200", "--format", "json"]
    run(argv + ["--out", str(a)])
    run(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    manifest = genfunc.series_manifest(
        "crank", 5, 200, genfunc.crank_binomial_series(5, 200)
    )
    assert json.loads(a.read_text())["checksum"] == manifest["checksum"]
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
        (["series", "--kind", "crank", "--r", "3", "--trunc", "-1"], "trunc must be >= 0"),
        (["series", "--kind", "crank", "--r", "3", "--trunc", "5", "--shift", "7"],
         "shift 7 outside supported range -1..2"),
        (["converge", "--flavor", "moment", "--r", "2", "--grid", "100", "--workers", "0"],
         "invalid choice: 0 (choose from 1)"),
        (["verify", "--suite", "oracle", "--workers", "2"],
         "invalid choice: 2 (choose from 1)"),
        (["verify", "--suite", "oracle", "--budget", "-1"], "budget must be >= 0, got -1"),
    ],
)
def test_out_of_range_arguments_exit_2(argv, message, capsys):
    # negative N used to index the value list from its end; r < 1 and the
    # library's ValueErrors used to escape as a traceback with exit 1;
    # --workers is accepted only as 1, so 0 and 2 are both usage errors;
    # --budget -1 used to trip the enumeration guard with exit 3
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


def test_budget_guard_exit_3(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "oracle", "--budget", "10",
                "--out", str(out)]) == 3


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


def test_verify_proposition_suite(tmp_path):
    out = tmp_path / "prop.json"
    assert run(["verify", "--suite", "proposition", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "sample-expansion-rank-r3" in names
    assert "sample-expansion-crank-r4-shift2" in names


def test_precision_flag_validation():
    with pytest.raises(SystemExit) as exc:
        run(["converge", "--flavor", "moment", "--r", "2", "--grid", "100",
             "--prec", "32"])
    assert exc.value.code == 2


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
def test_verify_report_is_byte_identical(suite, tmp_path):
    out = tmp_path / f"{suite}.json"
    assert run(["verify", "--suite", suite, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[suite]


@pytest.mark.parametrize("flavor, kind", sorted(CONVERGE_DIGESTS))
def test_converge_table_is_byte_identical(flavor, kind, tmp_path):
    out = tmp_path / f"{flavor}-{kind}.csv"
    assert run(["converge", "--flavor", flavor, "--kind", kind, "--r", "3",
                "--grid", "100,400,1600", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONVERGE_DIGESTS[flavor, kind]


def test_converge_tables_share_one_theta4_division(monkeypatch, tmp_path):
    # four tables on one grid read their coefficients off one pbar: the
    # empty memo forces that one division, whatever ran before
    from overmoments import genfunc, moments, series

    calls = []
    divide = series.divide_by_theta4

    def counted(coeffs, trunc):
        calls.append(trunc)
        return divide(coeffs, trunc)

    monkeypatch.setattr(series, "_pbar", [])
    for module in (series, moments, genfunc):
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


def test_failed_check_exits_1(tmp_path, monkeypatch):
    from overmoments import checks

    monkeypatch.setitem(
        checks.SUITES, "oracle", lambda budget: [checks.check("forced", False)]
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
