"""The benchmark's workloads: inputs drawn from a seed, the timed solve, and
the output checks that run after the clock stops.

Each workload runs through the package's public entry points only:
`cli.main` where a subcommand exists, the library function otherwise.  The
program receives nothing but the generated inputs.  `manifest.json` records
why each workload was chosen and which layers it exercises.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

from overmoments import asympt, circle, cli, combinat, genfunc, moments

# exact_ospt: Nmax range and orders.  The range is narrow because the
# Kronecker multiply costs about Nmax^2.4; a 10% wider draw would move the
# solve time by 25% from seed to seed and hide a 10% regression.
OSPT_NMAX_RANGE = (9900, 10000)
OSPT_ORDERS = (1, 2, 3, 4, 5, 6)
OSPT_ORACLE_N = 20

# circle_cauchy: (function, kind, r, N range).  The ranges are narrow for
# two reasons.  The adaptive quadrature's work jumps with N: (crank, 3, N)
# takes 1235-1245 integrand evaluations for N = 54..60 and 62 but 1743 for
# N = 61 and N >= 63, and the major arc takes 506-510 for N = 90..101 but
# 573 at N = 102.  And within a range the cost per evaluation grows with N:
# +-10% draws spread solve_s by 5% from seed to seed, half the bound.
CIRCLE_JOBS = (
    ("cauchy", "crank", 3, (59, 60)),
    ("cauchy", "rank", 4, (25, 26)),
    ("cauchy", "crank", 1, (7, 8)),
    ("major_arc", "crank", 3, (98, 101)),
)
CIRCLE_TOL = 1e-8
CIRCLE_REL_GATE = 1e-8
MAJOR_ARC_GATE = 1e-3

# asymptotic_tables: the converge grid, each point jittered by +-2% (+-5%
# spread solve_s by 3% from seed to seed through the multiply at N ~ 10^4).
CONVERGE_GRID = (400, 900, 1600, 2500, 4900, 10000)
CONVERGE_JITTER = 0.02
CONVERGE_CASES = (("crank", 3), ("crank", 4), ("rank", 3), ("rank", 4))

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _check(name: str, attempted: int, failed: int) -> dict:
    return {"name": name, "attempted": attempted, "failed": failed}


def _run_cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"overmoments {' '.join(argv)} exited {rc}")


def _exact_coefficient(kind: str, r: int, N: int) -> int:
    build = genfunc.crank_binomial_series if kind == "crank" else genfunc.rank_binomial_series
    return build(r, N)[N]


# ---------------------------------------------------------------------------
# exact_ospt
# ---------------------------------------------------------------------------


def ospt_inputs(seed: int) -> dict:
    return {"nmax": random.Random(seed).randint(*OSPT_NMAX_RANGE)}


def ospt_solve(inputs: dict, workdir: str) -> dict:
    path = os.path.join(workdir, "ospt.csv")
    orders = f"{OSPT_ORDERS[0]}:{OSPT_ORDERS[-1]}"
    _run_cli(["ospt", "--r", orders, "--N", f"1:{inputs['nmax']}", "--out", path])
    return {"path": path}


def ospt_check(inputs: dict, outputs: dict) -> tuple[int, list[dict], dict]:
    nmax = inputs["nmax"]
    with open(outputs["path"], "rb") as fp:
        data = fp.read()
    with open(REFERENCE) as fp:
        want = json.load(fp)["ospt_csv_sha256"].get(str(nmax))
    checks = [_check("csv-sha256-matches-reference", 1,
                     int(hashlib.sha256(data).hexdigest() != want))]
    values = {}
    for line in data.decode().splitlines()[1:]:
        r, N, v, _verdict = line.split(",")
        values[int(r), int(N)] = int(v)
    expected = len(OSPT_ORDERS) * nmax
    checks.append(_check("row-count", 1, int(len(values) != expected)))
    checks.append(_check("ospt-positive", expected,
                         sum(1 for v in values.values() if v <= 0) + expected - len(values)))
    tables = {kind: combinat.build_table(kind, OSPT_ORACLE_N) for kind in ("crank", "rank")}
    mismatches = sum(
        values.get((r, N)) != moments.ospt(r, N, tables["crank"], tables["rank"])
        for r in OSPT_ORDERS
        for N in range(1, OSPT_ORACLE_N + 1)
    )
    checks.append(_check("ospt-matches-enumeration", len(OSPT_ORDERS) * OSPT_ORACLE_N,
                         mismatches))
    return expected, checks, {}


# ---------------------------------------------------------------------------
# circle_cauchy
# ---------------------------------------------------------------------------


def circle_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"jobs": [[fn, kind, r, rng.randint(*span)] for fn, kind, r, span in CIRCLE_JOBS]}


def circle_solve(inputs: dict, workdir: str) -> dict:
    values = []
    for fn, kind, r, N in inputs["jobs"]:
        coefficient = circle.cauchy_coefficient if fn == "cauchy" else circle.major_arc_coefficient
        values.append(coefficient(kind, r, N, tol=CIRCLE_TOL))
    return {"values": values}


def circle_check(inputs: dict, outputs: dict) -> tuple[int, list[dict], dict]:
    checks = []
    worst = 0.0
    for (fn, kind, r, N), value in zip(inputs["jobs"], outputs["values"]):
        exact = _exact_coefficient(kind, r, N)
        if fn == "cauchy":
            rel = float(abs(value - exact) / exact)
            worst = max(worst, rel)
            checks.append(_check(f"cauchy-{kind}-r{r}-N{N}-within-1e-8", 1,
                                 int(not rel <= CIRCLE_REL_GATE)))
        else:
            frac = float(value / exact)
            checks.append(_check(f"major-arc-{kind}-r{r}-N{N}-fraction-near-1", 1,
                                 int(not abs(frac - 1) <= MAJOR_ARC_GATE)))
    return len(outputs["values"]), checks, {"circle.max_rel_err": worst}


# ---------------------------------------------------------------------------
# asymptotic_tables
# ---------------------------------------------------------------------------


def tables_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"grid": [round(N * rng.uniform(1 - CONVERGE_JITTER, 1 + CONVERGE_JITTER))
                     for N in CONVERGE_GRID]}


def tables_solve(inputs: dict, workdir: str) -> dict:
    residual = os.path.join(workdir, "residual.json")
    _run_cli(["verify", "--suite", "residual", "--workers", "1", "--out", residual])
    grid = ",".join(str(N) for N in inputs["grid"])
    tables = []
    for kind, r in CONVERGE_CASES:
        path = os.path.join(workdir, f"converge-{kind}-r{r}.json")
        _run_cli(["converge", "--flavor", "symmetrized", "--kind", kind, "--r", str(r),
                  "--grid", grid, "--workers", "1", "--format", "json", "--out", path])
        tables.append(path)
    return {"residual": residual, "tables": tables}


def tables_check(inputs: dict, outputs: dict) -> tuple[int, list[dict], dict]:
    with open(outputs["residual"]) as fp:
        report = json.load(fp)
    suite = report["checks"]
    checks = [
        _check("residual-suite-passed", 1, int(report["passed"] is not True)),
        _check("residual-checks-passed", len(suite), sum(not c["passed"] for c in suite)),
    ]
    rows = []
    for path in outputs["tables"]:
        with open(path) as fp:
            rows.extend(json.load(fp)["rows"])
    expected = len(CONVERGE_CASES) * len(inputs["grid"])
    checks.append(_check("ratio-row-count", 1, int(len(rows) != expected)))
    checks.append(_check("ratio-finite-positive", len(rows),
                         sum(not (math.isfinite(row["ratio"]) and row["ratio"] > 0)
                             for row in rows)))
    return len(suite) + len(rows), checks, {}


# ---------------------------------------------------------------------------
# roadmap_baseline: the single calls whose times the ROADMAP quotes, run
# once by `run.py --baseline` so the first results file reproduces them as
# per-call layer times.  Not a driver workload.
# ---------------------------------------------------------------------------


def baseline_inputs(seed: int) -> dict:
    return {"ospt": [6, 10000], "cauchy": ["crank", 3, 60], "resolve_constants": 3}


def baseline_solve(inputs: dict, workdir: str) -> dict:
    return {
        "ospt": moments.ospt_values(*inputs["ospt"]),
        "cauchy": circle.cauchy_coefficient(*inputs["cauchy"], tol=CIRCLE_TOL),
        "constants": asympt.resolve_constants(inputs["resolve_constants"]),
    }


def baseline_check(inputs: dict, outputs: dict) -> tuple[int, list[dict], dict]:
    kind, r, N = inputs["cauchy"]
    exact = _exact_coefficient(kind, r, N)
    rel = float(abs(outputs["cauchy"] - exact) / exact)
    ospt = outputs["ospt"][1:]
    checks = [
        _check("ospt-positive", len(ospt), sum(v <= 0 for v in ospt)),
        _check("cauchy-within-1e-8", 1, int(not rel <= CIRCLE_REL_GATE)),
    ]
    return len(ospt) + 2, checks, {"circle.max_rel_err": rel}


WORKLOADS = {
    "exact_ospt": (ospt_inputs, ospt_solve, ospt_check),
    "circle_cauchy": (circle_inputs, circle_solve, circle_check),
    "asymptotic_tables": (tables_inputs, tables_solve, tables_check),
    "roadmap_baseline": (baseline_inputs, baseline_solve, baseline_check),
}
