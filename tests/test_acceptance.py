"""Acceptance criteria A1-A8.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
A1, A2, A6, A7 and A8's constant check run the `verify` suites of
`overmoments.checks` and pass when every check they cover passes, so their
grids and gates are the ones `verify` uses, defined once in `checks`:

  A1  proposition suite: the two quoted sample expansions exactly, the
      generalized shift identity against enumeration for r <= 6, n <= 16;
      the whole suite in < 1 s
  A2  oracle suite: exact equality series vs enumeration for n <= 25,
      r <= 6, < 2 min
  A3  |ratio - 1| strictly decreasing on {400, 900, 1600, 2500}, < 0.5 at 2500
  A4  difference ratio trend decreasing, ratio within [0.3, 3] at 2500
  A5  ospt_r(N) > 0 exactly for 1 <= r <= 6, 1 <= N <= 500
  A6  residual suite: the K-term pole expansion's relative residual has
      log-log slope within 0.1 of -K/2 over N = 10^3..10^5, K = 2, 4, 8,
      r in 3..6; automorphic prefactor closed form
  A7  wright suite: circle quadrature within 1e-8 of exact for
      N in {7, 25, 60}; major arc -> 1; pathway < 1
  A8  exact basis-change identity to N = 100; residual suite:
      delta_r = r! pi^{1-r} 2^{r-4} (C_1(crank) - C_1(rank)) to 1e-60 for
      r <= 8, with C_1 from `asympt.pole_coefficients`
"""

import time
from fractions import Fraction
from math import factorial

import mpmath as mp
import pytest

from oracles import basis_change
from overmoments import asympt, checks, genfunc, moments

GRID = (400, 900, 1600, 2500)
RS = (2, 3, 4)
IDENTITY = "difference-constant-vs-pole-expansion"


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def _run_suite(suite: str) -> tuple[list[dict], float]:
    """The checks of one `verify` suite at its defaults, and the seconds taken."""
    t0 = time.time()
    results = checks.SUITES[suite](checks.BUDGET)
    return results, time.time() - t0


def _suite_verdict(name: str, results: list[dict], ok: bool = True, detail: str = "") -> None:
    """PASS when `ok` holds and there are checks and every one passed."""
    failed = [c["name"] for c in results if not c["passed"]]
    notes = [f"{c['name']}: {c['detail']}" for c in results if c["detail"]]
    _verdict(
        name,
        ok and bool(results) and not failed,
        "; ".join(filter(None, [f"{len(results)} checks, failed {failed}", *notes, detail])),
    )


@pytest.fixture(scope="module")
def residual_suite():
    """The residual suite, run once for A6 and A8."""
    return _run_suite("residual")[0]


@pytest.fixture(scope="module")
def exact_moments():
    """Positive power moments for r = 1..6, both kinds, N <= 2500."""
    trunc = max(GRID)
    return {
        (kind, r): genfunc.moment_series("moment", kind, r, trunc)
        for kind in ("crank", "rank")
        for r in range(1, 7)
    }


def test_a1_quoted_sample_expansions():
    # label resolution, checked against enumeration: the first quoted list is
    # the rank series at r=3 (standard shift); the second is the crank series
    # at r=4 with binomial shift 2 (not the standard shift 1)
    results, elapsed = _run_suite("proposition")
    _suite_verdict("A1", results, elapsed < 1.0, f"{elapsed:.3f}s")


def test_a2_oracle_equivalence():
    results, elapsed = _run_suite("oracle")
    _suite_verdict("A2", results, elapsed < 120, f"{elapsed:.1f}s")


def test_a3_moment_main_term_convergence(exact_moments):
    ok = True
    details = []
    for r in RS:
        for kind in ("crank", "rank"):
            dist = []
            for N in GRID:
                log_exact = asympt.log_integer(exact_moments[(kind, r)][N], 256)
                log_main = asympt.main_term("moment", r, N, 256)
                with mp.workprec(256):
                    dist.append(float(abs(mp.e ** (log_exact - log_main) - 1)))
            if not all(b < a for a, b in zip(dist, dist[1:])):
                ok = False
            if not dist[-1] < 0.5:
                ok = False
            details.append(f"{kind[0]}{r}:{dist[-1]:.3f}")
    _verdict("A3", ok, "final |ratio-1| " + " ".join(details))


def test_a4_difference_main_term_convergence(exact_moments):
    ok = True
    details = []
    for r in RS:
        dist = []
        final_ratio = None
        for N in GRID:
            diff = exact_moments[("crank", r)][N] - exact_moments[("rank", r)][N]
            log_exact = asympt.log_integer(diff, 256)
            log_main = asympt.main_term("difference", r, N, 256)
            with mp.workprec(256):
                ratio = mp.e ** (log_exact - log_main)
            final_ratio = float(ratio)
            dist.append(float(abs(ratio - 1)))
        if not all(b < a for a, b in zip(dist, dist[1:])):
            ok = False
        if not 0.3 <= final_ratio <= 3:
            ok = False
        details.append(f"r{r}:{final_ratio:.4f}")
    _verdict("A4", ok, "ratio at N=2500 " + " ".join(details))


def test_a5_ospt_positivity(exact_moments):
    ok = True
    for r in range(1, 7):
        for N in range(1, 501):
            value = exact_moments[("crank", r)][N] - exact_moments[("rank", r)][N]
            if value <= 0:
                ok = False
    _verdict("A5", ok, "ospt_r(N) > 0 exactly for r <= 6, 1 <= N <= 500")


def test_a6_pole_expansion_residuals(residual_suite):
    _suite_verdict("A6", [c for c in residual_suite if c["name"] != IDENTITY])


def test_a7_wright_pipeline():
    _suite_verdict("A7", _run_suite("wright")[0])


def test_a8_basis_change_and_constant_identity(residual_suite):
    nmax = 100
    tables = {"crank": genfunc.crank_two_variable(nmax), "rank": genfunc.rank_two_variable(nmax)}
    ok = True
    for kind in ("crank", "rank"):
        for r in range(1, 7):
            sym_vals = {
                l: genfunc.moment_series("symmetrized", kind, l, nmax)
                for l in range(1, r + 1)
            }
            bc = basis_change(r)
            for N in range(nmax + 1):
                lhs = moments.positive_moment(tables[kind], r, N)
                rhs = Fraction(factorial(r)) * sym_vals[r][N]
                for l in range(1, r):
                    rhs += bc.a[l] * sym_vals[l][N]
                if rhs.denominator != 1 or lhs != rhs.numerator:
                    ok = False
    _suite_verdict(
        "A8",
        [c for c in residual_suite if c["name"] == IDENTITY],
        ok,
        "basis-change identity exact to N=100",
    )
