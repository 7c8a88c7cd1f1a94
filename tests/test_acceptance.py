"""Acceptance criteria A1-A8.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline).
Tolerances are fixed here, not tuned elsewhere:

  A1  exact integer equality of the two quoted sample expansions, < 1 s
  A2  exact equality series vs enumeration for n <= 25, r <= 6, < 2 min
  A3  |ratio - 1| strictly decreasing on {400, 900, 1600, 2500}, < 0.5 at 2500
  A4  difference ratio trend decreasing, ratio within [0.3, 3] at 2500
  A5  ospt_r(N) > 0 exactly for 1 <= r <= 6, 1 <= N <= 500
  A6  normalized pole residuals < 1.0 on {100, 1000, 10000} for r in 3..6
  A7  circle quadrature within 1e-8 of exact; major arc -> 1; pathway < 1
  A8  exact basis-change identity to N = 100; r! c~_r = gamma_r pi sqrt 2
      to 1e-20 for r <= 8
"""

import time
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest

from overmoments import asympt, circle, combinat, genfunc, moments
from overmoments.series import overpartition_gf

GRID = (400, 900, 1600, 2500)
RS = (2, 3, 4)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def exact_moments():
    """Positive power moments for r = 1..6, both kinds, N <= 2500."""
    trunc = max(GRID)
    pref = overpartition_gf(trunc)
    return {
        (kind, r): moments.positive_moment_values(kind, r, trunc, prefactor=pref)
        for kind in ("crank", "rank")
        for r in range(1, 7)
    }


def test_a1_quoted_sample_expansions():
    t0 = time.time()
    sr3 = genfunc.rank_symmetrized_series(3, 7)
    sc4_shift2 = genfunc.crank_binomial_series(4, 7, shift=2)
    list_ok = (
        list(sr3.coeffs[3:]) == [2, 8, 24, 60, 134]
        and list(sc4_shift2.coeffs[2:]) == [1, 6, 22, 63, 159, 358]
    )
    elapsed = time.time() - t0
    # label resolution, checked against enumeration: the first expansion is
    # the rank series at r=3 (standard shift); the second is the crank series
    # at r=4 with binomial shift 2 (not the standard shift 1)
    tables = {kind: combinat.build_table(kind, 7) for kind in ("rank", "crank")}
    ident_ok = True
    for n in range(8):
        rank_sum = sum(
            comb(m + 1, 3) * v for m, v in tables["rank"].column(n).items() if m >= 1
        )
        crank_sum = sum(
            comb(m + 2, 4) * v for m, v in tables["crank"].column(n).items() if m >= 1
        )
        if sr3[n] != rank_sum or sc4_shift2[n] != crank_sum:
            ident_ok = False
    _verdict(
        "A1",
        list_ok and ident_ok and elapsed < 1.0,
        f"rank r=3 and crank r=4/shift 2 reproduce the quoted lists in {elapsed:.3f}s",
    )


def test_a2_oracle_equivalence():
    t0 = time.time()
    nmax = 25
    enum_tables = {kind: combinat.build_table(kind, nmax) for kind in ("rank", "crank")}
    ok = True
    for kind, builder in (
        ("crank", genfunc.crank_binomial_series),
        ("rank", genfunc.rank_binomial_series),
    ):
        table = enum_tables[kind]
        for r in range(1, 7):
            ser = builder(r, nmax)
            for n in range(nmax + 1):
                if ser[n] != moments.symmetrized_positive_moment(table, r, n):
                    ok = False
    two_var = {
        "crank": genfunc.crank_two_variable(nmax),
        "rank": genfunc.rank_two_variable(nmax),
    }
    for kind in ("crank", "rank"):
        for n in range(nmax + 1):
            if two_var[kind].column(n) != enum_tables[kind].column(n):
                ok = False
    elapsed = time.time() - t0
    _verdict("A2", ok and elapsed < 120, f"n <= 25, r <= 6, both kinds, {elapsed:.1f}s")


def test_a3_moment_main_term_convergence(exact_moments):
    ok = True
    details = []
    for r in RS:
        consts = asympt.resolve_constants(r, 256)
        for kind in ("crank", "rank"):
            dist = []
            for N in GRID:
                log_exact = asympt.log_integer(exact_moments[(kind, r)][N], 256)
                log_main = asympt.main_term(kind, "moment_main", r, N, 256, consts)
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
        consts = asympt.resolve_constants(r, 256)
        dist = []
        final_ratio = None
        for N in GRID:
            diff = exact_moments[("crank", r)][N] - exact_moments[("rank", r)][N]
            log_exact = asympt.log_integer(diff, 256)
            log_main = asympt.main_term(
                "crank", "difference_main", r, N, 256, consts
            )
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


def test_a6_pole_expansion_residuals():
    ok = True
    worst = 0.0
    for kind in ("crank", "rank"):
        for r in (3, 4, 5, 6):
            fit = asympt.fit_subleading(kind, r)
            if fit.selected_tag is None:
                ok = False
            for N in (100, 1000, 10000):
                res = float(asympt.expansion_residual(kind, r, N, prec=192))
                worst = max(worst, res)
                if res >= 1.0:
                    ok = False
    _verdict("A6", ok, f"selected variants unique; max normalized residual {worst:.3f}")


def test_a7_wright_pipeline():
    ok = True
    worst = 0.0
    for kind, builder in (
        ("crank", genfunc.crank_binomial_series),
        ("rank", genfunc.rank_binomial_series),
    ):
        for r in (1, 2, 3, 4):
            for N in (25, 60):
                exact = builder(r, N)[N]
                got = circle.cauchy_coefficient(kind, r, N, tol=1e-8)
                rel = float(abs(got - exact) / exact)
                worst = max(worst, rel)
                if rel > 1e-8:
                    ok = False
    fractions = []
    for N in (25, 49, 100):
        exact = genfunc.crank_binomial_series(3, N)[N]
        major = circle.major_arc_coefficient("crank", 3, N, tol=1e-8)
        fractions.append(float(major / exact))
    dist = [abs(f - 1) for f in fractions]
    monotone = all(b < a for a, b in zip(dist, dist[1:]))
    pathway = [float(circle.bessel_pathway_check(3, N)) for N in (25, 100)]
    bounded = max(pathway) < 1.0
    _verdict(
        "A7",
        ok and monotone and bounded,
        f"worst quadrature error {worst:.2e}; major-arc fractions {fractions}; "
        f"pathway ratios {pathway}",
    )


def test_a8_basis_change_and_constant_identity():
    nmax = 100
    tables = {
        kind: combinat.build_table(kind, nmax, source="gf")
        for kind in ("crank", "rank")
    }
    ok = True
    for kind in ("crank", "rank"):
        for r in range(1, 7):
            sym_vals = {
                l: moments.symmetrized_moment_values(kind, l, nmax)
                for l in range(1, r + 1)
            }
            bc = moments.basis_change(r)
            for N in range(nmax + 1):
                lhs = moments.positive_moment(tables[kind], r, N)
                rhs = Fraction(factorial(r)) * sym_vals[r][N]
                for l in range(1, r):
                    rhs += bc.a[l] * sym_vals[l][N]
                if rhs.denominator != 1 or lhs != rhs.numerator:
                    ok = False
    identity_ok = True
    for r in range(1, 9):
        cs = asympt.resolve_constants(r, 256)
        with mp.workprec(256):
            diff = abs(mp.factorial(r) * cs.c_tilde - cs.gamma * mp.pi * mp.sqrt(2))
            if diff > mp.mpf(10) ** -20:
                identity_ok = False
    _verdict(
        "A8",
        ok and identity_ok,
        "basis-change identity exact to N=100; r! c~_r = gamma_r pi sqrt(2) to 1e-20",
    )
