"""The paper's checks: named pass/fail suites and the convergence table.

`verify --suite S` writes the report of `SUITES[S]`, and the acceptance
tests run the same suites, so each grid and each gate lives here once.  A
suite takes no argument and returns a list of checks
`{"name", "passed", "detail"}`:

  oracle       every flavor's exact series and the two-variable series against enumeration
  proposition  the generalized shift identity and the quoted sample expansions
  residual     pole-expansion orders, delta_r from the pole expansion, the prefactor
  wright       circle-method coefficients against the exact ones

`converge` is the table the command writes and A3 and A4 read, at `PREC`
bits; its verdict and wright's major arc read one trend rule, `decreasing`.

Imports: oracle and proposition are exact and load the exact layer only;
converge and residual import mpmath and `asympt`, and wright imports
`circle`, inside the function, so importing this module (as the command
line does) loads no numeric module.
"""

from __future__ import annotations

from . import combinat, genfunc, moments
from .series import check_indices, check_size, overpartition_gf, theta4_quotient_at

__all__ = ["check", "converge", "decreasing", "matches_enumeration", "oracle", "proposition",
           "residual", "wright", "SUITES"]

# converge's working precision.  A table prints its logs to 30 digits, about
# 100 bits, and its ratio as a double, off by at most pi sqrt(N) 2^-PREC <
# 2^(11-PREC) for N <= EXACT_TRUNC_CAP; 256 bits cover both with 140 to
# spare.  Tables at 256 and 4096 bits are identical; at 64 the logs go wrong
# past the 19th digit
PREC = 256


def check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def decreasing(values) -> bool:
    """The one trend rule: each value strictly below the one before it."""
    return all(b < a for a, b in zip(values, values[1:]))


def matches_enumeration(series, enumerated) -> bool:
    """Whether an exact series equals its enumeration sum at every index n."""
    return all(c == enumerated(n) for n, c in enumerate(series))


def converge(flavor: str, kind: str, r: int, grid: list[int]) -> dict:
    """The main-term ratio table over grid: per N the logs of the exact value,
    taken here at PREC, and of `asympt.main_term` to 30 digits, their ratio
    and |ratio - 1| as doubles; the verdict says whether those residuals
    decrease, None for one row.  It reads their trend in N, so a grid that is
    not strictly ascending is refused after its least point meets main_term's
    N floor; then `series.check_indices` and main_term's rules, all before
    the numerator is built.  A non-positive exact value has no log: refused."""
    import mpmath as mp

    from . import asympt

    check_size("N", min(grid), 1)
    if not decreasing(grid[::-1]):
        raise ValueError(f"grid must be strictly ascending, got {grid}")
    check_indices(grid)
    log_mains = [asympt.main_term(flavor, r, N, PREC) for N in grid]
    numerator = genfunc.numerator(flavor, kind, r, max(grid))
    rows = []
    for N, exact, log_main in zip(grid, theta4_quotient_at(numerator, grid), log_mains):
        if exact <= 0:
            raise ValueError(f"exact value at N={N} is not positive")
        with mp.workprec(PREC):
            log_exact = mp.log(exact)
            ratio = mp.e ** (log_exact - log_main)
            rows.append({"N": N, "log_exact": mp.nstr(log_exact, 30),
                         "log_main": mp.nstr(log_main, 30), "ratio": float(ratio),
                         "residual": float(abs(ratio - 1))})
    res = [row["residual"] for row in rows]
    verdict = None if len(res) < 2 else "decreasing" if decreasing(res) else "not-decreasing"
    return dict(flavor=flavor, kind=kind, r=r, prec_bits=PREC, rows=rows, verdict=verdict)


def oracle() -> list[dict]:
    nmax = 25
    checks = []
    tables = {}
    for kind in ("rank", "crank"):
        table = tables[kind] = combinat.build_table(kind, nmax)
        pbar = overpartition_gf(nmax)
        sums_ok = all(table.column_sum(n) == pbar[n] for n in range(nmax + 1))
        checks.append(check(f"{kind}-column-sums", sums_ok))
        checks.append(check(f"{kind}-symmetry", table.is_symmetric()))
    for kind, table in tables.items():
        ok = all(matches_enumeration(genfunc.moment_series("symmetrized", kind, r, nmax),
                                     lambda n: moments.symmetrized_positive_moment(table, r, n))
                 for r in range(1, 7))
        checks.append(check(f"{kind}-series-vs-enumeration", ok))
        ok = all(matches_enumeration(genfunc.moment_series("moment", kind, r, nmax),
                                     lambda n: moments.positive_moment(table, r, n))
                 for r in range(1, 7))
        checks.append(check(f"{kind}-moment-series-vs-enumeration", ok))
    ok = all(matches_enumeration(genfunc.moment_series("difference", "crank", r, nmax),
                                 lambda n: moments.ospt(r, n, tables["crank"], tables["rank"]))
             for r in range(1, 7))
    checks.append(check("ospt-series-vs-enumeration", ok))
    for kind, build in (("rank", genfunc.rank_two_variable), ("crank", genfunc.crank_two_variable)):
        two_variable = build(nmax)
        ok = all(two_variable.column(n) == tables[kind].column(n) for n in range(nmax + 1))
        checks.append(check(f"{kind}-two-variable-vs-enumeration", ok))
    return checks


def proposition() -> list[dict]:
    nmax = 16
    checks = []
    tables = {kind: combinat.build_table(kind, nmax) for kind in ("rank", "crank")}
    ok = all(matches_enumeration(genfunc.moment_series("symmetrized", kind, r, nmax, shift),
                                 lambda n: moments.symmetrized_positive_moment(table, r, n, shift))
             for r in range(0, 7) for shift in range(-1, r) for kind, table in tables.items())
    checks.append(check("generalized-shift-identity", ok))
    sr3 = genfunc.moment_series("symmetrized", "rank", 3, 7)
    checks.append(check("sample-expansion-rank-r3", sr3[3:8] == [2, 8, 24, 60, 134],
                        "coefficients q^3..q^7"))
    sc4 = genfunc.moment_series("symmetrized", "crank", 4, 7, shift=2)
    checks.append(check("sample-expansion-crank-r4-shift2", sc4[2:8] == [1, 6, 22, 63, 159, 358],
                        "coefficients q^2..q^7"))
    # at z = 1 each two-variable series is the overpartition series
    pbar = overpartition_gf(30)
    for kind, build in (("crank", genfunc.crank_two_variable), ("rank", genfunc.rank_two_variable)):
        table = build(30)
        at_z1 = [table.column_sum(n) for n in range(31)]
        checks.append(check(f"{kind}-two-variable-z1", at_z1 == pbar))
    return checks


def residual() -> list[dict]:
    # the K-term pole expansion's relative residual decays like N^{-K/2}:
    # its log-log slope over N = 10^3..10^5, at t = pi / (2 sqrt N), must
    # lie within 0.1 of -K/2.  Rank r = 5, K = 4 is the worst case at 0.067;
    # its slope is 0.13 off over 100..10^5 and 0.09999 off over 10^3..10^4,
    # so N = 100 is left out and no single decade is gated
    import mpmath as mp

    from . import asympt

    checks = []
    prec, orders = 224, (2, 4, 8)
    for kind in ("crank", "rank"):
        for r in range(3, 7):
            C = asympt.pole_coefficients(kind, r, max(orders), prec)
            res = {K: [] for K in orders}
            with mp.workprec(prec):
                for N in (10**3, 10**5):
                    t = mp.pi / (2 * mp.sqrt(N))
                    S = asympt.s_series_eval(kind, r, mp.e ** (-t), prec)
                    for K in orders:
                        res[K].append(abs(S / mp.fsum(C[k] * t ** (k - r) for k in range(K)) - 1))
                slopes = [float(mp.log(b / a) / mp.log(100)) for a, b in res.values()]
            checks.append(
                check(
                    f"{kind}-r{r}-expansion-order",
                    all(abs(sl + K / 2) < 0.1 for K, sl in zip(orders, slopes)),
                    "slopes " + ", ".join(f"K={K}: {sl:.3f}" for K, sl in zip(orders, slopes)),
                )
            )
    # converge's difference main term reads delta_r off the pole expansion,
    # whose C_1 is built from Bernoulli numbers; at N = 1 its log is
    # log delta_r + pi, against the closed form r! pi^{1-r} 2^{r-5} eta(r-2)
    with mp.workprec(256):
        ok = True
        for r in range(1, 9):
            delta = mp.factorial(r) * mp.pi ** (1 - r) * mp.mpf(2) ** (r - 5) * mp.altzeta(r - 2)
            gap = asympt.main_term("difference", r, 1, 256) - mp.pi - mp.log(delta)
            if abs(gap) > mp.mpf(10) ** (-60):
                ok = False
        checks.append(check("difference-constant-vs-pole-expansion", ok))
    q20 = float(asympt.eta_quotient_check(mp.mpc(0, 0.05)))
    q40 = float(asympt.eta_quotient_check(mp.mpc(0, 0.025)))
    checks.append(
        check(
            "automorphic-prefactor-closed-form",
            q20 < 1e-10 and q40 < q20 / 100,
            f"at i/20: {q20:.3e}, at i/40: {q40:.3e}",
        )
    )
    return checks


def wright() -> list[dict]:
    from . import circle

    rels, grid = [], (7, 25, 60)
    for kind in ("crank", "rank"):
        for r in (1, 2, 3, 4):
            numerator = genfunc.numerator("symmetrized", kind, r, max(grid))
            for N, exact in zip(grid, theta4_quotient_at(numerator, grid)):
                approx = circle.cauchy_coefficient(kind, r, N, tol=1e-8)
                rels.append(float(abs(approx - exact) / exact) if exact else float(abs(approx)))
    worst = max(rels)
    checks = [
        check(
            "cauchy-matches-exact",
            worst <= 1e-8,
            f"{len(rels)} coefficients, worst relative error {worst:.3e}",
        )
    ]
    grid = (25, 49, 100)
    numerator = genfunc.numerator("symmetrized", "crank", 3, max(grid))
    fractions = [
        float(circle.major_arc_coefficient("crank", 3, N, tol=1e-8)) / exact
        for N, exact in zip(grid, theta4_quotient_at(numerator, grid))
    ]
    checks.append(
        check(
            "major-arc-fraction-approaches-1",
            decreasing([abs(f - 1) for f in fractions]),
            f"fractions {fractions}",
        )
    )
    # the claim is |P - I| = O(e^{3 pi sqrt N / 4}) with a constant not
    # derived, so the gate is ratio < 1; at r = 3 the ratio measured 0.0145,
    # 0.0061, 0.0024, 0.0020, 0.0012 and 0.0012 at N = 25, 100, 400, 900,
    # 1600 and 2500
    path = [float(circle.bessel_pathway_check(3, N)) for N in (25, 100)]
    checks.append(
        check("bessel-pathway-bounded", max(path) < 1.0, f"ratios {path}")
    )
    return checks


SUITES = {
    "oracle": oracle,
    "proposition": proposition,
    "residual": residual,
    "wright": wright,
}
