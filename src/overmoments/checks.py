"""The paper's checks, as named suites of pass/fail results.

`verify --suite S` writes the report of `SUITES[S]`, and the acceptance
tests run the same suites, so each grid and each gate lives here once.  A
suite takes no argument and returns a list of checks
`{"name", "passed", "detail"}`:

  oracle       exact series and two-variable series against enumeration
  proposition  the generalized shift identity and the quoted sample expansions
  residual     pole-expansion orders, delta_r from the pole expansion, the prefactor
  wright       circle-method coefficients against the exact ones

Imports: oracle and proposition are exact and load the exact layer only;
residual imports mpmath and `asympt`, and wright imports `circle`, inside
the suite, so importing this module (as the command line's parser does for
the suite names) loads no numeric module.
"""

from __future__ import annotations

from . import combinat, genfunc, moments
from .series import overpartition_gf, theta4_quotient_at

__all__ = ["check", "oracle", "proposition", "residual", "wright", "SUITES"]


def check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def oracle() -> list[dict]:
    nmax = 25
    checks = []
    tables = {}
    for kind in ("rank", "crank"):
        table = combinat.build_table(kind, nmax)
        tables[kind] = table
        pbar = overpartition_gf(nmax)
        sums_ok = all(table.column_sum(n) == pbar[n] for n in range(nmax + 1))
        checks.append(check(f"{kind}-column-sums", sums_ok))
        checks.append(check(f"{kind}-symmetry", table.is_symmetric()))
    for kind in ("rank", "crank"):
        ok = True
        for r in range(1, 7):
            ser = genfunc.moment_series("symmetrized", kind, r, nmax)
            for n in range(nmax + 1):
                if ser[n] != moments.symmetrized_positive_moment(tables[kind], r, n):
                    ok = False
        checks.append(check(f"{kind}-series-vs-enumeration", ok))
    for kind, build in (("rank", genfunc.rank_two_variable), ("crank", genfunc.crank_two_variable)):
        two_variable = build(nmax)
        ok = all(two_variable.column(n) == tables[kind].column(n) for n in range(nmax + 1))
        checks.append(check(f"{kind}-two-variable-vs-enumeration", ok))
    return checks


def proposition() -> list[dict]:
    nmax = 16
    checks = []
    tables = {kind: combinat.build_table(kind, nmax) for kind in ("rank", "crank")}
    ok = True
    for r in range(0, 7):
        for shift in range(-1, r):
            for kind, table in tables.items():
                ser = genfunc.moment_series("symmetrized", kind, r, nmax, shift)
                for n in range(nmax + 1):
                    if ser[n] != moments.symmetrized_positive_moment(table, r, n, shift):
                        ok = False
    checks.append(check("generalized-shift-identity", ok))
    sr3 = genfunc.moment_series("symmetrized", "rank", 3, 7)
    checks.append(
        check(
            "sample-expansion-rank-r3",
            sr3[3:8] == [2, 8, 24, 60, 134],
            "coefficients q^3..q^7",
        )
    )
    sc4 = genfunc.moment_series("symmetrized", "crank", 4, 7, shift=2)
    checks.append(
        check(
            "sample-expansion-crank-r4-shift2",
            sc4[2:8] == [1, 6, 22, 63, 159, 358],
            "coefficients q^2..q^7",
        )
    )
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
    dist = [abs(f - 1) for f in fractions]
    checks.append(
        check(
            "major-arc-fraction-approaches-1",
            all(b < a for a, b in zip(dist, dist[1:])),
            f"fractions {fractions}",
        )
    )
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
