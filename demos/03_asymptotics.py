"""Asymptotic main terms against exact data.

The positive moments grow like gamma_r N^{r/2-1} e^{pi sqrt N} and the
crank-minus-rank difference like delta_r N^{r/2-3/2} e^{pi sqrt N}.  Both
come from the pole expansion S(e^{-t}) ~ sum_k C_k t^{k-r} of the Lambert
sums, derived in closed form; its K-term residual decays like N^{-K/2},
and the exact data confirms the resulting delta_r.
"""

import mpmath as mp

from overmoments import asympt, moment_series

mp.mp.dps = 30

# --- constants and the pole expansion ---------------------------------------

# c_r = C_0, gamma_r = r! C_0 pi^-r 2^(r-3), and
# delta_r = r! (C_1(crank) - C_1(rank)) pi^(1-r) 2^(r-4)
for r in (2, 3, 4):
    crank, rank = (asympt.pole_coefficients(kind, r, 2, 192) for kind in ("crank", "rank"))
    c = crank[0]
    gamma = mp.factorial(r) * c * mp.pi ** (-r) * mp.mpf(2) ** (r - 3)
    delta = mp.factorial(r) * (crank[1] - rank[1]) * mp.pi ** (1 - r) * mp.mpf(2) ** (r - 4)
    print(f"r={r}: c={mp.nstr(c, 10)} gamma={mp.nstr(gamma, 10)} "
          f"delta={mp.nstr(delta, 10)}")

print("\npole coefficients C_0..C_3, S(e^-t) ~ sum_k C_k t^(k-r):")
for kind in ("crank", "rank"):
    C = asympt.pole_coefficients(kind, 4, 4, 192)
    print(f"  {kind:5s} r=4: " + "  ".join(mp.nstr(v, 10) for v in C))

# --- ratio of exact to main term --------------------------------------------

r = 3
grid = (400, 900, 1600, 2500)
exact = moment_series("moment", "crank", r, max(grid))
diff = moment_series("difference", "crank", r, max(grid))
print(f"\nexact / main term, crank r={r}:")
for N in grid:
    lg = asympt.log_integer(exact[N], 192)
    lm = asympt.main_term("moment", r, N, 192)
    ld = asympt.log_integer(diff[N], 192)
    lmd = asympt.main_term("difference", r, N, 192)
    with mp.workprec(192):
        print(f"  N={N:5d}  moment ratio {mp.nstr(mp.e**(lg-lm), 8)}   "
              f"difference ratio {mp.nstr(mp.e**(ld-lmd), 8)}")

# --- the pole expansion itself ------------------------------------------------

print("\nK-term relative residual at t = pi/(2 sqrt N), crank r=4 (slope -> -K/2):")
C = asympt.pole_coefficients("crank", 4, 8, 224)
grid = (10**3, 10**4, 10**5)
with mp.workprec(224):
    res = {K: [] for K in (2, 4, 8)}
    for N in grid:
        t = mp.pi / (2 * mp.sqrt(N))
        S = asympt.s_series_eval("crank", 4, mp.e ** (-t), 224)
        for K in res:
            res[K].append(abs(S / mp.fsum(C[k] * t ** (k - 4) for k in range(K)) - 1))
    for K, vals in res.items():
        slope = mp.log(vals[-1] / vals[0]) / mp.log(mp.mpf(grid[-1]) / grid[0])
        values = "  ".join(mp.nstr(v, 4) for v in vals)
        print(f"  K={K}: {values}   slope {mp.nstr(slope, 4)}")

print("\nautomorphic prefactor vs closed form (quotient - 1):")
for y in (mp.mpf(1) / 10, mp.mpf(1) / 20, mp.mpf(1) / 40):
    print(f"  tau = i*{mp.nstr(y, 4)}: {mp.nstr(asympt.eta_quotient_check(mp.mpc(0, y), 160), 4)}")
