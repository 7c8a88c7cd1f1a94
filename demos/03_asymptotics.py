"""Asymptotic main terms against exact data.

The positive moments grow like gamma_r N^{r/2-1} e^{pi sqrt N} and the
crank-minus-rank difference like delta_r N^{r/2-3/2} e^{pi sqrt N}.  The
subleading pole constants come in several candidate readings; the residual
fit selects the one that keeps the pole-expansion error bounded, and the
exact data then confirms the resulting delta_r.
"""

import mpmath as mp

from overmoments import asympt
from overmoments.moments import ospt_values, positive_moment_values

mp.mp.dps = 30

# --- constants and the variant fit ------------------------------------------

for r in (2, 3, 4):
    cs = asympt.resolve_constants(r, 192)
    print(f"r={r}: c={mp.nstr(cs.c, 10)} gamma={mp.nstr(cs.gamma, 10)} "
          f"delta={mp.nstr(cs.delta, 10)} "
          f"(crank variant {cs.d_crank_tag}, rank variant {cs.d_rank_tag})")

fit = asympt.fit_subleading("rank", 4)
print("\nrank r=4 residual growth slopes per candidate:")
for tag, slope in sorted(fit.slopes.items()):
    marker = "  <- selected" if tag == fit.selected_tag else ""
    print(f"  {tag:14s} {slope:+.3f}{marker}")

# --- ratio of exact to main term --------------------------------------------

r = 3
grid = (400, 900, 1600, 2500)
exact = positive_moment_values("crank", r, max(grid))
diff = ospt_values(r, max(grid))
cs = asympt.resolve_constants(r, 192)
print(f"\nexact / main term, crank r={r}:")
for N in grid:
    lg = asympt.log_integer(exact[N], 192)
    lm = asympt.main_term("crank", "moment_main", r, N, 192, cs)
    ld = asympt.log_integer(diff[N], 192)
    lmd = asympt.main_term("crank", "difference_main", r, N, 192, cs)
    with mp.workprec(192):
        print(f"  N={N:5d}  moment ratio {mp.nstr(mp.e**(lg-lm), 8)}   "
              f"difference ratio {mp.nstr(mp.e**(ld-lmd), 8)}")

# --- the pole expansion itself ------------------------------------------------

print("\nnormalized pole-expansion residuals (bounded in N):")
fit = asympt.fit_subleading("crank", 4)
for N, res in zip(fit.grid[:3], fit.residuals[fit.selected_tag]):
    print(f"  N={N:6d}  residual {mp.nstr(res, 6)}")

print("\nautomorphic prefactor vs closed form (quotient - 1):")
for y in (mp.mpf(1) / 10, mp.mpf(1) / 20, mp.mpf(1) / 40):
    print(f"  tau = i*{mp.nstr(y, 4)}: {mp.nstr(asympt.eta_quotient_check(mp.mpc(0, y), 160), 4)}")
