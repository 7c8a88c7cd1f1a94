"""Positive moments, their Lambert-sum weights, and ospt positivity.

The r-th positive moment (sum of m^r over positive statistic values) is the
same weighted Lambert sum as every symmetrized moment, with the integer
weight m^r - (m-1)^r on the term that carries statistic value m.  The crank
moments dominate the rank moments, and their difference (the ospt function)
stays strictly positive.
"""

from overmoments import build_table, moment_series, positive_moment

# --- Lambert-sum weights ----------------------------------------------------

for r in range(1, 7):
    steps = [m**r - (m - 1) ** r for m in range(1, 7)]
    print(f"m^{r} - (m-1)^{r}, m=1..6:", steps)

# --- exact moments, small N from tables, large N from series ----------------

crank_table = build_table("crank", 20)
rank_table = build_table("rank", 20)
print("\ncrank positive moments r=2, n<=12 (table):",
      [positive_moment(crank_table, 2, n) for n in range(13)])
print("same values from the generating series:   ",
      moment_series("moment", "crank", 2, 12))

# --- ospt positivity ---------------------------------------------------------

print("\nospt_r(N) for small N:")
for r in (1, 2, 3):
    vals = moment_series("difference", "crank", r, 16)
    print(f"  r={r}:", vals[1:])

big = moment_series("difference", "crank", 1, 500)
print("\nospt_1 positive for every N <= 500:", all(v > 0 for v in big[1:]))
print("ospt_1(500) has", len(str(big[500])), "digits")
