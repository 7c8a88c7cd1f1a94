"""Recovering exact coefficients by contour integration.

Cauchy's theorem makes the full-circle integral equal the exact integer
coefficient, so the quadrature error is directly measurable.  Splitting the
circle shows the major arc near q=1 carrying essentially all of the mass,
and the segment integral P_s reproducing the modified Bessel function.
"""

import mpmath as mp

from overmoments import circle, genfunc

mp.mp.dps = 25

# --- full circle = exact coefficient ----------------------------------------

for kind, r, N in (("rank", 3, 7), ("crank", 3, 30)):
    builder = (
        genfunc.crank_binomial_series if kind == "crank" else genfunc.rank_binomial_series
    )
    exact = builder(r, N)[N]
    approx = circle.cauchy_coefficient(kind, r, N, tol=1e-8)
    print(f"{kind} r={r} N={N}: exact {exact}, quadrature {mp.nstr(approx, 12)}")

# --- arc decomposition --------------------------------------------------------

print("\nmajor-arc fraction of the coefficient (crank, r=3):")
for N in (25, 49, 100):
    exact = genfunc.crank_binomial_series(3, N)[N]
    major = circle.major_arc_coefficient("crank", 3, N, tol=1e-8)
    print(f"  N={N:3d}: {mp.nstr(major / exact, 10)}")

# --- Bessel pathway ------------------------------------------------------------

print("\nsegment integral vs Bessel function, error / e^{3 pi sqrt(N)/4}:")
for N in (25, 49, 100):
    print(f"  N={N:3d}: {mp.nstr(circle.bessel_pathway_check(3, N), 6)}")
