"""High-precision pole expansion, the main terms read off it, and q-series.

Everything numeric runs on mpmath under an explicit working precision in
bits (requested precision plus guard bits); callers pass `prec`, values come
back rounded to that precision.  Exact big integers are turned into logs via
mpf conversion, which keeps the top bits of the mantissa and is accurate to
working precision regardless of the integer's size.

The two q-series behind every numeric check have their only numeric
evaluators here: `s_series_eval` (the crank and rank Lambert sums) and
`overpartition_numeric` (the prefactor (-q)oo/(q)oo as 1/theta_4(q)).  Both
return unrounded at their working precision, so each caller rounds once:
the pole-expansion order checks, the automorphic prefactor check, and
the circle method's integrand `circle.gf_numeric`.

`pole_coefficients` derives the whole pole expansion
S(e^{-t}) ~ sum_k C_k t^{k-r} of either Lambert sum in closed form, a
finite Bernoulli-eta sum per coefficient, with eta the alternating zeta
(mpmath's `altzeta`).  Every main term is read off it, for order r >= 1:

  leading pole coefficient      c_r = C_0 = eta(r)
  moment main term              gamma_r = r! C_0 pi^{-r} 2^{r-3}
  difference main term          delta_r = r! (C_1(crank) - C_1(rank)) pi^{1-r} 2^{r-4}
  Bessel-form main term         c~_r = C_0 pi^{1-r} 2^{r-5/2}

C_1(crank) - C_1(rank) = eta(r-2)/2, so delta_r is the paper's
r! pi^{1-r} 2^{r-5} eta(r-2).  `main_term` takes I_{r-3/2} from `besseli`.
"""

from __future__ import annotations

from typing import Literal

import mpmath as mp

from . import genfunc
from .errors import NonConvergent, OversizeRequest

__all__ = [
    "log_integer",
    "pole_coefficients",
    "main_term",
    "s_series_eval",
    "overpartition_numeric",
    "eta_quotient_check",
]

GUARD_BITS = 32
# overpartition_numeric's guard bits pi^2/(4t ln 2) + 8, t = -log|q|, grow
# without bound as |q| -> 1, and its time with them: 0.05 s at q = 0.999
# (3566 bits), 10 s at 0.9999 (35604 bits) on a 2-vCPU Xeon.  The closest
# caller, the major arc's rho' at N = 10^4 and tol = 1e-8, needs 566
THETA4_GUARD_BITS_CAP = 4096

Kind = Literal["crank", "rank"]


def log_integer(value: int, prec: int = 256) -> mp.mpf:
    """Natural log of a positive integer of any size."""
    if value <= 0:
        raise ValueError("log_integer needs a positive integer")
    with mp.workprec(prec + GUARD_BITS):
        result = mp.log(mp.mpf(value))
    with mp.workprec(prec):
        return +result


# ---------------------------------------------------------------------------
# Pole expansion.
# ---------------------------------------------------------------------------


def pole_coefficients(kind: Kind, r: int, K: int, prec: int) -> list:
    """C_0..C_{K-1} with S(e^{-t}) ~ sum_k C_k t^{k-r} as t -> 0+, for the
    Lambert sum S that `s_series_eval` evaluates at the standard shift s.

    With x = nt the n-th term of S is (-1)^{n+1} e^{-kappa t n^2} x^{-r} g(x):
    kappa = 1/2 and g = (x/(1-e^{-x}))^r e^{-(r-s-1/2)x} for the crank,
    kappa = 1 and g = (x/(1-e^{-x}))^r e^{-(r-s)x} 2/(1+e^{-x}) for the rank.
    Expanding g = sum g_i x^i and e^{-kappa t n^2} in t, then summing
    (-1)^{n+1} n^{-a} = eta(a) over n, gives
    C_k = sum_{i+j=k} g_i (-kappa)^j / j! eta(r-i-2j).  The g_i come from
    log g, with log(x/(1-e^{-x})) = -sum_k B_k x^k / (k k!) and
    log(2/(1+e^{-x})) = sum_k (1-2^k) B_k x^k / (k k!) over k >= 1
    (B_1 = -1/2), exponentiated by g_n = sum_{k<=n} k l_k g_{n-k} / n.
    g_0 = 1 and g_1 = s - r/2 + 1/2 for both kinds, so C_0 = eta(r) and
    C_1(crank) - C_1(rank) = eta(r-2)/2.
    """
    if kind not in ("crank", "rank"):
        raise ValueError("kind must be 'crank' or 'rank'")
    s = genfunc.standard_shift(r)
    with mp.workprec(prec + GUARD_BITS):
        half = mp.mpf(1) / 2
        kappa, lam = (half, r - s - half) if kind == "crank" else (mp.mpf(1), mp.mpf(r - s))
        # l[k]: coefficient of x^k in log g
        l = [-lam if k == 1 else mp.mpf(0) for k in range(K)]
        for k in range(1, K):
            weight = -r if kind == "crank" else 1 - 2**k - r
            l[k] += weight * mp.bernoulli(k) / (k * mp.factorial(k))
        g = [mp.mpf(1)]
        for n in range(1, K):
            g.append(mp.fsum(k * l[k] * g[n - k] for k in range(1, n + 1)) / n)
        C = [
            mp.fsum(
                g[i] * (-kappa) ** (k - i) / mp.factorial(k - i) * mp.altzeta(r - 2 * k + i)
                for i in range(k + 1)
            )
            for k in range(K)
        ]
    with mp.workprec(prec):
        return [+v for v in C]


# ---------------------------------------------------------------------------
# Main terms in log-space.
# ---------------------------------------------------------------------------


def main_term(
    flavor: Literal["moment", "difference", "symmetrized"],
    r: int,
    N: int,
    prec: int = 256,
) -> mp.mpf:
    """Natural log of the (positive) main term
    C/(2 sqrt pi) (2 sqrt N/pi)^nu I_nu(pi sqrt N), nu = r - j - 3/2, with C
    read off `pole_coefficients`: C_0 (symmetrized), r! C_0 (moment), both
    at j = 0, and r! (C_1(crank) - C_1(rank)) at j = 1 (difference).

    Moment and difference take I_nu's leading term e^z/sqrt(2 pi z), which
    makes them gamma_r N^{r/2-1} e^{pi sqrt N} and
    delta_r N^{r/2-3/2} e^{pi sqrt N}.  Log-space keeps e^{pi sqrt N} finite
    for any N; crank and rank share every flavor's main term.
    """
    if flavor not in ("moment", "difference", "symmetrized"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    wp = prec + GUARD_BITS
    j = 1 if flavor == "difference" else 0
    with mp.workprec(wp):
        C = pole_coefficients("crank", r, j + 1, wp)[j]
        if j:
            C -= pole_coefficients("rank", r, 2, wp)[1]
        z = mp.pi * mp.sqrt(N)
        nu = r - j - mp.mpf(3) / 2
        if flavor == "symmetrized":
            log_i = mp.log(mp.besseli(nu, z))
        else:
            C *= mp.factorial(r)
            log_i = z - mp.log(2 * mp.pi * z) / 2
        result = mp.log(C / (2 * mp.sqrt(mp.pi))) + nu * mp.log(2 * mp.sqrt(N) / mp.pi) + log_i
    with mp.workprec(prec):
        return +result


# ---------------------------------------------------------------------------
# Numeric evaluation of the two q-series near the unit circle.
# ---------------------------------------------------------------------------


def s_series_eval(kind: Kind, r: int, q, prec: int = 256):
    """Lambert sum of the crank or rank moment series at complex q, |q| < 1.

    The same sum as `genfunc.lambert_sum` under the weight binom(m+s, r), in
    its summed form q^{e(n)} / (1-q^n)^r (times 1/(1+q^n) and 2 for the
    rank), at the standard binomial shift s.  The exponent is
    e(n) = (n^2 + (2(r-s)-1)n)/2 (crank) or n^2 + (r-s)n (rank), and powers
    of q are built by recurrence: e(n) steps by n + r - s (crank) or
    2n + 1 + r - s (rank).  Summation stops on a certified tail bound
    below 2^-(prec+8) relative, whose powers of |q| come by the same
    recurrence.  The value comes back unrounded at the working precision
    prec + 16, so callers round once.  Raises NonConvergent outside |q| < 1.
    """
    if kind not in ("crank", "rank"):
        raise ValueError("kind must be 'crank' or 'rank'")
    with mp.workprec(prec + 16):
        qv = mp.mpc(q)
        absq = abs(qv)
        if absq >= 1:
            raise NonConvergent("|q| must be < 1")
        eps = mp.mpf(2) ** (-(prec + 8))
        # q^{e(n)} and |q|^{e(n+1)} by recurrence: e(n+1) - e(n) = de grows by dde per step
        d = r - genfunc.standard_shift(r)
        e, de, dde = (d, d + 1, 1) if kind == "crank" else (d + 1, d + 3, 2)
        qe, step, lift = qv**e, qv**de, qv**dde
        ae, astep, alift = absq ** (e + de), absq ** (de + dde), absq**dde
        qn, an = mp.mpc(1), absq
        total = mp.mpc(0)
        n = 1
        while True:
            qn *= qv
            an *= absq
            den = (1 - qn) ** r if kind == "crank" else (1 - qn) ** r * (1 + qn)
            total += qe / den if n % 2 == 1 else -qe / den
            # certified tail: the next term bounds the remainder up to the
            # geometric factor 1/(1 - |q|), absorbed into the 2x margin
            if 2 * ae / (1 - an) ** (r + 1) < eps * max(1, abs(total)):
                break
            qe, step = qe * step, step * lift
            ae, astep = ae * astep, astep * alift
            n += 1
        return total * 2 if kind == "rank" else total


def overpartition_numeric(q, prec: int = 256):
    """The prefactor (-q)oo/(q)oo = 1/theta_4(q) at complex q, |q| < 1.

    theta_4 = 1 + 2 sum (-1)^k q^{k^2}, with q^{(k+1)^2} = q^{k^2} q^{2k+1},
    summed until |q|^{k^2} < 2^-bits.  By the product formula
    |theta_4(q)| >= theta_4(|q|) >= e^{-pi^2/(4t)}, t = -log|q|, so
    pi^2/(4t ln 2) + 8 guard bits above prec + 16 keep the quotient at full
    relative precision as q -> 1.  The value comes back unrounded at that
    working precision, so callers round once.  Raises NonConvergent outside
    |q| < 1, and OversizeRequest before any summing when the guard bits pass
    THETA4_GUARD_BITS_CAP.
    """
    with mp.workprec(prec + 16):
        qv = mp.mpc(q)
        absq = abs(qv)
        if absq >= 1:
            raise NonConvergent("|q| must be < 1")
        t = -mp.log(absq)
        guard = int(mp.ceil(mp.pi**2 / (4 * t * mp.ln2))) + 8
    if guard > THETA4_GUARD_BITS_CAP:
        raise OversizeRequest(
            f"1/theta_4 at |q| = {mp.nstr(absq, 8)} needs {guard} guard bits,"
            f" capped at {THETA4_GUARD_BITS_CAP}"
        )
    bits = prec + 16 + guard
    with mp.workprec(bits):
        q2, odd, square, theta = qv * qv, qv, mp.mpc(1), mp.mpc(0)
        for k in range(1, int(mp.sqrt(bits * mp.ln2 / t)) + 2):
            square *= odd
            odd *= q2
            theta += square if k % 2 == 0 else -square
        return 1 / (1 + 2 * theta)


# ---------------------------------------------------------------------------
# Automorphic prefactor check.
# ---------------------------------------------------------------------------


def eta_quotient_check(tau, prec: int = 256) -> mp.mpf:
    """|(-q)oo/(q)oo / (sqrt(-i tau / 2) e^{pi i/(8 tau)}) - 1|, q = e^{2 pi i tau}.

    The quotient tends to 1 exponentially fast as tau -> 0 in the upper
    half-plane: the prefactor equals the inversion closed form up to
    exponentially small corrections, and the e^{pi i/(8 tau)} factor is what
    makes the two sides agree (dropping it is off by a huge factor).
    """
    with mp.workprec(prec + GUARD_BITS):
        tv = mp.mpc(tau)
        if tv.imag <= 0:
            raise NonConvergent("tau must lie in the upper half-plane")
        pref = overpartition_numeric(mp.e ** (2j * mp.pi * tv), prec + GUARD_BITS)
        closed = mp.sqrt(-1j * tv / 2) * mp.e ** (1j * mp.pi / (8 * tv))
        result = abs(pref / closed - 1)
    with mp.workprec(prec):
        return +result
