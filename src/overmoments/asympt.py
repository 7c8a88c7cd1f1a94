"""High-precision pole expansion, the main terms read off it, and q-series.

The pole expansion and the main terms run on mpmath under an explicit
working precision in bits (requested precision plus guard bits); callers
pass `prec`.  Every numeric function returns its value at the precision it
computed it in, unrounded, and only the reporting layer rounds, once.

The two q-series behind every numeric check have their only numeric
evaluators here: `s_series_eval` (the crank and rank Lambert sums) and
`overpartition_numeric` (the prefactor (-q)oo/(q)oo as 1/theta_4(q)).  Both
sum in integers at a scale 2^W, where a floored product is off by under a
unit 2^-W per part and q^k by under 3k units.  Each kernel takes q and
fixes it at its own scale, and `evaluate`, the one runner, runs either or
their exact product, the circle method's integrand (`circle.gf_numeric`).

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

from math import expm1, isqrt, log2

import mpmath as mp

from . import genfunc
from .errors import NonConvergent
from .series import Kind, check_kind, check_order, check_size

__all__ = [
    "pole_coefficients",
    "main_term",
    "s_series_eval",
    "overpartition_numeric",
    "eta_quotient_check",
]

GUARD_BITS = 32
# the guard bits of overpartition_numeric, pi^2/(4t ln 2) + 8 at t = -log|q|,
# grow as |q| -> 1: the major arc's rho' at N = 10^4 and tol = 1e-8 needs 566
THETA4_GUARD_BITS_CAP = 4096
# the term bound n_max of s_series_eval grows like sqrt(prec 2^G) as |q| -> 1,
# G = log2 1/(1-|q|): the residual suite at N = 10^5 needs 387 terms and the
# major arc at N = 10^4 needs 536.  2^16 terms take about 0.17 s (crank r = 3,
# 64 bits) and 0.7 s (rank r = 8, 517 bits) on a 2-vCPU Xeon; 1 - |q| = 10^-12
# would need 2.3e7
LAMBERT_TERMS_CAP = 1 << 16
# pole_coefficients sums K(K+1)/2 eta terms over K Bernoulli numbers, and its
# time grows faster than K^2: K = 128 takes 0.2 s at 600 bits and K = 400
# 3.3 s at 64 bits on a 2-vCPU Xeon; a K-term main term needs K <= 40
POLE_TERMS_CAP = 128


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
    C_1(crank) - C_1(rank) = eta(r-2)/2.  Refuses a bad kind or order, and
    K below 0 (ValueError) or above POLE_TERMS_CAP (OversizeRequest), before
    any Bernoulli number.
    """
    check_kind(kind)
    check_order(r)
    check_size("K", K, 0, POLE_TERMS_CAP, "pole expansion")
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
        return [
            mp.fsum(
                g[i] * (-kappa) ** (k - i) / mp.factorial(k - i) * mp.altzeta(r - 2 * k + i)
                for i in range(k + 1)
            )
            for k in range(K)
        ]


# ---------------------------------------------------------------------------
# Main terms in log-space.
# ---------------------------------------------------------------------------


def main_term(flavor: genfunc.Flavor, r: int, N: int, prec: int = 256) -> mp.mpf:
    """Natural log of the (positive) main term
    C/(2 sqrt pi) (2 sqrt N/pi)^nu I_nu(pi sqrt N), nu = r - j - 3/2, with C
    read off `pole_coefficients`: C_0 (symmetrized), r! C_0 (moment), both
    at j = 0, and r! (C_1(crank) - C_1(rank)) at j = 1 (difference).

    Moment and difference take I_nu's leading term e^z/sqrt(2 pi z), which
    makes them gamma_r N^{r/2-1} e^{pi sqrt N} and
    delta_r N^{r/2-3/2} e^{pi sqrt N}.  Log-space keeps e^{pi sqrt N} finite
    for any N; crank and rank share every flavor's main term.  Refuses r
    outside 1..EXACT_ORDER_CAP and N < 1 before any evaluation; N has no
    cap, since the work does not grow with it.
    """
    genfunc.check_flavor(flavor)
    check_order(r, least=1)
    check_size("N", N, 1)
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
        return mp.log(C / (2 * mp.sqrt(mp.pi))) + nu * mp.log(2 * mp.sqrt(N) / mp.pi) + log_i


# ---------------------------------------------------------------------------
# Numeric evaluation of the two q-series near the unit circle.
# ---------------------------------------------------------------------------


def fixed(z, W: int) -> tuple:
    """The complex number z as an int pair at scale 2^W, truncated."""
    return int(mp.ldexp(z.real, W)), int(mp.ldexp(z.imag, W))


def cmul(x: tuple, y: tuple, W: int) -> tuple:
    """Product of two complex numbers held as int pairs at scale 2^W, floored."""
    (a, b), (c, d) = x, y
    return (a * c - b * d) >> W, (a * d + b * c) >> W


def _pow(x: tuple, k: int, W: int) -> tuple:
    """x^k, k >= 0, at scale 2^W by binary powering."""
    if k < 2:
        return x if k else (1 << W, 0)
    half = _pow(cmul(x, x, W), k >> 1, W)
    return cmul(half, x, W) if k & 1 else half


def evaluate(q, prec: int, setup, *args):
    """Run at q the kernel of setup(*args, |q|, prec) -> (W, kernel); unrounded."""
    with mp.workprec(prec + 16):
        W, kernel = setup(*args, abs(qv := mp.mpc(q)), prec)
    re, im = kernel(qv)
    with mp.workprec(W):
        return mp.mpc(mp.mpf((re, -W)), mp.mpf((im, -W)))


def s_series_eval(kind: Kind, r: int, q, prec: int = 256):
    """Lambert sum of the crank or rank moment series at complex q, |q| < 1.

    The same sum as the symmetrized `genfunc.numerator`, weight binom(m+s, r),
    in its summed form q^{e(n)} / D_n, D_n = (1-q^n)^r (times 1+q^n and 2 for
    the rank), at the standard binomial shift s: e(n) = (n^2 + (2(r-s)-1)n)/2
    (crank) or n^2 + (r-s)n (rank), with q^{e(n)} by recurrence.  Summation
    stops once the certified tail bound 2|q|^{e(n+1)}/(1-|q|^{n+1})^{r+1} is
    below 2^-(prec+8) max(1, |S|), tested in log2 with a bit to spare.
    With m = deg D_n and G >= log2 1/(1-|q|), term n is off by under
    2^{2mG} (3e(n) + 3mn + 2m + 2) units 2^-W, and n terms, doubled for the
    rank, by 2^{2mG+3} (n+m+1)^3; so W = prec + 16 + 2mG + 3 bits(n+m+1), n
    bounded in advance by the tail rule, holds S to 2^-(prec+13) absolute.
    `s_series_kernel` sets up log|q|, G, n_max and W once per |q|, and its
    integer kernel sums at each q of that modulus.  Refuses r < 0
    (ValueError) and r > EXACT_ORDER_CAP (OversizeRequest) before any work,
    since W grows with r; NonConvergent outside |q| < 1; and OversizeRequest
    before any summing when n_max passes LAMBERT_TERMS_CAP.
    """
    return evaluate(q, prec, s_series_kernel, kind, r)


def s_series_kernel(kind: Kind, r: int, absq, prec: int) -> tuple:
    """(W, kernel), kernel: q -> S(q) 2^W as an int pair, for |q| = absq."""
    check_kind(kind)
    check_order(r)
    with mp.workprec(prec + 16):
        if not absq < 1:  # NaN too
            raise NonConvergent("|q| must be < 1")
        lnq, log2q, G = float(mp.log(absq)), float(mp.log(absq, 2)), 1 - mp.mag(1 - absq)
    rank = kind == "rank"
    n_max, m = isqrt((prec + 12 + (r + 1) * G) << (G + 1)) + 1, r + rank
    check_size("terms", n_max, 0, LAMBERT_TERMS_CAP, "Lambert sum")
    W = prec + 16 + 2 * m * G + 3 * (n_max + m + 1).bit_length()
    one, d = 1 << W, r - genfunc.standard_shift(r)

    def kernel(q) -> tuple:
        qx = fixed(q, W)
        e, de, dde = (d + 1, d + 3, 2) if rank else (d, d + 1, 1)
        qe, step, lift = _pow(qx, e, W), _pow(qx, de, W), _pow(qx, dde, W)
        qn, re, im, n = (one, 0), 0, 0, 1
        while True:
            qn = cmul(qn, qx, W)
            c, f = _pow((one - qn[0], -qn[1]), r, W)
            if rank:  # times 1 + q^n; the crank's factor is 1
                c, f = cmul((c, f), (one + qn[0], qn[1]), W)
            (a, b), norm, sign = qe, c * c + f * f, 1 if n % 2 == 1 else -1
            re += sign * (((a * c + b * f) << W) // norm)
            im += sign * (((b * c - a * f) << W) // norm)
            e, de = e + de, de + dde
            # log2 of twice the bound, plus the spare bit, against log2 max(1, |S|) or less
            tail = 2 + e * log2q - (r + 1) * log2(-expm1((n + 1) * lnq))
            if tail < max(max(abs(re), abs(im)).bit_length() - 1 - W, 0) - (prec + 8):
                return re << rank, im << rank  # the rank's factor 2
            qe, step, n = cmul(qe, step, W), cmul(step, lift, W), n + 1

    return W, kernel


def overpartition_numeric(q, prec: int = 256):
    """The prefactor (-q)oo/(q)oo = 1/theta_4(q) at complex q, |q| < 1.

    theta_4 = 1 + 2 sum (-1)^k q^{k^2}, with q^{(k+1)^2} = q^{k^2} q^{2k+1},
    summed over K = floor(sqrt(bits ln 2/t)) + 1 terms, so |q|^{K^2} < 2^-bits.
    By the product formula |theta_4(q)| >= theta_4(|q|) >= e^{-pi^2/(4t)},
    t = -log|q|, so pi^2/(4t ln 2) + 8 guard bits above prec + 16 keep the
    quotient at full relative precision as q -> 1.  q^{k^2} is off by under
    2 sqrt(2) k^2 units 2^-W and theta_4 by 2(K+1)^3, so W = bits + 3 bits(K+1)
    + 1 holds theta_4 to 2^-(prec+24) relative, the quotient to 2^-(prec+23).
    `overpartition_kernel` sets up t, the guard bits, K and W once per |q|
    for an integer kernel per q.  Raises NonConvergent outside |q| < 1, and
    OversizeRequest before any summing past THETA4_GUARD_BITS_CAP.
    """
    return evaluate(q, prec, overpartition_kernel)


def overpartition_kernel(absq, prec: int) -> tuple:
    """(W, kernel), kernel: q -> 2^W / theta_4(q) as an int pair, for |q| = absq."""
    with mp.workprec(prec + 16):
        if not absq < 1:  # NaN too
            raise NonConvergent("|q| must be < 1")
        t = -mp.log(absq)
        guard = int(mp.ceil(mp.pi**2 / (4 * t * mp.ln2))) + 8
    check_size("guard bits", guard, 0, THETA4_GUARD_BITS_CAP, "1/theta_4")
    bits = prec + 16 + guard
    with mp.workprec(bits):
        K = int(mp.sqrt(bits * mp.ln2 / t)) + 1
    W = bits + 3 * (K + 1).bit_length() + 1

    def kernel(q) -> tuple:
        odd = fixed(q, W)
        q2, square, re, im = cmul(odd, odd, W), (1 << W, 0), 1 << W, 0
        for k in range(1, K + 1):
            square, odd, sign = cmul(square, odd, W), cmul(odd, q2, W), 2 if k % 2 == 0 else -2
            re, im = re + sign * square[0], im + sign * square[1]
        norm = re * re + im * im
        return (re << 2 * W) // norm, (-im << 2 * W) // norm

    return W, kernel


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
        if not tv.imag > 0:  # NaN too
            raise NonConvergent("tau must lie in the upper half-plane")
        pref = overpartition_numeric(mp.e ** (2j * mp.pi * tv), prec + GUARD_BITS)
        closed = mp.sqrt(-1j * tv / 2) * mp.e ** (1j * mp.pi / (8 * tv))
        return abs(pref / closed - 1)
