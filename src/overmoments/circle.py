"""Numerical Wright circle method: coefficient recovery by Cauchy integral.

The arcs' circle is the saddle circle |q| = rho = e^{-pi/(2 sqrt N)}, i.e.
tau = x + i y with y = 1/(4 sqrt N); the Cauchy kernel contributes rho^{-N} =
e^{pi sqrt N / 2}.  The major arc is |x| <= y, where the integrand carries
essentially all of the coefficient; the minor arc |x| in [y, 1/2] is
exponentially smaller (~ e^{3 pi sqrt N / 4} against e^{pi sqrt N}).

Every coefficient a_m of the integrand F(q) = S(q)/theta_4(q), the moment
series, is >= 0, so a_m <= F(rho') rho'^{-m} for any rho < rho' < 1: one
real evaluation of F bounds every coefficient past a point, and both
truncations below are certified that way, to tol/4 absolute.

On the full circle the integrand is periodic and analytic, so the
trapezoidal rule converges geometrically, and the integral is the same on
every radius: `cauchy_coefficient` takes the fewest points,
M = N + 2 - N % 2, in one pass on the radius rho_s < rho, solved for in
closed form, whose aliasing bound is tol/8; every nonzero a_N is an integer
>= 1, so the absolute tol/4 is relative too.  On the saddle circle the
integrand is sum_m a_m rho^{m-N} e^{2 pi i (m-N) x}, so the major arc
integrates exactly, term by term, to a sinc sum over the exact
coefficients; `major_arc_coefficient` truncates it where the tail bound
falls below tol/4, and the minor arc is a_N minus the major arc.

Working precision is pi sqrt(N)/ln 2 + 64 bits so that
exponential-scale cancellation between arcs cannot swamp a result; the
inner sums run in integers, at scales set by the budgets their docstrings state.
"""

from __future__ import annotations

from itertools import accumulate
from math import isfinite

import mpmath as mp

from . import genfunc
from .asympt import cmul, evaluate, fixed, overpartition_kernel, s_series_kernel
from .errors import QuadratureFailure
from .series import EXACT_TRUNC_CAP, check_kind, check_order, check_size

__all__ = [
    "working_precision",
    "gf_numeric",
    "cauchy_coefficient",
    "major_arc_coefficient",
    "p_segment",
    "bessel_pathway_check",
]

FULL_CIRCLE_N_CAP = 200
MAJOR_ARC_N_CAP = 10_000
MIN_TOL = 1e-8
SEGMENT_TOL = 1e-10


def working_precision(N: int) -> int:
    """pi sqrt(N)/ln 2 + 64 bits."""
    return int(mp.pi * mp.sqrt(N) / mp.log(2)) + 64


def _integrand(kind, r, absq, prec) -> tuple:
    """(W, kernel), kernel: q -> F(q) 2^W as an int pair, |q| = absq, the exact
    product of the asympt kernels; 1/theta_4's goes first, so that its guard-bit
    cap refuses q near the unit circle before any summing."""
    wt, theta = overpartition_kernel(absq, prec)
    ws, lambert = s_series_kernel(kind, r, absq, prec)
    return wt + ws, lambda q: cmul(theta(q), lambert(q), 0)


def gf_numeric(kind: str, r: int, q, prec: int = 256):
    """The full moment series F(q) at complex q: `_integrand` run by
    `asympt.evaluate`, unrounded.  Raises NonConvergent outside |q| < 1."""
    return evaluate(q, prec, _integrand, kind, r)


# ---------------------------------------------------------------------------
# The full circle: trapezoidal rule with a certified aliasing bound.
# ---------------------------------------------------------------------------


def _circle_samples(kind, r, M, rho, prec) -> tuple:
    """(W, [F(rho e^{2 pi i j/M}) 2^W as int pairs, j = 0..M/2]); the rest are conjugates."""
    W, kernel = _integrand(kind, r, rho, prec)
    with mp.workprec(prec):
        return W, [kernel(rho * mp.expjpi(mp.mpf(2 * j) / M)) for j in range(M // 2 + 1)]


def _aliasing_radius(peak, outer, M, target) -> tuple:
    """(rho_s, B) with B = peak x/(1-x) = target, x = (rho_s/outer)^M."""
    x = target / (peak + target)
    return outer * x ** (mp.mpf(1) / M), peak * x / (1 - x)


def _trapezoid_coefficient(kind, r, N, tol) -> tuple:
    """The coefficient a_N by the M-point trapezoidal rule on |q| = rho_s at
    the fewest points, M = N + 2 - N % 2 > N; returns (value, bound, M) with
    0 <= value - a_N <= bound <= (tol/4) max(value - bound, 1), in one pass.

    The rule gives T_M = sum_{k >= 0} a_{N+kM} rho_s^{kM}.  The bound rests
    on every coefficient a_m being >= 0, which holds because the weights
    binom(m+s, r) are >= 0 for m >= 1 and s >= -1: then a_m <= F(rho')
    rho'^{-m}, and T_M - a_N is at most B = P x/(1-x), P = F(rho') rho'^{-N},
    x = (rho_s/rho')^M, rho' = e^{-pi/(2 sqrt(N+M))}: one real evaluation.
    The radius is solved for in closed form, x = c/(1+c) with c = target/P,
    so that B is the absolute target tol/8, half of tol/4, the other half
    slack against rounding.  Every nonzero a_N is an integer >= 1, so the
    absolute tol/4 is relative too; the max(., 1) in the certificate is that
    integer floor, and a bound that misses it raises QuadratureFailure.

    The samples cancel from F(rho_s) rho_s^{-N} down to a_N, and every
    |F_j| <= F(rho_s) as the coefficients are >= 0, so they carry sp =
    max(mag(F(rho_s) rho_s^{-N}), 0) + 64 bits, from a second real
    evaluation: two real evaluations and M/2 + 1 complex ones.  The sum runs
    in integers: the samples F_j are exact kernel products, and the
    twiddles e^{-2 pi i N j/M} come by rotation at scale 2^Z, Z = sp + 32,
    each off by under 2^{9-Z}; nothing else rounds before the value, which
    is within about 2^-60 absolute of T_M.
    """
    M = N + 2 - N % 2
    wp = working_precision(max(N, 1))
    with mp.workprec(wp):
        outer = mp.e ** (-mp.pi / (2 * mp.sqrt(N + M)))
        peak = gf_numeric(kind, r, outer, wp).real * outer ** (-N)
        quarter = mp.mpf(tol) / 4
        radius, b = _aliasing_radius(peak, outer, M, quarter / 2)
        sp = max(mp.mag(gf_numeric(kind, r, radius, wp).real * radius ** (-N)), 0) + 64
    W, samples = _circle_samples(kind, r, M, radius, sp)
    with mp.workprec(Z := sp + 32):
        total, twiddle, step = 0, (1 << Z, 0), fixed(mp.expjpi(-mp.mpf(2 * N) / M), Z)
        for j, (re, im) in enumerate(samples):
            total += (re * twiddle[0] - im * twiddle[1]) << (0 < j < M // 2)
            twiddle = cmul(twiddle, step, Z)
        value = mp.ldexp(total, -W - Z) / M * radius ** (-N)
        if b > quarter * max(value - b, 1):
            raise QuadratureFailure("aliasing bound above tol/4")
    with mp.workprec(wp):
        return +value, +b, M


# ---------------------------------------------------------------------------
# The major arc: an exact sinc sum over the coefficients.
# ---------------------------------------------------------------------------


def _major_arc(kind, r, N, tol) -> tuple:
    """The major arc |x| <= y = 1/(4 sqrt N) summed over the coefficients
    a_0..a_T; returns (major, minor, bound, series): the sum, a_N minus it,
    the bound on its tail (<= tol/4) and the series exact through T.

    On |q| = rho = e^{-t}, t = pi/(2 sqrt N), the integrand is
    sum_m a_m rho^{m-N} e^{2 pi i (m-N) x}, so the arc is
    sum_m a_m rho^{m-N} sin(2 pi (m-N) y) / (pi (m-N)), with the term 2y a_N
    at m = N.  With a_m <= F(rho') rho'^{-m} a term past T > N is at most
    F(rho') rho^{-N} x^m / (pi (T+1-N)), x = rho/rho', so the tail is at most
    B(T) = head x^{T+1} / (T+1-N), head = F(rho') rho^{-N} / ((1-x) pi).
    rho' = e^{-t'}, t' = t / (1 + sqrt(1 + 4tL/pi^2)), L = N t - log(tol/4),
    minimizes T in the saddle model log F(e^{-t'}) ~ pi^2/(4t').  After its
    one real evaluation the smallest T >= 2N with B(T) <= tol/4 is
    N - 1 + ceil(s), d s = W(d x^N head/(tol/4)), d = -log x, W the Lambert
    function; B(T) <= tol/4 < B(T-1) is checked, moving T by one should s
    round across an integer.  The bound is absolute, `_sinc_sum` holds the sum
    to 2^-64 absolute, and the minor arc is taken before rounding, so it is as
    accurate as the major arc.
    """
    wp = working_precision(N)
    with mp.workprec(wp):
        t, target = mp.pi / (2 * mp.sqrt(N)), mp.mpf(tol) / 4
        tp = t / (1 + mp.sqrt(1 + 4 * t * max(N * t - mp.log(target), 0) / mp.pi**2))
        d, x = t - tp, mp.e ** (tp - t)
        head = gf_numeric(kind, r, mp.e**-tp, wp).real * mp.e ** (N * t) / ((1 - x) * mp.pi)

        def bound(T):
            return head * x ** (T + 1) / (T + 1 - N)

        T = max(2 * N, N - 1 + int(mp.ceil(mp.lambertw(d * x**N * head / target) / d)))
        if T > 2 * N and bound(T - 1) <= target:
            T -= 1
        elif bound(T) > target:
            T += 1
        if (b := bound(T)) > target:
            raise QuadratureFailure(f"major arc tail bound above tol/4 at T={T}")
    if T > EXACT_TRUNC_CAP:
        raise QuadratureFailure(f"major arc needs more than {EXACT_TRUNC_CAP} coefficients")
    series = genfunc.moment_series("symmetrized", kind, r, T)
    major = _sinc_sum(series, N)
    with mp.workprec(wp):
        return +major, series[N] - major, +b, series


def _sinc_sum(series, N) -> mp.mpf:
    """The major arc sum_m a_m Im(u^{m-N}) / (pi (m-N)) + 2y a_N over a_0..a_T,
    u = rho e^{2 pi i y}, unrounded and within 2^-64 absolute.  w = u^{m-N}
    is an int pair times 2^-E, times u at scale 2^p and floored each step.
    Every span steps, having lost at most 32 bits, w is shifted back to the
    p = floor(top) + 2 bits(T+1) + 103 bits its remaining terms need, where
    2^top bounds max(a_m, 1) rho^{m-N} from there on, and u is truncated to
    p bits; so w stays above 2^{p-34}, off by under (m+1) 2^{36-p} relative,
    and each of the T + 1 terms is off by under (T+1) 2^{top+36-p} and its
    floor by 2^{top+34-p}: together under 2^-65."""
    T, lg = len(series) - 1, float(mp.pi / (2 * mp.sqrt(N) * mp.ln2))  # log2 1/rho
    span, guard = int(32 / lg), 2 * (T + 1).bit_length() + 103
    # tops[m]: log2 of a bound on max(a_j, 1) rho^{j-N} for every j >= m
    sizes = [a.bit_length() + (N - m) * lg for m, a in enumerate(series)]
    tops = list(accumulate(reversed(sizes), max))[::-1]
    P = int(tops[0]) + guard
    with mp.workprec(P + 32):
        y = 1 / (4 * mp.sqrt(N))
        u = mp.e ** (-mp.pi / (2 * mp.sqrt(N))) * mp.expjpi(2 * y)
        E = P - mp.mag(w := u**-N)
        (ur, ui), (wr, wi) = fixed(u, P), fixed(w, E)
    total, p = 0, P
    for start in range(0, T + 1, span):
        d, p = p - guard - int(tops[start]), guard + int(tops[start])
        wr, wi, total, E = wr >> d, wi >> d, total >> d, E - d
        vr, vi = ur >> (P - p), ui >> (P - p)
        plus, minus = vr + vi, vi - vr  # w u in three products
        for k, a in enumerate(series[start : start + span], start - N):
            if a and k:
                total += a * wi // k
            lead = vr * (wr + wi)
            wr, wi = (lead - wi * plus) >> p, (lead + wr * minus) >> p
        s = max(p - max(abs(wr), abs(wi)).bit_length(), 0)
        wr, wi, total, E = wr << s, wi << s, total << s, E + s
    with mp.workprec(P):
        return mp.ldexp(total, -E) / mp.pi + 2 * y * series[N]


def _check(kind, r, tol) -> None:
    """The guards both the full circle and the major arc run before any
    evaluation.  The certified bounds need every a_m >= 0, hence r >= 0."""
    check_kind(kind)
    check_order(r)
    if not isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    if tol < MIN_TOL:
        raise ValueError(f"tol {tol} tighter than supported minimum {MIN_TOL}")


def cauchy_coefficient(kind: str, r: int, N: int, tol: float = MIN_TOL) -> mp.mpf:
    """Full-circle Cauchy integral by the trapezoidal rule at
    M = N + 2 - N % 2 points; within tol/4 absolute of the exact integer
    coefficient, so within tol/4 relative when it is nonzero.  Raises
    QuadratureFailure when the aliasing bound misses tol/4."""
    _check(kind, r, tol)
    check_size("N", N, 0, FULL_CIRCLE_N_CAP, "full circle")
    return _trapezoid_coefficient(kind, r, N, tol)[0]


def major_arc_coefficient(kind: str, r: int, N: int, tol: float = MIN_TOL) -> mp.mpf:
    """Contribution of |x| <= 1/(4 sqrt N) only; the sinc sum's tail is below
    tol/4 absolute."""
    _check(kind, r, tol)
    check_size("N", N, 1, MAJOR_ARC_N_CAP, "major arc")
    return _major_arc(kind, r, N, tol)[0]


# ---------------------------------------------------------------------------
# Bessel pathway: the segment integral P_s.
# ---------------------------------------------------------------------------


def p_segment(s, N: int) -> mp.mpf:
    """P_s = (1/2 pi i) integral over the segment [1-i, 1+i] of
    v^s e^{(pi sqrt N / 2)(v + 1/v)} dv, by conjugate symmetry equal to
    (1/pi) integral_0^1 Re[(1+it)^s e^{(pi sqrt N/2)((1+it) + 1/(1+it))}] dt,
    by mp.quad on fixed panels.  Raises QuadratureFailure when its error
    estimate is above SEGMENT_TOL/4 of the value, and before any quadrature
    ValueError below N = 0 and OversizeRequest above MAJOR_ARC_N_CAP, where
    the working precision grows like sqrt N and the time with it."""
    check_size("N", N, 0, MAJOR_ARC_N_CAP, "Bessel segment")
    with mp.workprec(working_precision(N)):
        half = mp.pi * mp.sqrt(N) / 2
        sv = mp.mpf(s)

        def integrand(t):
            v = 1 + 1j * t
            return (v**sv * mp.e ** (half * (v + 1 / v))).real

        value, err = mp.quad(integrand, [0, mp.mpf(1) / 4, 1], error=True)
        if err > mp.mpf(SEGMENT_TOL) / 4 * abs(value):
            raise QuadratureFailure(f"quadrature error estimate {mp.nstr(err, 5)} above tol/4")
        return value / mp.pi


def bessel_pathway_check(r: int, N: int) -> mp.mpf:
    """|P_{-r+1/2} - I_{r-3/2}(pi sqrt N)| / e^{3 pi sqrt N / 4}; bounded in N."""
    check_order(r)
    check_size("N", N, 16)  # p_segment caps it
    P = p_segment(s := mp.mpf(1) / 2 - r, N)
    with mp.workprec(working_precision(N)):
        I = mp.besseli(-s - 1, mp.pi * mp.sqrt(N))
        return abs(P - I) / mp.e ** (3 * mp.pi * mp.sqrt(N) / 4)
