"""Numerical Wright circle method: coefficient recovery by Cauchy integral.

The integration circle is |q| = e^{-pi/(2 sqrt N)}, i.e. tau = x + i y with
y = 1/(4 sqrt N); the Cauchy kernel contributes e^{pi sqrt N / 2}.  The major
arc is |x| <= y, where the integrand carries essentially all of the
coefficient; the minor arc |x| in [y, 1/2] is exponentially smaller
(~ e^{3 pi sqrt N / 4} against e^{pi sqrt N}).

On the full circle the integrand is periodic and analytic, so the
trapezoidal rule converges geometrically; `cauchy_coefficient` takes the
smallest M whose aliasing bound, certified by the nonnegative coefficients,
is below tol/4 of the result.  The arcs are not periodic and use adaptive
Gauss-Legendre quadrature.

Working precision is at least pi sqrt(N)/ln 2 + 64 bits so that
exponential-scale cancellation between arcs cannot swamp a result.
Integrands are conjugate-symmetric in x, so every integral runs over the
positive half at twice the real part.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import mpmath as mp

from . import genfunc
from .asympt import (
    AsymptoticConstants,
    overpartition_numeric,
    resolve_constants,
    s_series_eval,
)
from .errors import OversizeRequest, QuadratureFailure

__all__ = [
    "working_precision",
    "gf_numeric",
    "cauchy_coefficient",
    "major_arc_coefficient",
    "minor_arc_value",
    "ArcReport",
    "arc_report",
    "p_segment",
    "bessel_pathway_check",
    "i1_main_terms_direct",
    "i1_main_terms_bessel",
]

FULL_CIRCLE_N_CAP = 200
MAJOR_ARC_N_CAP = 10_000
MIN_TOL = 1e-8
TRAPEZOID_M_CAP = 1 << 14


def working_precision(N: int, prec: int | None = None) -> int:
    """At least pi sqrt(N)/ln 2 + 64 bits, or the caller's request if higher."""
    base = int(mp.pi * mp.sqrt(N) / mp.log(2)) + 64
    return max(base, prec or 0)


def gf_numeric(kind: str, r: int, q, prec: int = 256, shift: int | None = None):
    """Evaluate the full moment series at complex q, |q| < 1: the prefactor
    `asympt.overpartition_numeric` (1/theta_4(q), with guard bits against its
    cancellation as q -> 1) times the Lambert sum `asympt.s_series_eval`.

    Both factors come back unrounded; their product is rounded once to prec.
    Raises NonConvergent outside |q| < 1.
    """
    total = s_series_eval(kind, r, q, prec, shift)
    pref = overpartition_numeric(q, prec)
    with mp.workprec(prec):
        return total * pref


# ---------------------------------------------------------------------------
# Adaptive quadrature on a real interval (Gauss-Legendre with bisection).
# ---------------------------------------------------------------------------


def _adaptive_quad(
    f,
    panels: list[tuple[float, float]],
    rel_tol,
    prec: int,
    max_panels: int = 2000,
    abs_floor=None,
) -> mp.mpf:
    """Integrate a real-valued integrand over seeded panels, bisecting the
    panel with the worst error estimate until the total estimate is below
    rel_tol relative to the running value.

    abs_floor sets the magnitude below which the result counts as zero, so a
    vanishing integral does not demand ever-finer refinement.
    """
    with mp.workprec(prec):
        if abs_floor is None:
            abs_floor = mp.mpf(2) ** (-prec)
        heap = []
        total_val = mp.mpf(0)
        total_err = mp.mpf(0)
        counter = 0
        for a, b in panels:
            v, e = mp.quad(f, [mp.mpf(a), mp.mpf(b)], error=True, maxdegree=5)
            heapq.heappush(heap, (-float(mp.log(e + mp.mpf(2) ** (-prec), 2)), counter, a, b, v, e))
            counter += 1
            total_val += v
            total_err += e
        n_panels = len(heap)
        while total_err > rel_tol * max(abs(total_val), mp.mpf(abs_floor)):
            if n_panels >= max_panels:
                raise QuadratureFailure(
                    f"refinement stalled at {n_panels} panels, err {mp.nstr(total_err, 5)}"
                )
            _, _, a, b, v, e = heapq.heappop(heap)
            total_val -= v
            total_err -= e
            mid = (a + b) / 2
            for lo, hi in ((a, mid), (mid, b)):
                v2, e2 = mp.quad(f, [mp.mpf(lo), mp.mpf(hi)], error=True, maxdegree=5)
                heapq.heappush(
                    heap, (-float(mp.log(e2 + mp.mpf(2) ** (-prec), 2)), counter, lo, hi, v2, e2)
                )
                counter += 1
                total_val += v2
                total_err += e2
            n_panels += 1
        return total_val


def _geometric_panels(a, b, start_width):
    """Panels [a, a+w], [a+w, a+5w], ... widening by 4x out to b."""
    panels = []
    lo = a
    w = start_width
    while lo + w < b:
        panels.append((lo, lo + w))
        lo += w
        w *= 4
    panels.append((lo, b))
    return panels


def _circle_integral(kind, r, N, x_lo, x_hi, tol, prec, shift) -> mp.mpf:
    """2 Re integral of F(q(x)) e^{-2 pi i N x} over the arc [x_lo, x_hi],
    which lies on one side of y = 1/(4 sqrt N), times the Cauchy kernel."""
    wp = working_precision(N, prec)
    with mp.workprec(wp):
        rho = mp.e ** (-mp.pi / (2 * mp.sqrt(N)))

        def integrand(x):
            qx = rho * mp.e ** (2j * mp.pi * x)
            val = gf_numeric(kind, r, qx, wp, shift=shift)
            return 2 * (val * mp.e ** (-2j * mp.pi * N * x)).real

        y = float(1 / (4 * mp.sqrt(N)))
        panels = _geometric_panels(x_lo, x_hi, max((x_hi - x_lo) / 8, y / 4))
        kernel = mp.e ** (N * mp.pi / (2 * mp.sqrt(N)))
        # coefficients are integers: anything below tol in coefficient space
        # counts as zero, so the integral-space floor is tol / kernel
        value = _adaptive_quad(
            integrand, panels, mp.mpf(tol) / 4, wp, abs_floor=mp.mpf(tol) / kernel
        )
        result = value * kernel
    with mp.workprec(wp):
        return +result


# ---------------------------------------------------------------------------
# The full circle: trapezoidal rule with a certified aliasing bound.
# ---------------------------------------------------------------------------


def _circle_samples(kind, r, M, rho, wp, shift) -> list:
    """F(rho e^{2 pi i j/M}) for j = 0..M/2; the other half are conjugates."""
    return [
        gf_numeric(kind, r, rho * mp.expjpi(mp.mpf(2 * j) / M), wp, shift=shift)
        for j in range(M // 2 + 1)
    ]


def _trapezoid_coefficient(kind, r, N, tol, prec=None, shift=None) -> tuple:
    """The coefficient a_N by the M-point trapezoidal rule on |q| = rho =
    e^{-pi/(2 sqrt max(N, 1))}; returns (value, bound, M) with
    0 <= value - a_N <= bound <= (tol/4) max(value - bound, 1).

    The rule gives T_M = sum_{k >= 0} a_{N+kM} rho^{kM} for M > N.  The bound
    rests on every coefficient a_m being >= 0, which holds because the
    weights binom(m+s, r) are >= 0 for m >= 1 and s >= -1: then
    a_m <= F(rho') rho'^{-m} for any rho < rho' < 1, and the aliasing error
    T_M - a_N is at most B(M) = F(rho') rho'^{-N} x/(1-x), x = (rho/rho')^M,
    with rho' = e^{-pi/(2 sqrt(N+M))}: one real evaluation.  The max(., 1)
    is the integer floor, so a zero coefficient passes at B <= tol/4.
    """
    n = max(N, 1)
    wp = working_precision(n, prec)
    with mp.workprec(wp):
        rho = mp.e ** (-mp.pi / (2 * mp.sqrt(n)))
        quarter = mp.mpf(tol) / 4

        def bound(M):
            outer = mp.e ** (-mp.pi / (2 * mp.sqrt(N + M)))
            x = (rho / outer) ** M
            peak = gf_numeric(kind, r, outer, wp, shift=shift).real
            return peak * outer ** (-N) * x / (1 - x)

        def smallest_m(target, lo):
            # B(M) falls as M grows: double past the target, then bisect
            # over even M
            hi, b = lo, bound(lo)
            while b > target:
                lo, hi = hi, 2 * hi
                if hi > TRAPEZOID_M_CAP:
                    raise QuadratureFailure(
                        f"trapezoidal rule needs more than {TRAPEZOID_M_CAP} points"
                    )
                b = bound(hi)
            while hi - lo > 2:
                mid = (lo + hi) // 4 * 2
                b_mid = bound(mid)
                if b_mid <= target:
                    hi, b = mid, b_mid
                else:
                    lo = mid
            return hi, b

        # F(rho) rho^{-N} >= a_N, and the saddle point puts a_N near it over
        # 2 sqrt(2) n^{3/4}: pick M against that estimate with room to
        # spare, so that the certificate below passes at the first M
        upper = gf_numeric(kind, r, rho, wp, shift=shift).real * rho ** (-N)
        target = quarter * upper / (4 * mp.mpf(n) ** (mp.mpf(3) / 4))
        M = N + 2 - N % 2  # the smallest even M > N
        while True:
            M, b = smallest_m(target, M)
            samples = _circle_samples(kind, r, M, rho, wp, shift)
            total = mp.mpf(0)
            for j, f in enumerate(samples):
                term = (f * mp.expjpi(-mp.mpf(2 * (N * j % M)) / M)).real
                total += term if 0 < j < M // 2 else term / 2
            value = 2 * total / M * rho ** (-N)
            floor = max(value - b, 1)
            if b <= quarter * floor:
                break
            target = quarter * floor
    with mp.workprec(wp):
        return +value, +b, M


def _check_tol(tol) -> None:
    if tol < MIN_TOL:
        raise ValueError(f"tol {tol} tighter than supported minimum {MIN_TOL}")


def cauchy_coefficient(
    kind: str, r: int, N: int, tol: float = MIN_TOL, prec: int | None = None,
    shift: int | None = None,
) -> mp.mpf:
    """Full-circle Cauchy integral by the trapezoidal rule; within tol of the
    exact integer coefficient, relative (absolute when it is zero).  Raises
    QuadratureFailure past TRAPEZOID_M_CAP points."""
    _check_tol(tol)
    if N > FULL_CIRCLE_N_CAP:
        raise OversizeRequest(f"full-circle quadrature capped at N={FULL_CIRCLE_N_CAP}")
    if N < 0:
        raise ValueError("N must be >= 0")
    return _trapezoid_coefficient(kind, r, N, tol, prec, shift)[0]


def major_arc_coefficient(
    kind: str, r: int, N: int, tol: float = MIN_TOL, prec: int | None = None,
    shift: int | None = None,
) -> mp.mpf:
    """Contribution of |x| <= 1/(4 sqrt N) only."""
    _check_tol(tol)
    if N > MAJOR_ARC_N_CAP:
        raise OversizeRequest(f"major-arc quadrature capped at N={MAJOR_ARC_N_CAP}")
    if N < 1:
        raise ValueError("N must be >= 1")
    y = float(1 / (4 * mp.sqrt(N)))
    return _circle_integral(kind, r, N, 0.0, y, tol, prec, shift)


def minor_arc_value(
    kind: str, r: int, N: int, tol: float = MIN_TOL, prec: int | None = None,
    shift: int | None = None,
) -> mp.mpf:
    """Contribution of 1/(4 sqrt N) <= |x| <= 1/2."""
    _check_tol(tol)
    if N > FULL_CIRCLE_N_CAP:
        raise OversizeRequest(f"minor-arc quadrature capped at N={FULL_CIRCLE_N_CAP}")
    if N < 1:
        raise ValueError("N must be >= 1")
    y = float(1 / (4 * mp.sqrt(N)))
    return _circle_integral(kind, r, N, y, 0.5, tol, prec, shift)


@dataclass
class ArcReport:
    """Where the coefficient mass sits on the circle for one (kind, r, N)."""

    kind: str
    r: int
    N: int
    tol: float
    exact_log: float
    full_log: float
    full_rel_err: float
    major_fraction: float
    minor_abs_log: float
    minor_bound_ratio: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def arc_report(
    kind: str, r: int, N: int, tol: float = MIN_TOL, prec: int | None = None,
    shift: int | None = None,
) -> ArcReport:
    """Full/major/minor quadratures against the exact series coefficient."""
    series = (
        genfunc.crank_binomial_series(r, N, shift=shift)
        if kind == "crank"
        else genfunc.rank_binomial_series(r, N, shift=shift)
    )
    exact = series[N]
    wp = working_precision(N, prec)
    full = cauchy_coefficient(kind, r, N, tol, prec, shift)
    major = major_arc_coefficient(kind, r, N, tol, prec, shift)
    minor = minor_arc_value(kind, r, N, tol, prec, shift)
    with mp.workprec(wp):
        rel = abs(full - exact) / abs(exact) if exact else abs(full - exact)
        bound = mp.mpf(N) ** (mp.mpf(r) / 2 + mp.mpf(1) / 4) * mp.e ** (
            3 * mp.pi * mp.sqrt(N) / 4
        )
        return ArcReport(
            kind=kind,
            r=r,
            N=N,
            tol=tol,
            exact_log=float(mp.log(abs(mp.mpf(exact)))) if exact else float("-inf"),
            full_log=float(mp.log(abs(full))),
            full_rel_err=float(rel),
            major_fraction=float(major / exact) if exact else float("nan"),
            minor_abs_log=float(mp.log(max(abs(minor), mp.mpf(2) ** (-wp)))),
            minor_bound_ratio=float(abs(minor) / bound),
        )


# ---------------------------------------------------------------------------
# Bessel pathway: the segment integral P_s.
# ---------------------------------------------------------------------------


def p_segment(s, N: int, prec: int | None = None, tol: float = 1e-10) -> mp.mpf:
    """P_s = (1/2 pi i) integral over the segment [1-i, 1+i] of
    v^s e^{(pi sqrt N / 2)(v + 1/v)} dv, by conjugate symmetry equal to
    (1/pi) integral_0^1 Re[(1+it)^s e^{(pi sqrt N/2)((1+it) + 1/(1+it))}] dt."""
    wp = working_precision(N, prec)
    with mp.workprec(wp):
        half = mp.pi * mp.sqrt(N) / 2
        sv = mp.mpf(s)

        def integrand(t):
            v = 1 + 1j * t
            return (v**sv * mp.e ** (half * (v + 1 / v))).real

        value = _adaptive_quad(integrand, [(0.0, 0.25), (0.25, 1.0)], mp.mpf(tol) / 4, wp)
        result = value / mp.pi
    with mp.workprec(wp):
        return +result


def bessel_pathway_check(r: int, N: int, prec: int | None = None, tol: float = 1e-10) -> mp.mpf:
    """|P_{-r+1/2} - I_{r-3/2}(pi sqrt N)| / e^{3 pi sqrt N / 4}; bounded in N."""
    if N < 16:
        raise ValueError("N must be >= 16")
    wp = working_precision(N, prec)
    s = mp.mpf(1) / 2 - r
    P = p_segment(s, N, wp, tol)
    with mp.workprec(wp):
        I = mp.besseli(-s - 1, mp.pi * mp.sqrt(N))
        result = abs(P - I) / mp.e ** (3 * mp.pi * mp.sqrt(N) / 4)
    with mp.workprec(wp):
        return +result


# ---------------------------------------------------------------------------
# Major-arc main terms, two parametrizations of the same integral.
# ---------------------------------------------------------------------------


def i1_main_terms_direct(
    r: int, N: int, consts: AsymptoticConstants | None = None,
    prec: int | None = None, tol: float = 1e-10,
) -> mp.mpf:
    """Major-arc integral of the two-term pole approximation, in x-space."""
    if consts is None:
        consts = resolve_constants(r, working_precision(N, prec))
    wp = working_precision(N, prec)
    with mp.workprec(wp):
        y = 1 / (4 * mp.sqrt(N))
        c = consts.c
        d = consts.d_crank

        def integrand(x):
            tau = mp.mpc(x, y)
            X = -2j * mp.pi * tau
            w = mp.sqrt(-1j * tau / 2) * mp.e ** (1j * mp.pi / (8 * tau))
            val = w * (c * X ** (-r) + d * X ** (-r + 1)) * mp.e ** (-2j * mp.pi * N * x)
            return 2 * val.real

        value = _adaptive_quad(integrand, [(0.0, float(y))], mp.mpf(tol) / 4, wp)
        result = value * mp.e ** (mp.pi * mp.sqrt(N) / 2)
    with mp.workprec(wp):
        return +result


def i1_main_terms_bessel(
    r: int, N: int, consts: AsymptoticConstants | None = None,
    prec: int | None = None, tol: float = 1e-10,
) -> mp.mpf:
    """Same integral after v = 1 - i u: an exact combination of P-segments,

        c~_r N^{r/2-3/4} P_{-r+1/2} + d~_r N^{r/2-5/4} P_{-r+3/2},

    with c~_r = c_r pi^{-r+1} 2^{r-5/2} and d~_r = d_r pi^{-r+2} 2^{r-7/2}
    (`AsymptoticConstants.c_tilde` and `d_tilde`).
    """
    if consts is None:
        consts = resolve_constants(r, working_precision(N, prec))
    wp = working_precision(N, prec)
    with mp.workprec(wp):
        nv = mp.mpf(N)
        lead = (
            consts.c_tilde
            * nv ** (mp.mpf(r) / 2 - mp.mpf(3) / 4)
            * p_segment(mp.mpf(1) / 2 - r, N, wp, tol)
        )
        sub = (
            consts.d_tilde
            * nv ** (mp.mpf(r) / 2 - mp.mpf(5) / 4)
            * p_segment(mp.mpf(3) / 2 - r, N, wp, tol)
        )
        result = lead + sub
    with mp.workprec(wp):
        return +result
