"""Numerical Wright circle method: coefficient recovery by Cauchy integral.

The integration circle is |q| = e^{-pi/(2 sqrt N)}, i.e. tau = x + i y with
y = 1/(4 sqrt N); the Cauchy kernel contributes e^{pi sqrt N / 2}.  The major
arc is |x| <= y, where the integrand carries essentially all of the
coefficient; the minor arc |x| in [y, 1/2] is exponentially smaller
(~ e^{3 pi sqrt N / 4} against e^{pi sqrt N}).

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
    bessel_i,
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
    """2 Re integral of F(q(x)) e^{-2 pi i N x} over [x_lo, x_hi], times the
    Cauchy kernel.  The circle radius is set from max(N, 1) so the N=0
    coefficient integrates on a sane circle."""
    radius_n = max(N, 1)
    wp = working_precision(radius_n, prec)
    with mp.workprec(wp):
        rho = mp.e ** (-mp.pi / (2 * mp.sqrt(radius_n)))

        def integrand(x):
            qx = rho * mp.e ** (2j * mp.pi * x)
            val = gf_numeric(kind, r, qx, wp, shift=shift)
            return 2 * (val * mp.e ** (-2j * mp.pi * N * x)).real

        y = float(1 / (4 * mp.sqrt(radius_n)))
        if x_hi <= y or x_lo >= y:
            panels = _geometric_panels(x_lo, x_hi, max((x_hi - x_lo) / 8, y / 4))
        else:
            panels = _geometric_panels(x_lo, y, y / 4) + _geometric_panels(y, x_hi, y)
        kernel = mp.e ** (N * mp.pi / (2 * mp.sqrt(radius_n)))
        # coefficients are integers: anything below tol in coefficient space
        # counts as zero, so the integral-space floor is tol / kernel
        value = _adaptive_quad(
            integrand, panels, mp.mpf(tol) / 4, wp, abs_floor=mp.mpf(tol) / kernel
        )
        result = value * kernel
    with mp.workprec(wp):
        return +result


def _check_tol(tol) -> None:
    if tol < MIN_TOL:
        raise ValueError(f"tol {tol} tighter than supported minimum {MIN_TOL}")


def cauchy_coefficient(
    kind: str, r: int, N: int, tol: float = MIN_TOL, prec: int | None = None,
    shift: int | None = None,
) -> mp.mpf:
    """Full-circle Cauchy integral; equals the exact integer coefficient up
    to quadrature error."""
    _check_tol(tol)
    if N > FULL_CIRCLE_N_CAP:
        raise OversizeRequest(f"full-circle quadrature capped at N={FULL_CIRCLE_N_CAP}")
    if N < 0:
        raise ValueError("N must be >= 0")
    return _circle_integral(kind, r, N, 0.0, 0.5, tol, prec, shift)


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
        I = bessel_i(-s - 1, mp.pi * mp.sqrt(N), wp)
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

        c_r pi^{-r+1} 2^{r-5/2} N^{r/2-3/4} P_{-r+1/2}
      + d_r pi^{-r+2} 2^{r-7/2} N^{r/2-5/4} P_{-r+3/2}.
    """
    if consts is None:
        consts = resolve_constants(r, working_precision(N, prec))
    wp = working_precision(N, prec)
    with mp.workprec(wp):
        nv = mp.mpf(N)
        lead = (
            consts.c
            * mp.pi ** (-r + 1)
            * mp.mpf(2) ** (r - mp.mpf(5) / 2)
            * nv ** (mp.mpf(r) / 2 - mp.mpf(3) / 4)
            * p_segment(mp.mpf(1) / 2 - r, N, wp, tol)
        )
        sub = (
            consts.d_crank
            * mp.pi ** (-r + 2)
            * mp.mpf(2) ** (r - mp.mpf(7) / 2)
            * nv ** (mp.mpf(r) / 2 - mp.mpf(5) / 4)
            * p_segment(mp.mpf(3) / 2 - r, N, wp, tol)
        )
        result = lead + sub
    with mp.workprec(wp):
        return +result
