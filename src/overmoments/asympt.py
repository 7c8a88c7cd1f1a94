"""High-precision asymptotic constants, the subleading-constant fit, and main
terms.

Everything numeric runs on mpmath under an explicit working precision in
bits (requested precision plus guard bits); callers pass `prec`, values come
back rounded to that precision.  Exact big integers are turned into logs via
mpf conversion, which keeps the top bits of the mantissa and is accurate to
working precision regardless of the integer's size.

The two q-series behind every numeric check have their only numeric
evaluators here: `s_series_eval` (the crank and rank Lambert sums) and
`overpartition_numeric` (the prefactor (-q)oo/(q)oo as 1/theta_4(q)).  Both
return unrounded at their working precision, so each caller rounds once:
the fit's pole-expansion residuals, the automorphic prefactor check, and
the circle method's integrand `circle.gf_numeric`.

Constants, for order r >= 1, with eta the alternating zeta (mpmath's
`altzeta`; the Bessel-form main term takes I_{r-3/2} from `besseli`):

  leading pole coefficient      c_r  = eta(r)
  crank subleading              d_r  = one of two candidate readings
  rank subleading               d'_r = one of four candidate readings
  moment main term              gamma_r = r! eta(r) pi^{-r} 2^{r-3}
  difference main term          delta_r = r! pi^{-r+1} 2^{r-4} (d_r - 2 d'_r)
  Bessel-form main term         c~_r = c_r pi^{-r+1} 2^{r-5/2}
  Bessel-form subleading        d~_r = d_r pi^{-r+2} 2^{r-7/2}   (crank)
                                d~'_r = 2 d'_r pi^{-r+2} 2^{r-7/2} (rank)

The subleading constants admit several circulating closed forms that do not
agree with each other.  `fit_subleading` scores every candidate reading on
one grid (DEFAULT_FIT_GRID) at one precision (FIT_PREC) and selects the one
the numerics support: a wrong constant makes the normalized pole-expansion
residual grow like sqrt(N), the right one keeps it bounded.  Each grid point
costs one Lambert sum, shared by all candidates.  `resolve_constants` builds
the frozen bundle of constants at the caller's precision; the subleading
ones are fitted when first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Literal

import mpmath as mp

from . import genfunc
from .errors import Inconclusive, NonConvergent

__all__ = [
    "log_integer",
    "AsymptoticConstants",
    "resolve_constants",
    "subleading_candidates",
    "main_term",
    "s_series_eval",
    "overpartition_numeric",
    "FitResult",
    "fit_subleading",
    "rho_crank",
    "rho_rank",
    "eta_quotient_check",
]

GUARD_BITS = 32

Kind = Literal["crank", "rank"]
DEFAULT_FIT_GRID = (100, 1000, 10000, 100000)
FIT_PREC = 192


def log_integer(value: int, prec: int = 256) -> mp.mpf:
    """Natural log of a positive integer of any size."""
    if value <= 0:
        raise ValueError("log_integer needs a positive integer")
    with mp.workprec(prec + GUARD_BITS):
        result = mp.log(mp.mpf(value))
    with mp.workprec(prec):
        return +result


# ---------------------------------------------------------------------------
# Subleading candidate table.
# ---------------------------------------------------------------------------


def rho_crank(r: int) -> Fraction:
    """0 if r is odd, 1/2 otherwise: with the standard shift the n-th crank
    Lambert term starts at q^{n^2/2 + (r/2 + rho_crank(r)) n}."""
    return Fraction(0) if r % 2 == 1 else Fraction(1, 2)


def rho_rank(r: int) -> Fraction:
    """1/2 if r is odd, 1 otherwise: with the standard shift the n-th rank
    Lambert term starts at q^{n^2 + (r/2 + rho_rank(r)) n}."""
    return Fraction(1, 2) if r % 2 == 1 else Fraction(1)


def subleading_candidates(kind: Kind, r: int, prec: int = 256) -> dict:
    """Candidate values for the pole-expansion subleading constant.

    Tags name the structure of each reading: "eta" uses eta(r-1) in the
    rho-weighted term, "zeta_shifted" uses zeta(r-1)(1 - 2^{1-r}) (one power
    of 2 away from the eta form), "swapped_eta" exchanges the roles of the
    eta(r-1) and eta(r-2) terms, and "expansion" is the constant obtained by
    expanding the summand directly through order t (kept alongside the
    others for the rank sum, where the readings genuinely differ).  A tag
    maps to None when its formula hits the zeta pole at argument 1; that
    reading is excluded rather than patched.
    """
    eta = mp.altzeta
    with mp.workprec(prec + GUARD_BITS):

        def zeta_form(arg, expo):
            # zeta(arg) * (1 - 2^expo); equals eta(arg) only when expo = 1 - arg
            if arg == 1:
                return None
            return mp.zeta(arg) * (1 - mp.mpf(2) ** expo)

        out: dict[str, mp.mpf | None] = {}
        if kind == "crank":
            rho = mp.mpf(float(rho_crank(r)))
            lit = zeta_form(r - 1, 1 - r)
            out["zeta_shifted"] = (
                None if lit is None and rho != 0 else -(eta(r - 2) / 2 + rho * (lit or 0))
            )
            out["eta"] = -(eta(r - 2) / 2 + rho * eta(r - 1))
        elif kind == "rank":
            rho = mp.mpf(float(rho_rank(r)))
            lit = zeta_form(r - 1, 1 - r)
            out["zeta_shifted"] = None if lit is None else -(eta(r - 2) + rho / 2 * lit)
            out["eta"] = -(eta(r - 2) + rho / 2 * eta(r - 1))
            out["swapped_eta"] = -(eta(r - 1) + rho * eta(r - 2)) / 2 - eta(r - 1) / 2
            out["expansion"] = -(eta(r - 2) / 2 + (2 * rho - 1) / 4 * eta(r - 1))
        else:
            raise ValueError("kind must be 'crank' or 'rank'")
    with mp.workprec(prec):
        return {k: (+v if v is not None else None) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Constants bundle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticConstants:
    """All main-term constants for one order r.  Built only by
    `resolve_constants`.  The subleading ones run `fit_subleading` on first
    read, so a caller that needs only c, gamma or c~ never fits."""

    r: int
    precision_bits: int
    c: mp.mpf
    gamma: mp.mpf

    @cached_property
    def d_crank_tag(self) -> str:
        return fit_subleading("crank", self.r).selected_tag

    @cached_property
    def d_rank_tag(self) -> str:
        return fit_subleading("rank", self.r).selected_tag

    @cached_property
    def d_crank(self) -> mp.mpf:
        return subleading_candidates("crank", self.r, self.precision_bits)[self.d_crank_tag]

    @cached_property
    def d_rank(self) -> mp.mpf:
        return subleading_candidates("rank", self.r, self.precision_bits)[self.d_rank_tag]

    @property
    def c_tilde(self) -> mp.mpf:
        with mp.workprec(self.precision_bits):
            return self.c * mp.pi ** (-self.r + 1) * mp.mpf(2) ** (self.r - mp.mpf(5) / 2)

    @property
    def d_tilde(self) -> mp.mpf:
        with mp.workprec(self.precision_bits):
            return self.d_crank * mp.pi ** (-self.r + 2) * mp.mpf(2) ** (self.r - mp.mpf(7) / 2)

    @property
    def d_tilde_prime(self) -> mp.mpf:
        with mp.workprec(self.precision_bits):
            return 2 * self.d_rank * mp.pi ** (-self.r + 2) * mp.mpf(2) ** (self.r - mp.mpf(7) / 2)

    @property
    def delta(self) -> mp.mpf:
        """Difference main-term constant, from the selected subleadings."""
        with mp.workprec(self.precision_bits):
            return (
                mp.factorial(self.r)
                * mp.pi ** (-self.r + 1)
                * mp.mpf(2) ** (self.r - 4)
                * (self.d_crank - 2 * self.d_rank)
            )


@lru_cache(maxsize=None)
def resolve_constants(r: int, prec: int = 256) -> AsymptoticConstants:
    """Every constant for order r at precision prec; the subleading readings
    are selected by `fit_subleading` and evaluated at prec when first read."""
    if r < 1:
        raise ValueError("r must be >= 1")
    with mp.workprec(prec + GUARD_BITS):
        c = mp.altzeta(r)
        gamma = mp.factorial(r) * c * mp.pi ** (-r) * mp.mpf(2) ** (r - 3)
    with mp.workprec(prec):
        return AsymptoticConstants(r=r, precision_bits=prec, c=+c, gamma=+gamma)


# ---------------------------------------------------------------------------
# Main terms in log-space.
# ---------------------------------------------------------------------------


def main_term(
    kind: Kind,
    flavor: Literal["moment_main", "difference_main", "symmetrized_bessel"],
    r: int,
    N: int,
    prec: int = 256,
    consts: AsymptoticConstants | None = None,
) -> mp.mpf:
    """Natural log of the (positive) asymptotic main term.

    Log-space keeps e^{pi sqrt N} finite for any N.  The constants are the
    fit-selected ones unless a pre-built bundle is supplied.  The moment and
    difference flavors are kind-independent (crank and rank share them);
    `kind` is accepted for report labeling.
    """
    if kind not in ("crank", "rank"):
        raise ValueError("kind must be 'crank' or 'rank'")
    if N < 1:
        raise ValueError("N must be >= 1")
    if consts is None:
        consts = resolve_constants(r, prec)
    with mp.workprec(prec + GUARD_BITS):
        nv = mp.mpf(N)
        if flavor == "moment_main":
            result = mp.log(consts.gamma) + (mp.mpf(r) / 2 - 1) * mp.log(nv) + mp.pi * mp.sqrt(nv)
        elif flavor == "difference_main":
            result = (
                mp.log(consts.delta)
                + (mp.mpf(r) / 2 - mp.mpf(3) / 2) * mp.log(nv)
                + mp.pi * mp.sqrt(nv)
            )
        elif flavor == "symmetrized_bessel":
            arg = mp.pi * mp.sqrt(nv)
            result = (
                mp.log(consts.c_tilde)
                + (mp.mpf(r) / 2 - mp.mpf(3) / 4) * mp.log(nv)
                + mp.log(mp.besseli(mp.mpf(r) - mp.mpf(3) / 2, arg))
            )
        else:
            raise ValueError(f"unknown flavor {flavor!r}")
    with mp.workprec(prec):
        return +result


# ---------------------------------------------------------------------------
# Numeric evaluation of the two q-series near the unit circle.
# ---------------------------------------------------------------------------


def s_series_eval(kind: Kind, r: int, q, prec: int = 256, shift: int | None = None):
    """Lambert sum of the crank or rank moment series at complex q, |q| < 1.

    The same sum as `genfunc.lambert_sum` under the weight binom(m+s, r), in
    its summed form q^{e(n)} / (1-q^n)^r (times 1/(1+q^n) and 2 for the
    rank), with binomial shift s defaulting to the standard one.  The
    exponent is e(n) = (n^2 + (2(r-s)-1)n)/2 (crank) or n^2 + (r-s)n
    (rank), and powers of q are built by recurrence: e(n)
    steps by n + r - s (crank) or 2n + 1 + r - s (rank).  Summation stops on
    a certified tail bound below 2^-(prec+8) relative.  The value comes back
    unrounded at the working precision prec + 16, so callers round once.
    Raises NonConvergent outside |q| < 1.
    """
    if kind not in ("crank", "rank"):
        raise ValueError("kind must be 'crank' or 'rank'")
    if shift is None:
        shift = genfunc.standard_shift(r)
    with mp.workprec(prec + 16):
        qv = mp.mpc(q)
        absq = abs(qv)
        if absq >= 1:
            raise NonConvergent("|q| must be < 1")
        eps = mp.mpf(2) ** (-(prec + 8))
        # q^{e(n)} by recurrence: e(n+1) - e(n) = de grows by dde per step
        d = r - shift
        e, de, dde = (d, d + 1, 1) if kind == "crank" else (d + 1, d + 3, 2)
        qe, step, lift = qv**e, qv**de, qv**dde
        qn = mp.mpc(1)
        total = mp.mpc(0)
        n = 1
        while True:
            qn *= qv
            den = (1 - qn) ** r if kind == "crank" else (1 - qn) ** r * (1 + qn)
            total += qe / den if n % 2 == 1 else -qe / den
            # certified tail: the next term bounds the remainder up to the
            # geometric factor 1/(1 - |q|), absorbed into the 2x margin
            bound = 2 * absq ** (e + de) / (1 - absq ** (n + 1)) ** (r + 1)
            if bound < eps * max(1, abs(total)):
                break
            qe, step = qe * step, step * lift
            e, de, n = e + de, de + dde, n + 1
        return total * 2 if kind == "rank" else total


def overpartition_numeric(q, prec: int = 256):
    """The prefactor (-q)oo/(q)oo = 1/theta_4(q) at complex q, |q| < 1.

    theta_4 = 1 + 2 sum (-1)^k q^{k^2}, with q^{(k+1)^2} = q^{k^2} q^{2k+1},
    summed until |q|^{k^2} < 2^-bits.  By the product formula
    |theta_4(q)| >= theta_4(|q|) >= e^{-pi^2/(4t)}, t = -log|q|, so
    pi^2/(4t ln 2) + 8 guard bits above prec + 16 keep the quotient at full
    relative precision as q -> 1.  The value comes back unrounded at that
    working precision, so callers round once.  Raises NonConvergent outside
    |q| < 1.
    """
    with mp.workprec(prec + 16):
        qv = mp.mpc(q)
        absq = abs(qv)
        if absq >= 1:
            raise NonConvergent("|q| must be < 1")
        t = -mp.log(absq)
    bits = prec + 16 + int(mp.ceil(mp.pi**2 / (4 * t * mp.ln2))) + 8
    with mp.workprec(bits):
        q2, odd, square, theta = qv * qv, qv, mp.mpc(1), mp.mpc(0)
        for k in range(1, int(mp.sqrt(bits * mp.ln2 / t)) + 2):
            square *= odd
            odd *= q2
            theta += square if k % 2 == 0 else -square
        return 1 / (1 + 2 * theta)


# ---------------------------------------------------------------------------
# Candidate selection.
# ---------------------------------------------------------------------------


def _pole_expansion_points(kind: Kind, r: int) -> list[tuple]:
    """(S - c t^{-r}, t^{-r+1}, N^{1-r/2}) at each point of DEFAULT_FIT_GRID,
    unrounded at FIT_PREC + GUARD_BITS.

    Here t = -2 pi i tau = 2 pi y at tau = i y, y = 1/(4 sqrt N), and S is
    the Lambert sum at q = e^{-t}: S_r for crank, S~_r (half the rank sum)
    for rank.  A candidate d then has the normalized pole-expansion residual
    |S - c t^{-r} - d t^{-r+1}| N^{1-r/2} = |rem - d tpow| scale, so one
    Lambert sum per point serves every candidate.
    """
    wp = FIT_PREC + GUARD_BITS
    points = []
    with mp.workprec(wp):
        c = mp.altzeta(r)
        if kind == "rank":
            c = c / 2
        for N in DEFAULT_FIT_GRID:
            y = 1 / (4 * mp.sqrt(N))
            t = 2 * mp.pi * y
            S = s_series_eval(kind, r, mp.e ** (-t), wp)
            if kind == "rank":
                S = S / 2
            scale = mp.mpf(N) ** (1 - mp.mpf(r) / 2)
            points.append((S - c * t ** (-r), t ** (-r + 1), scale))
    return points


@dataclass(frozen=True)
class FitResult:
    kind: str
    r: int
    grid: tuple[int, ...]
    slopes: MappingProxyType
    residuals: MappingProxyType
    selected_tag: str
    coincident_tags: tuple[str, ...]


_BOUNDED_SLOPE = 0.2
_PREFERENCE = ("eta", "expansion", "zeta_shifted", "swapped_eta")


@lru_cache(maxsize=None)
def fit_subleading(kind: Kind, r: int) -> FitResult:
    """Select the subleading-constant variant whose normalized pole-expansion
    residual does not grow along DEFAULT_FIT_GRID.  Everything runs at
    FIT_PREC whatever the caller's working precision, so the cached result
    does not depend on which caller comes first.

    With the correct constant the residual stays bounded in N; with a wrong
    one it grows like sqrt N.  The growth score is the steepest log-log slope
    between consecutive grid points: a correct constant scores near 0, a
    wrong one approaches 1/2.  Candidates with identical values are grouped
    (they are the same constant written two ways).  Raises Inconclusive when
    zero or more than one distinct value survives the boundedness cut.
    `residuals` maps each defined tag to its residuals on the grid, rounded
    to FIT_PREC.
    """
    cands = subleading_candidates(kind, r, FIT_PREC)
    points = _pole_expansion_points(kind, r)
    slopes: dict[str, float] = {}
    residuals: dict[str, tuple] = {}
    Ns = DEFAULT_FIT_GRID
    with mp.workprec(FIT_PREC):
        floor = mp.mpf(10) ** (-FIT_PREC // 4)
        for tag, d in cands.items():
            if d is None:
                continue
            with mp.workprec(FIT_PREC + GUARD_BITS):
                res = [abs(rem - d * tpow) * scale for rem, tpow, scale in points]
            res = tuple(+v for v in res)
            residuals[tag] = res
            slopes[tag] = max(
                float(
                    mp.log(max(res[i + 1], floor) / max(res[i], floor))
                    / mp.log(mp.mpf(Ns[i + 1]) / Ns[i])
                )
                for i in range(len(Ns) - 1)
            )
        bounded = [tag for tag, sl in slopes.items() if sl < _BOUNDED_SLOPE]
        # group by numeric value: coincident readings are one candidate
        groups: list[list[str]] = []
        for tag in bounded:
            for grp in groups:
                if mp.almosteq(cands[tag], cands[grp[0]], rel_eps=mp.mpf(2) ** (-FIT_PREC // 2)):
                    grp.append(tag)
                    break
            else:
                groups.append([tag])
    if len(groups) != 1:
        raise Inconclusive(
            f"{kind} r={r}: {len(groups)} distinct bounded candidates "
            f"(slopes {slopes})"
        )
    grp = groups[0]
    tag = next(t for t in _PREFERENCE if t in grp)
    return FitResult(
        kind=kind,
        r=r,
        grid=Ns,
        slopes=MappingProxyType(slopes),
        residuals=MappingProxyType(residuals),
        selected_tag=tag,
        coincident_tags=tuple(grp),
    )


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
