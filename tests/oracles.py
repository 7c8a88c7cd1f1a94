"""Test-only oracles: independent constructions the production code is
checked against, kept out of the package because nothing in it calls them.
Series here are plain lists of integer coefficients."""

import heapq
from dataclasses import dataclass
from itertools import count
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Sequence

import mpmath as mp

from overmoments.asympt import GUARD_BITS, THETA4_GUARD_BITS_CAP, pole_coefficients
from overmoments.circle import gf_numeric, p_segment, working_precision
from overmoments.errors import NonConvergent, OversizeRequest, QuadratureFailure
from overmoments.genfunc import standard_shift


def schoolbook(a: Sequence[int], b: Sequence[int], trunc: int) -> list[int]:
    """Truncated convolution by the O(n^2) definition."""
    out = [0] * (trunc + 1)
    for i, x in enumerate(a[: trunc + 1]):
        for j, y in enumerate(b[: trunc + 1 - i]):
            out[i + j] += x * y
    return out


def mul(*factors: Sequence[int]) -> list[int]:
    """Product of coefficient lists, exact through the shortest factor."""
    trunc = min(map(len, factors)) - 1
    product = list(factors[0][: trunc + 1])
    for f in factors[1:]:
        product = schoolbook(product, f, trunc)
    return product


def one(trunc: int) -> list[int]:
    return [1] + [0] * trunc


def invert(a: Sequence[int]) -> list[int]:
    """Multiplicative inverse through q^(len(a) - 1) by Newton iteration;
    integral since the constant term must be +1 or -1 (ValueError otherwise)."""
    if a[0] not in (1, -1):
        raise ValueError(f"constant term {a[0]} is not a unit")
    trunc = len(a) - 1
    inv = [a[0]]
    known = 0  # exact through q^known
    while known < trunc:
        known = min(2 * known + 1, trunc)
        t = schoolbook(inv, a[: known + 1], known)
        t[0] = 2 - t[0]
        for i in range(1, known + 1):
            t[i] = -t[i]
        inv = schoolbook(inv, t, known)
    return inv


def theta4(trunc: int) -> list[int]:
    """theta_4(q) = 1 + 2 sum_{k>=1} (-1)^k q^{k^2} through q^trunc."""
    c = one(trunc)
    for k in range(1, isqrt(trunc) + 1):
        c[k * k] = 2 * (-1) ** k
    return c


def pochhammer_q(sign: int, trunc: int) -> list[int]:
    """Infinite q-Pochhammer product, truncated.

    sign=-1 gives prod_{k>=1} (1 - q^k), sign=+1 gives prod_{k>=1} (1 + q^k).
    Factors with k > trunc cannot touch coefficients <= trunc, so the product
    stops there.
    """
    c = one(trunc)
    for k in range(1, trunc + 1):
        # multiply in place by (1 + sign*q^k); descending i keeps old values
        for i in range(trunc, k - 1, -1):
            c[i] += sign * c[i - k]
    return c


def lambert_term(
    n: int,
    r: int,
    exponent: int,
    trunc: int,
    alternating_factor: bool = False,
) -> list[int]:
    """One term of a Lambert-type sum: q^exponent / (1 - q^n)^r.

    With alternating_factor=True an extra 1/(1 + q^n) is folded in; its
    coefficients follow the prefix recurrence d_k = binom(k+r-1, r-1) - d_{k-1}.
    """
    c = [0] * (trunc + 1)
    k = 0
    prev = 0
    while exponent + k * n <= trunc:
        if r == 0:
            base = 1 if k == 0 else 0
        else:
            base = comb(k + r - 1, r - 1)
        val = base - prev if alternating_factor else base
        c[exponent + k * n] = val
        if alternating_factor:
            prev = val
        k += 1
    return c


def pentagonal_support(limit: int) -> set[int]:
    """Generalized pentagonal numbers k(3k-1)/2, |k| >= 0, up to limit."""
    out = {0}
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        out.add(k * (3 * k - 1) // 2)
        if k * (3 * k + 1) // 2 <= limit:
            out.add(k * (3 * k + 1) // 2)
        k += 1
    return out


def bessel_i_series(order, x, prec: int = 256, terms: int = 60) -> mp.mpf:
    """Defining power series of I_order(x); the independent oracle for the
    Bessel factor of asympt.main_term's symmetrized flavor."""
    with mp.workprec(prec + GUARD_BITS):
        xv = mp.mpf(x)
        nu = mp.mpf(order)
        half = xv / 2
        total = mp.mpf(0)
        for k in range(terms):
            total += half ** (2 * k + nu) / (mp.factorial(k) * mp.gamma(k + nu + 1))
        result = total
    with mp.workprec(prec):
        return +result


def s_series_mpmath(kind, r: int, q, prec: int = 256):
    """The Lambert sum of `asympt.s_series_eval` summed in mpmath at prec + 16
    bits: the loop that the fixed-point kernel replaced, with the same powers
    by recurrence and the same certified stopping rule."""
    if kind not in ("crank", "rank"):
        raise ValueError("kind must be 'crank' or 'rank'")
    with mp.workprec(prec + 16):
        qv = mp.mpc(q)
        absq = abs(qv)
        if absq >= 1:
            raise NonConvergent("|q| must be < 1")
        eps = mp.mpf(2) ** (-(prec + 8))
        # q^{e(n)} and |q|^{e(n+1)} by recurrence: e(n+1) - e(n) = de grows by dde per step
        d = r - standard_shift(r)
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


def overpartition_mpmath(q, prec: int = 256):
    """1/theta_4(q) as `asympt.overpartition_numeric` gives it, summed in
    mpmath at the same guard bits and term count: the loop that the
    fixed-point kernel replaced."""
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


def rho_crank(r: int) -> Fraction:
    """0 if r is odd, 1/2 otherwise: with the standard shift the n-th crank
    Lambert term starts at q^{n^2/2 + (r/2 + rho_crank(r)) n}."""
    return Fraction(0) if r % 2 == 1 else Fraction(1, 2)


def rho_rank(r: int) -> Fraction:
    """1/2 if r is odd, 1 otherwise: with the standard shift the n-th rank
    Lambert term starts at q^{n^2 + (r/2 + rho_rank(r)) n}."""
    return Fraction(1, 2) if r % 2 == 1 else Fraction(1)


def subleading_candidates(kind: str, r: int, prec: int = 256) -> dict:
    """The printed readings of the pole-expansion subleading constant, kept
    as evidence for which of them the derived expansion confirms
    (`asympt.pole_coefficients`: C_1 for the crank, C_1/2 for the rank,
    whose sum this halves).

    Tags name the structure of each reading: "eta" uses eta(r-1) in the
    rho-weighted term, "zeta_shifted" uses zeta(r-1)(1 - 2^{1-r}) (one power
    of 2 away from the eta form), "swapped_eta" exchanges the roles of the
    eta(r-1) and eta(r-2) terms, and "expansion" is the constant obtained by
    expanding the summand directly through order t.  A tag maps to None when
    its formula hits the zeta pole at argument 1; that reading is excluded
    rather than patched.
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


def _basis_polynomial(l: int) -> list[Fraction]:
    """Coefficients (ascending in m) of B_l(m) = binom(m + floor((l-1)/2), l)."""
    s = standard_shift(l)
    poly = [Fraction(1)]
    for j in range(l):
        # multiply by (m + s - j)
        shifted = [Fraction(0)] + poly
        poly = [
            shifted[i] + Fraction(s - j) * (poly[i] if i < len(poly) else 0)
            for i in range(len(shifted))
        ]
    f = Fraction(factorial(l))
    return [c / f for c in poly]


@dataclass(frozen=True)
class BasisChange:
    """Coefficients a_0..a_{r-1} of m^r = r! B_r(m) + sum_l a_l B_l(m)."""

    r: int
    a: tuple[Fraction, ...]

    def holds_at(self, m: int) -> bool:
        lhs = Fraction(m) ** self.r
        rhs = factorial(self.r) * Fraction(comb(m + standard_shift(self.r), self.r))
        for l in range(self.r):
            if self.a[l]:
                rhs += self.a[l] * comb(m + standard_shift(l), l)
        return lhs == rhs


def basis_change(r: int) -> BasisChange:
    """Solve the triangular system expressing m^r in the basis {B_l}_{l<=r}
    (B_l has degree l and leading coefficient 1/l!, so the a_l are unique):
    the power moments as rational combinations of symmetrized ones."""
    if r < 1:
        raise ValueError("r must be >= 1")
    remainder = [Fraction(0)] * (r + 1)
    remainder[r] = Fraction(1)
    coeffs = [Fraction(0)] * (r + 1)
    for l in range(r, -1, -1):
        B = _basis_polynomial(l)
        c = remainder[l] / B[l]
        coeffs[l] = c
        for i in range(l + 1):
            remainder[i] -= c * B[i]
    if any(remainder):
        raise ArithmeticError(f"basis change for r={r} left a remainder")
    if coeffs[r] != factorial(r):
        raise ArithmeticError(f"leading basis coefficient {coeffs[r]} is not {r}!")
    bc = BasisChange(r, tuple(coeffs[:r]))
    for m in range(1, r + 2):
        if not bc.holds_at(m):
            raise ArithmeticError(f"basis identity fails at m={m}")
    return bc


def _adaptive_quad(f, panels, rel_tol, prec: int, abs_floor, max_panels: int = 2000) -> mp.mpf:
    """Integrate a real-valued integrand over seeded panels, bisecting the
    panel with the worst error estimate until the total estimate is below
    rel_tol relative to max(|value|, abs_floor)."""
    with mp.workprec(prec):
        heap, order = [], count()
        total_val = mp.mpf(0)
        total_err = mp.mpf(0)

        def push(a, b):
            nonlocal total_val, total_err
            v, e = mp.quad(f, [mp.mpf(a), mp.mpf(b)], error=True, maxdegree=5)
            key = -float(mp.log(e + mp.mpf(2) ** (-prec), 2))
            heapq.heappush(heap, (key, next(order), a, b, v, e))
            total_val += v
            total_err += e

        for a, b in panels:
            push(a, b)
        while total_err > rel_tol * max(abs(total_val), abs_floor):
            if len(heap) >= max_panels:
                raise QuadratureFailure(f"refinement stalled at {len(heap)} panels")
            _, _, a, b, v, e = heapq.heappop(heap)
            total_val -= v
            total_err -= e
            push(a, (a + b) / 2)
            push((a + b) / 2, b)
        return total_val


def trapezoid_mpmath(kind, r, N, M, rho, prec) -> mp.mpf:
    """(2/M) rho^{-N} sum_j' Re(F(rho e^{2 pi i j/M}) e^{-2 pi i N j/M}) over
    j = 0..M/2, the end terms halved, summed in mpmath at prec with one
    `circle.gf_numeric` call per sample: the sample sum that the integer one
    in `circle._trapezoid_coefficient` replaced."""
    with mp.workprec(prec):
        total = mp.mpf(0)
        for j in range(M // 2 + 1):
            f = gf_numeric(kind, r, rho * mp.expjpi(mp.mpf(2 * j) / M), prec)
            term = (f * mp.expjpi(-mp.mpf(2 * (N * j % M)) / M)).real
            total += term if 0 < j < M // 2 else term / 2
        return 2 * total / M * rho ** (-N)


def sinc_sum_mpmath(series, N: int, extra: int = 0) -> mp.mpf:
    """The major arc's sinc sum over the coefficients a_0..a_T,
    sum_m a_m Im(u^{m-N}) / (pi (m-N)) + 2y a_N, u = e^{-pi/(2 sqrt N)}
    e^{2 pi i y}, y = 1/(4 sqrt N), rotating one mpc by u per coefficient at
    bits(a_N) + bits(N) + 64 + bits(T) + extra bits: the loop that the
    integer sum `circle._sinc_sum` replaced.  The terms sum in size to about
    a_N N^{3/4}, so at extra = 0 it holds the sum to about 2^-64 absolute."""
    T = len(series) - 1
    bits = max(working_precision(N), series[N].bit_length() + N.bit_length() + 64)
    with mp.workprec(bits + T.bit_length() + extra):
        y = 1 / (4 * mp.sqrt(N))
        u = mp.e ** (-mp.pi / (2 * mp.sqrt(N))) * mp.expjpi(2 * y)
        w = u**-N  # rho^{m-N} e^{2 pi i (m-N) y} at m = 0
        total = mp.mpf(0)
        for k, a in enumerate(series, -N):
            if a and k:
                total += a * w.imag / k
            w *= u
        return total / mp.pi + 2 * y * series[N]


def arc_quadrature(kind, r, N, x_lo, x_hi, tol) -> mp.mpf:
    """The Cauchy integral of a_N over the arc x_lo <= |x| <= x_hi of
    |q| = e^{-pi/(2 sqrt N)} by adaptive quadrature of `circle.gf_numeric`:
    twice the real part over the positive half, on panels widening 4x from
    x_lo, each arc on one side of y = 1/(4 sqrt N).  The independent check
    of the sinc sum that `circle` integrates the arcs with."""
    wp = working_precision(N)
    with mp.workprec(wp):
        rho = mp.e ** (-mp.pi / (2 * mp.sqrt(N)))

        def integrand(x):
            val = gf_numeric(kind, r, rho * mp.e ** (2j * mp.pi * x), wp)
            return 2 * (val * mp.e ** (-2j * mp.pi * N * x)).real

        y = float(1 / (4 * mp.sqrt(N)))
        panels, lo, w = [], x_lo, max((x_hi - x_lo) / 8, y / 4)
        while lo + w < x_hi:
            panels.append((lo, lo + w))
            lo, w = lo + w, 4 * w
        panels.append((lo, x_hi))
        kernel = rho ** (-N)
        # coefficients are integers: anything below tol in coefficient space
        # counts as zero, so the integral-space floor is tol / kernel
        value = _adaptive_quad(integrand, panels, mp.mpf(tol) / 4, wp, mp.mpf(tol) / kernel)
        return value * kernel


def searched_truncation(kind, r, N, tol) -> int:
    """The major arc's truncation point by search: the smallest T >= 2N with
    B(T) = F(rho') rho^{-N} x^{T+1} / ((1-x) pi (T+1-N)) <= tol/4, where
    rho = e^{-pi/(2 sqrt N)}, x = rho/rho' and rho' = e^{-pi/(2 sqrt T)}
    moves with T.  Doubling from 2N past tol/4, then bisecting, one real
    evaluation per step: the rule that `circle._major_arc` replaced by one
    evaluation at a fixed rho'."""
    wp = working_precision(N)
    with mp.workprec(wp):
        rho = mp.e ** (-mp.pi / (2 * mp.sqrt(N)))

        def bound(T):
            outer = mp.e ** (-mp.pi / (2 * mp.sqrt(T)))
            x = rho / outer
            peak = gf_numeric(kind, r, outer, wp).real
            return peak * rho ** (-N) * x ** (T + 1) / ((1 - x) * mp.pi * (T + 1 - N))

        target, lo = mp.mpf(tol) / 4, 2 * N
        hi = lo
        while bound(hi) > target:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bound(mid) <= target:
                hi = mid
            else:
                lo = mid
        return hi


def i1_main_terms_direct(r: int, N: int) -> mp.mpf:
    """Major-arc integral, in x-space, of the two-term pole approximation
    c_r X^{-r} + d_r X^{1-r}, X = -2 pi i tau, times the prefactor's closed
    form sqrt(-i tau/2) e^{pi i/(8 tau)}: the K = 2 case of the Bessel main
    term, with c_r = C_0 and d_r = C_1 of the crank sum."""
    wp = working_precision(N)
    c, d = pole_coefficients("crank", r, 2, wp)
    with mp.workprec(wp):
        y = 1 / (4 * mp.sqrt(N))

        def integrand(x):
            tau = mp.mpc(x, y)
            X = -2j * mp.pi * tau
            w = mp.sqrt(-1j * tau / 2) * mp.e ** (1j * mp.pi / (8 * tau))
            val = w * (c * X ** (-r) + d * X ** (-r + 1)) * mp.e ** (-2j * mp.pi * N * x)
            return 2 * val.real

        value, err = mp.quad(integrand, [0, y], error=True)
        if err > mp.mpf(1e-10) / 4 * abs(value):
            raise QuadratureFailure(f"quadrature error estimate {mp.nstr(err, 5)} above tol/4")
        return value * mp.e ** (mp.pi * mp.sqrt(N) / 2)


def i1_main_terms_bessel(r: int, N: int) -> mp.mpf:
    """The same integral after v = 1 - i u: an exact combination of
    P-segments, c~_r N^{r/2-3/4} P_{-r+1/2} + d~_r N^{r/2-5/4} P_{-r+3/2},
    with c~_r = c_r pi^{-r+1} 2^{r-5/2} and d~_r = d_r pi^{-r+2} 2^{r-7/2}.
    P_s differs from the Bessel function by an exponentially small amount."""
    wp = working_precision(N)
    c, d = pole_coefficients("crank", r, 2, wp)
    with mp.workprec(wp):
        nv = mp.mpf(N)
        c_tilde = c * mp.pi ** (-r + 1) * mp.mpf(2) ** (r - mp.mpf(5) / 2)
        d_tilde = d * mp.pi ** (-r + 2) * mp.mpf(2) ** (r - mp.mpf(7) / 2)
        lead = c_tilde * nv ** (mp.mpf(r) / 2 - mp.mpf(3) / 4) * p_segment(mp.mpf(1) / 2 - r, N)
        sub = d_tilde * nv ** (mp.mpf(r) / 2 - mp.mpf(5) / 4) * p_segment(mp.mpf(3) / 2 - r, N)
        return lead + sub
