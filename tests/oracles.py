"""Test-only oracles: independent constructions the production code is
checked against, kept out of the package because nothing in it calls them."""

from math import comb

import mpmath as mp

from overmoments.asympt import GUARD_BITS
from overmoments.series import PowerSeries, _kron_mul


def invert(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse through q^trunc by Newton iteration; integral
    since the constant term must be +1 or -1 (ValueError otherwise)."""
    if a[0] not in (1, -1):
        raise ValueError(f"constant term {a[0]} is not a unit")
    inv = [a[0]]
    known = 0  # exact through q^known
    while known < a.trunc:
        known = min(2 * known + 1, a.trunc)
        t = _kron_mul(inv, a.coeffs[: known + 1], known)
        t[0] = 2 - t[0]
        for i in range(1, known + 1):
            t[i] = -t[i]
        inv = _kron_mul(inv, t, known)
    return PowerSeries(inv)


def pochhammer_q(sign: int, trunc: int) -> PowerSeries:
    """Infinite q-Pochhammer product, truncated.

    sign=-1 gives prod_{k>=1} (1 - q^k), sign=+1 gives prod_{k>=1} (1 + q^k).
    Factors with k > trunc cannot touch coefficients <= trunc, so the product
    stops there.
    """
    c = [0] * (trunc + 1)
    c[0] = 1
    for k in range(1, trunc + 1):
        # multiply in place by (1 + sign*q^k); descending i keeps old values
        for i in range(trunc, k - 1, -1):
            c[i] += sign * c[i - k]
    return PowerSeries(c)


def lambert_term(
    n: int,
    r: int,
    exponent: int,
    trunc: int,
    alternating_factor: bool = False,
) -> PowerSeries:
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
    return PowerSeries(c)


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
    """Defining power series of I_order(x); the independent oracle for
    asympt.bessel_i."""
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
