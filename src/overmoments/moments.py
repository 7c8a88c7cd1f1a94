"""Exact positive moments, symmetrized moments, and the ospt difference.

The r-th positive moment sums m^r over positive statistic values; the
symmetrized variant replaces m^r by binom(m + floor((r-1)/2), r).  The two
are linked by the polynomial identity

    m^r = r! B_r(m) + sum_{l<r} a_l B_l(m),    B_l(m) = binom(m + floor((l-1)/2), l),

whose coefficients a_l come from an exact rational triangular solve (the
B_l have degree l and leading coefficient 1/l!, so the system is triangular
and the a_l unique).  Small-N values are checked against enumeration;
large-N values come from the generating series exclusively.

Every symmetrized series is a Lambert sum divided by theta_4(q), the
reciprocal of the prefactor (-q)oo/(q)oo, so the power moments are
computed fused: with D the least common denominator of the a_l, the
integer weights D r! and D a_l combine the Lambert sums (crank minus rank
for ospt) as plain integers, every coefficient is divided exactly by D,
and one division by theta_4 follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Literal

from . import genfunc
from .combinat import StatTable
from .errors import OutOfRange
from .series import check_trunc, divide_by_theta4

__all__ = [
    "positive_moment",
    "symmetrized_positive_moment",
    "BasisChange",
    "basis_change",
    "ospt",
    "symmetrized_moment_values",
    "positive_moment_values",
    "ospt_values",
]

Kind = Literal["rank", "crank"]


def _check_args(table: StatTable, r: int, N: int, least: int = 1) -> None:
    if r < least:
        raise OutOfRange(f"moment order r={r} must be >= {least}")
    if not 0 <= N <= table.nmax:
        raise OutOfRange(f"N={N} outside table range 0..{table.nmax}")


def positive_moment(table: StatTable, r: int, N: int) -> int:
    """sum_{m>=1} m^r T(m, N)."""
    _check_args(table, r, N)
    return sum(m**r * v for m, v in table.column(N).items() if m >= 1)


def symmetrized_positive_moment(
    table: StatTable, r: int, N: int, shift: int | None = None
) -> int:
    """sum_{m>=1} binom(m+shift, r) T(m, N) for r >= 0; shift defaults to
    floor((r-1)/2), which is -1 at r = 0."""
    _check_args(table, r, N, least=0)
    if shift is None:
        shift = genfunc.standard_shift(r)
    return sum(
        comb(m + shift, r) * v
        for m, v in table.column(N).items()
        if m >= 1 and m + shift >= r
    )


def _basis_polynomial(l: int) -> list[Fraction]:
    """Coefficients (ascending in m) of B_l(m) = binom(m + floor((l-1)/2), l)."""
    s = genfunc.standard_shift(l)
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
        rhs = factorial(self.r) * Fraction(
            comb(m + genfunc.standard_shift(self.r), self.r)
        )
        for l in range(self.r):
            if self.a[l]:
                rhs += self.a[l] * comb(m + genfunc.standard_shift(l), l)
        return lhs == rhs


def basis_change(r: int) -> BasisChange:
    """Solve the triangular system expressing m^r in the basis {B_l}_{l<=r}."""
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


def ospt(r: int, N: int, crank_table: StatTable, rank_table: StatTable) -> int:
    """Positive crank moment minus positive rank moment at (r, N)."""
    return positive_moment(crank_table, r, N) - positive_moment(rank_table, r, N)


# ---------------------------------------------------------------------------
# Series-backed production path (the only route past enumeration range).
# ---------------------------------------------------------------------------


def symmetrized_moment_values(kind: Kind, r: int, trunc: int) -> list[int]:
    """Symmetrized positive moments for all N <= trunc, from the q-series."""
    if kind == "crank":
        return list(genfunc.crank_binomial_series(r, trunc).coeffs)
    if kind == "rank":
        return list(genfunc.rank_binomial_series(r, trunc).coeffs)
    raise ValueError("kind must be 'rank' or 'crank'")


def _fused_values(r: int, trunc: int, lamberts: dict) -> list[int]:
    """Coefficients of sum_l a_l sum_f sign_f f(l) / theta_4, with a_r = r!.

    `lamberts` maps each Lambert-sum function f to its sign.  The weights a_l
    are scaled by their common denominator D, the Lambert sums are combined
    as integers and divided back by D, and the quotient is divided by
    theta_4.  theta_4 is a unit with an integral inverse, so D divides the
    combination exactly when it divides the final series; a nonzero
    remainder means the basis change is wrong and raises.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    check_trunc(trunc)
    weights = (*basis_change(r).a, Fraction(factorial(r)))
    D = lcm(*(w.denominator for w in weights))
    total = [0] * (trunc + 1)
    for l, w in enumerate(weights):
        if not w:
            continue
        for lambert, sign in lamberts.items():
            weight = sign * int(w * D)
            for n, c in enumerate(lambert(l, trunc).coeffs):
                total[n] += weight * c
    for n, c in enumerate(total):
        total[n], rest = divmod(c, D)
        if rest:
            raise ArithmeticError(f"coefficient of q^{n} is not divisible by {D}")
    return divide_by_theta4(total, trunc)


def positive_moment_values(kind: Kind, r: int, trunc: int) -> list[int]:
    """Positive power moments for all N <= trunc via the fused basis change."""
    if kind == "crank":
        return _fused_values(r, trunc, {genfunc.crank_lambert_sum: 1})
    if kind == "rank":
        return _fused_values(r, trunc, {genfunc.rank_lambert_sum: 1})
    raise ValueError("kind must be 'rank' or 'crank'")


def ospt_values(r: int, trunc: int) -> list[int]:
    """ospt_r(N) = crank minus rank positive moment, for all N <= trunc."""
    return _fused_values(
        r, trunc, {genfunc.crank_lambert_sum: 1, genfunc.rank_lambert_sum: -1}
    )
