"""Exact positive moments, symmetrized moments, and the ospt difference.

The r-th positive moment sums m^r over positive statistic values; the
symmetrized variant replaces m^r by binom(m + floor((r-1)/2), r).  Small-N
values are checked against enumeration; large-N values come from the
generating series exclusively.

Both come from the one weighted Lambert sum `genfunc.lambert_sum`: the
power moment of order r puts the integer weights m^r - (m-1)^r on its
terms, so no change of basis between the two families is needed.  Every
series is its Lambert sum (`numerator`, one per flavor) divided by
theta_4(q), the reciprocal of the prefactor (-q)oo/(q)oo; ospt takes crank
minus rank before the one division.  A caller that needs a few
coefficients only reads them off the same numerator with
`series.theta4_quotient_at`.
"""

from __future__ import annotations

from math import comb
from typing import Literal

from . import genfunc
from .errors import OutOfRange
from .series import StatTable, check_order, divide_by_theta4

__all__ = [
    "positive_moment",
    "symmetrized_positive_moment",
    "ospt",
    "symmetrized_moment_values",
    "positive_moment_values",
    "ospt_values",
    "numerator",
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


def ospt(r: int, N: int, crank_table: StatTable, rank_table: StatTable) -> int:
    """Positive crank moment minus positive rank moment at (r, N)."""
    return positive_moment(crank_table, r, N) - positive_moment(rank_table, r, N)


# ---------------------------------------------------------------------------
# Series-backed production path (the only route past enumeration range).
# ---------------------------------------------------------------------------


Flavor = Literal["moment", "difference", "symmetrized"]


def _power_sum(kind: Kind, r: int, trunc: int) -> list[int]:
    """Lambert sum weighted by m^r, r >= 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    check_order(r)
    return genfunc.lambert_sum(kind, lambda m: m**r, trunc)


def numerator(flavor: Flavor, kind: Kind, r: int, trunc: int) -> list[int]:
    """The Lambert sum c through q^trunc whose quotient c / theta_4 is the
    exact series of flavor: the symmetrized moments (binomial weight), the
    positive power moments (m^r), or ospt (crank minus rank m^r, kind
    ignored), as `converge` names them."""
    if flavor == "symmetrized":
        return genfunc.lambert_sum(kind, genfunc.binomial_weight(r), trunc)
    if flavor == "moment":
        return _power_sum(kind, r, trunc)
    if flavor == "difference":
        diff = _power_sum("crank", r, trunc)
        for n, v in enumerate(_power_sum("rank", r, trunc)):
            diff[n] -= v
        return diff
    raise ValueError(f"unknown flavor {flavor!r}")


def symmetrized_moment_values(kind: Kind, r: int, trunc: int) -> list[int]:
    """Symmetrized positive moments of order r >= 0 for all N <= trunc, from
    the q-series."""
    return divide_by_theta4(numerator("symmetrized", kind, r, trunc), trunc)


def positive_moment_values(kind: Kind, r: int, trunc: int) -> list[int]:
    """Positive power moments for all N <= trunc, from the q-series."""
    return divide_by_theta4(numerator("moment", kind, r, trunc), trunc)


def ospt_values(r: int, trunc: int) -> list[int]:
    """ospt_r(N) = crank minus rank positive moment, for all N <= trunc."""
    return divide_by_theta4(numerator("difference", "crank", r, trunc), trunc)
