"""Positive moments, symmetrized moments and ospt by enumeration.

The r-th positive moment sums m^r over the positive statistic values of a
`series.StatTable`; the symmetrized variant replaces m^r by
binom(m + floor((r-1)/2), r), and ospt is the crank moment minus the rank
one.  These are the small-N oracle side: every value past enumeration
range comes from `genfunc.moment_series`, the one exact series of each
flavor, which the tests and the `oracle` and `proposition` suites check
against these sums.
"""

from __future__ import annotations

from functools import partial
from math import comb

from . import genfunc
from .errors import OutOfRange
from .series import StatTable

__all__ = ["positive_moment", "symmetrized_positive_moment", "ospt"]

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


# perfbench/workloads.py's baseline_solve reads ospt through this name
ospt_values = partial(genfunc.moment_series, "difference", "crank")
