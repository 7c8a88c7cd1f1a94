"""Positive moments, symmetrized moments and ospt by enumeration.

Each sums the weight of its flavor, `genfunc.weight`, over the positive
statistic values of a `series.StatTable`: m^r for the r-th positive moment,
binom(m + floor((r-1)/2), r) for the symmetrized one, and ospt is the crank
moment minus the rank one.  These are the small-N oracle side: every value
past enumeration range comes from `genfunc.moment_series`, the one exact
series of each flavor, which reads the same weight and which the tests and
the `oracle` and `proposition` suites check against these sums.
"""

from __future__ import annotations

from typing import Callable

from . import genfunc
from .series import StatTable

__all__ = ["positive_moment", "symmetrized_positive_moment", "ospt"]


def _weighted_sum(weight: Callable[[int], int], table: StatTable, N: int) -> int:
    return sum(weight(m) * v for m, v in table.column(N).items() if m >= 1)


def positive_moment(table: StatTable, r: int, N: int) -> int:
    """sum_{m>=1} m^r T(m, N) for r >= 1."""
    return _weighted_sum(genfunc.weight("moment", r), table, N)


def symmetrized_positive_moment(
    table: StatTable, r: int, N: int, shift: int | None = None
) -> int:
    """sum_{m>=1} binom(m+shift, r) T(m, N) for r >= 0: shift defaults to
    floor((r-1)/2), which is -1 at r = 0, and one outside -1..r-1 is
    refused."""
    return _weighted_sum(genfunc.weight("symmetrized", r, shift), table, N)


def ospt(r: int, N: int, crank_table: StatTable, rank_table: StatTable) -> int:
    """Positive crank moment minus positive rank moment at (r, N)."""
    weight = genfunc.weight("difference", r)
    return _weighted_sum(weight, crank_table, N) - _weighted_sum(weight, rank_table, N)
