"""Exact q-expansions of the moment generating series.

One production loop, behind `numerator`, serves every statistic and every
weight.  A statistic's Lambert part has the z^m coefficient (m >= 1) that
the `series.KINDS` comment gives, so for any weight w with w(0) := 0 the sum
over m telescopes (each term keeps the row's divisor and factor):

  sum_{m>=1} w(m) [z^m] = sum_{n>=1} (-1)^{n+1} q^{E(n)} sum_{m>=1} (w(m) - w(m-1)) q^{nm}

With w(m) = binom(m+s, r), order r >= 0 and binomial shift s, this is the
symmetrized series of order r, (-q)oo/(q)oo sum_{n>=1} (-1)^{n+1}
q^{E(n)+(r-s)n} / (1-q^n)^r, and with w(m) = m^r it is the positive power
moment.  The standard symmetrized series use s = floor((r-1)/2).  The
prefactor (-q)oo/(q)oo is 1/theta_4(q), so each series is its Lambert sum
divided by theta_4.  The paper's three exact series are named by flavor,
as `converge` names them: "symmetrized" (binomial weight, any shift),
"moment" (m^r) and "difference" (ospt, the crank sum minus the rank sum
before the one division).  ospt_2(n) counts smallest parts, summed over the
overpartitions of n whose smallest part is not overlined, so ospt_2(n) >= 1
for every n >= 1 (the one-part overpartition (n)).  `weight` is a flavor's
w(m) and its one order and shift rule, read by `numerator` and the
enumeration sums in `moments` alike; `numerator` builds the Lambert sum of a
flavor, and `moment_series`, its quotient by theta_4
(`series.divide_by_theta4`), is the one entry point to every exact moment
series.

Every identity here is cross-checked against enumeration in the test suite;
the shift parameter exists because two widely quoted sample expansions
correspond to different shifts:

  2q^3 + 8q^4 + 24q^5 + 60q^6 + 134q^7 + ...   rank, r=3, s=1 (standard)
  q^2 + 6q^3 + 22q^4 + 63q^5 + 159q^6 + 358q^7 ...  crank, r=4, s=2 (= floor(r/2))

The second list is *not* the standard-shift crank series of order 4 (that
one starts q^3 + 6q^4 + 22q^5 + 64q^6); only shift 2 reproduces it.

The two-variable series are the validation path: the crank one is
(q^2;q^2)oo / ((zq)oo (z^{-1}q)oo) and the rank one is
sum_{n>=0} (-1)_n q^{n(n+1)/2} / ((zq)_n (z^{-1}q)_n).  Their coefficient
of z^m q^n is the count M(m, n) or N(m, n), so each is expanded straight
into a `series.StatTable`, one {m: count} column per power of q (the
z-degree is bounded by n, so no z-truncation policy is needed).
"""

from __future__ import annotations

from functools import partial
from itertools import count
from math import comb
from operator import add, sub
from typing import Callable, Literal, get_args

from .series import (
    KINDS,
    TWO_VARIABLE_TRUNC_CAP,
    StatTable,
    check_kind,
    check_order,
    check_size,
    check_trunc,
    divide_by_theta4,
    euler_product,
)

__all__ = [
    "check_flavor",
    "standard_shift",
    "weight",
    "numerator",
    "moment_series",
    "crank_two_variable",
    "rank_two_variable",
]

Flavor = Literal["moment", "difference", "symmetrized"]


def check_flavor(flavor: str) -> None:
    """Refuse a flavor that `Flavor` does not name with ValueError.  The one
    flavor rule; every entry point that takes a flavor calls it first."""
    if flavor not in get_args(Flavor):
        raise ValueError(f"unknown flavor {flavor!r}")


def standard_shift(r: int) -> int:
    """Binomial shift floor((r-1)/2) used by the symmetrized moments."""
    return (r - 1) // 2


def _steps(weight: Callable[[int], int], trunc: int) -> list[int]:
    """weight(m) - weight(m-1) for m = 1..trunc, with weight(0) := 0, at
    index m - 1: one weight call per m."""
    steps, prev = [0] * trunc, 0
    for m in range(1, trunc + 1):
        w = weight(m)
        steps[m - 1], prev = w - prev, w
    return steps


def _add_lambert(c: list[int], kind: str, steps: list[int], sign: int) -> None:
    """Add sign (+1 or -1) times the Lambert part with weight steps `steps`
    to c, in place, through q^(len(c) - 1).

    step_m goes on q^{E(n)+nm} with sign (-1)^{n+1}, E(n) by the `KINDS` row,
    whose divisor 1 + q^n is the prefix recurrence d_m = 2 step_m - d_{m-1}
    in the index m (its factor 2 folded in); it does not depend on n, so it
    runs once, in place over steps, and progression n reads the first (trunc - E(n)) // n.
    """
    a, b, delta = KINDS[kind]
    if delta:
        d = 0
        for i, step in enumerate(steps):
            steps[i] = d = 2 * step - d
    trunc = len(c) - 1
    ops = (sub, add) if sign > 0 else (add, sub)  # indexed by n % 2
    for n in count(1):
        e = (a * n + b) * n // 2
        if e + n > trunc:
            return
        # map stops at the progression's end: its first (trunc - e) // n terms
        c[e + n :: n] = map(ops[n % 2], c[e + n :: n], steps)


def weight(flavor: Flavor, r: int, shift: int | None = None) -> Callable[[int], int]:
    """w(m) of flavor's series, and the one home of each flavor's order and
    shift rule: binom(m+shift, r) for "symmetrized" (r >= 0, shift -1..r-1,
    the standard one by default), m^r for "moment" and "difference" (r >= 1,
    no shift).  Refuses bad input before any series is built."""
    check_flavor(flavor)
    if flavor != "symmetrized":
        if shift is not None:
            raise ValueError(f"shift applies to the symmetrized flavor only, not {flavor!r}")
        check_order(r, least=1)
        return lambda m: m**r
    check_order(r)
    if shift is None:
        shift = standard_shift(r)
    if not -1 <= shift <= r - 1:
        raise ValueError(f"shift {shift} outside supported range -1..{r - 1}")
    return lambda m: comb(m + shift, r)


def numerator(
    flavor: Flavor, kind: str, r: int, trunc: int, shift: int | None = None
) -> list[int]:
    """sum_{m>=1} weight(m) [z^m] of the kind's Lambert part through q^trunc
    (no prefactor, the rank's with its factor 2), whose quotient by theta_4
    is flavor's exact series; ospt's, the difference flavor, is the crank
    sum minus the rank sum, kind checked but not read.  A new list, the
    caller's to keep or to divide in place, made in one pass for every
    flavor: weight(m) once per m into one step list, then one `_add_lambert`
    per signed statistic, ospt's rank turning the steps into its own."""
    w = weight(flavor, r, shift)
    check_kind(kind)
    check_trunc(trunc)
    steps, c = _steps(w, trunc), [0] * (trunc + 1)
    signed = (("crank", 1), ("rank", -1)) if flavor == "difference" else ((kind, 1),)
    for statistic, sign in signed:
        _add_lambert(c, statistic, steps, sign)
    return c


def moment_series(
    flavor: Flavor, kind: str, r: int, trunc: int, shift: int | None = None
) -> list[int]:
    """The exact series of flavor for every N <= trunc: its `numerator`
    divided by theta_4 in place, so the series is one list from its Lambert
    sum to its quotient.  The one entry point that divides a whole moment
    series; a caller that needs a few coefficients reads them off the
    numerator with `series.theta4_quotient_at` instead."""
    return divide_by_theta4(numerator(flavor, kind, r, trunc, shift))


# read by the circle_cauchy output check of perfbench/workloads.py, which
# takes its true coefficients through these names
crank_binomial_series = partial(moment_series, "symmetrized", "crank")
rank_binomial_series = partial(moment_series, "symmetrized", "rank")


def _columns(trunc: int) -> list[dict[int, int]]:
    """trunc + 1 empty z-columns, one per power of q.  Refuses trunc above
    TWO_VARIABLE_TRUNC_CAP with OversizeRequest before allocating."""
    check_size("trunc", trunc, 0, TWO_VARIABLE_TRUNC_CAP, "two-variable series")
    return [dict() for _ in range(trunc + 1)]


def _mul_geometric(cols: list[dict[int, int]], k: int, zstep: int) -> None:
    """In-place multiply by sum_{j>=0} z^{j*zstep} q^{j*k} via the prefix
    recurrence R[n] = A[n] + z^zstep R[n-k]."""
    for n in range(k, len(cols)):
        dst = cols[n]
        for m, v in cols[n - k].items():
            key = m + zstep
            dst[key] = dst.get(key, 0) + v


def crank_two_variable(trunc: int) -> StatTable:
    """Crank table M(m, n) from the two-variable residual-crank series
    (q^2;q^2)oo / ((zq)oo (z^{-1}q)oo).

    The numerator uses (q)oo (-q)oo = (q^2;q^2)oo, so it is pentagonal-sparse.
    """
    cols = _columns(trunc)
    for col, c in zip(cols, euler_product(trunc)):
        if c:
            col[0] = c
    for k in range(1, trunc + 1):
        _mul_geometric(cols, k, +1)
        _mul_geometric(cols, k, -1)
    return StatTable(cols)


def rank_two_variable(trunc: int) -> StatTable:
    """Rank table N(m, n) from the two-variable rank series
    sum_{n>=0} T_n, T_n = (-1)_n q^{n(n+1)/2} / ((zq)_n (z^{-1}q)_n).

    Each term is the previous one times one factor, a shift and two
    geometric series, T_n = T_{n-1} (1 + q^{n-1}) q^n / ((1 - zq^n)(1 - z^{-1}q^n))
    with T_0 = 1, and the sum stops once n(n+1)/2 > trunc.
    """
    total, term = _columns(trunc), _columns(trunc)
    term[0][0] = 1
    for n in count(1):
        for dst, src in zip(total, term):
            for m, v in src.items():
                dst[m] = dst.get(m, 0) + v
        if n * (n + 1) // 2 > trunc:
            return StatTable(total)
        # times 1 + q^{n-1}, high powers first, short of the n that q^n drops
        for i in range(trunc - n, n - 2, -1):
            dst = term[i]
            for m, v in list(term[i - n + 1].items()):  # a copy: at n = 1 it is dst
                dst[m] = dst.get(m, 0) + v
        term = [{} for _ in range(n)] + term[: trunc + 1 - n]
        _mul_geometric(term, n, +1)
        _mul_geometric(term, n, -1)

