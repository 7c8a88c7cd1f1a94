"""Exact q-expansions of the moment generating series.

One production loop, `lambert_sum`, serves both statistics and every
weight.  The z^m coefficient (m >= 1) of the Lambert part of the crank
series is sum_{n>=1} (-1)^{n+1} q^{E(n)} (q^{nm} - q^{n(m+1)}) with
E(n) = n(n-1)/2; the rank one has E(n) = n^2, an extra 1/(1+q^n) and a
factor 2.  So for any weight w with w(0) := 0 the sum over m telescopes:

  sum_{m>=1} w(m) [z^m] = sum_{n>=1} (-1)^{n+1} q^{E(n)} sum_{m>=1} (w(m) - w(m-1)) q^{nm}

With w(m) = binom(m+s, r), order r >= 0 and binomial shift s, this is the
symmetrized series of order r:

  crank:  (-q)oo/(q)oo * sum_{n>=1} (-1)^{n+1} q^{(n^2+(2(r-s)-1)n)/2} / (1-q^n)^r
  rank: 2*(-q)oo/(q)oo * sum_{n>=1} (-1)^{n+1} q^{n^2+(r-s)n} / ((1+q^n)(1-q^n)^r)

and with w(m) = m^r it is the positive power moment.  The standard
symmetrized series use s = floor((r-1)/2).  The prefactor (-q)oo/(q)oo is
1/theta_4(q), so each series is its Lambert sum divided by theta_4.  The
paper's three exact series are named by flavor, as `converge` names them:
"symmetrized" (binomial weight, any shift), "moment" (m^r) and "difference"
(ospt, the crank sum minus the rank sum before the one division).
`numerator` builds the Lambert sum of a flavor, and `moment_series`, its
quotient by theta_4 (`series.divide_by_theta4`), is the one entry point to
every exact moment series.

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

import hashlib
from functools import partial
from itertools import accumulate, count
from math import comb
from operator import add, sub
from typing import Callable, Literal

from .errors import OversizeRequest
from .series import (
    TWO_VARIABLE_TRUNC_CAP,
    StatTable,
    check_order,
    check_trunc,
    divide_by_theta4,
    euler_product,
)

__all__ = [
    "standard_shift",
    "lambert_sum",
    "binomial_weight",
    "numerator",
    "moment_series",
    "crank_two_variable",
    "rank_two_variable",
    "series_manifest",
]

Flavor = Literal["moment", "difference", "symmetrized"]


def standard_shift(r: int) -> int:
    """Binomial shift floor((r-1)/2) used by the symmetrized moments."""
    return (r - 1) // 2 if r >= 1 else -1


def lambert_sum(kind: str, weight: Callable[[int], int], trunc: int) -> list[int]:
    """sum_{m>=1} weight(m) [z^m] of the crank or rank Lambert part, through
    q^trunc: no overpartition prefactor, the rank sum including its factor 2.

    weight(m) - weight(m-1), with weight(0) := 0, goes on q^{E(n)+nm} with
    sign (-1)^{n+1}, the rank's factor 2 folded into these steps.  For the
    rank each n-progression is divided by 1 + q^n, which in the index m is
    the prefix recurrence d_m = step_m - d_{m-1}; it does not depend on n,
    so it runs once, and progression n reads the first (trunc - E(n)) // n
    of the d_m.  weight is called once per m <= trunc.
    """
    check_trunc(trunc)
    if kind not in ("crank", "rank"):
        raise ValueError("kind must be 'crank' or 'rank'")
    scale = 1 if kind == "crank" else 2
    terms, prev = [0] * trunc, 0  # terms[m - 1] = step_m, or d_m for the rank
    for m in range(1, trunc + 1):
        w = weight(m)
        terms[m - 1], prev = scale * (w - prev), w
    if kind == "rank":
        terms = list(accumulate(terms, lambda d, step: step - d))
    c = [0] * (trunc + 1)
    for n in count(1):
        e = n * (n - 1) // 2 if kind == "crank" else n * n
        if e + n > trunc:
            return c
        # map stops at the progression's end: its first (trunc - e) // n terms
        c[e + n :: n] = map(add if n % 2 else sub, c[e + n :: n], terms)


def binomial_weight(r: int, shift: int | None = None) -> Callable[[int], int]:
    """Weight binom(m+shift, r) of the symmetrized series, shift defaulting
    to the standard one; refuses r < 0, r > EXACT_ORDER_CAP and a shift
    outside -1..r-1 before any series is built."""
    if shift is None:
        shift = standard_shift(r)
    if r < 0:
        raise ValueError("order r must be >= 0")
    check_order(r)
    if not -1 <= shift <= max(r - 1, -1):
        raise ValueError(f"shift {shift} outside supported range -1..{r - 1}")
    return lambda m: comb(m + shift, r)


def _power_weight(r: int) -> Callable[[int], int]:
    """Weight m^r of the positive power moments; refuses r < 1 and
    r > EXACT_ORDER_CAP before any series is built."""
    if r < 1:
        raise ValueError("r must be >= 1")
    check_order(r)
    return lambda m: m**r


def numerator(
    flavor: Flavor, kind: str, r: int, trunc: int, shift: int | None = None
) -> list[int]:
    """The Lambert sum c through q^trunc whose quotient c / theta_4 is the
    exact series of flavor, as `converge` names them: the symmetrized
    moments (binom(m+shift, r), shift defaulting to the standard one), the
    positive power moments (m^r), or ospt (crank minus rank m^r, kind
    ignored).  Only the symmetrized flavor takes a shift."""
    if shift is not None and flavor != "symmetrized":
        raise ValueError(f"shift applies to the symmetrized flavor only, not {flavor!r}")
    if flavor == "symmetrized":
        return lambert_sum(kind, binomial_weight(r, shift), trunc)
    if flavor == "moment":
        return lambert_sum(kind, _power_weight(r), trunc)
    if flavor == "difference":
        weight = _power_weight(r)
        crank, rank = (lambert_sum(k, weight, trunc) for k in ("crank", "rank"))
        return list(map(sub, crank, rank))
    raise ValueError(f"unknown flavor {flavor!r}")


def moment_series(
    flavor: Flavor, kind: str, r: int, trunc: int, shift: int | None = None
) -> list[int]:
    """The exact series of flavor for every N <= trunc: its `numerator`
    divided by theta_4.  The one entry point that divides a whole moment
    series; a caller that needs a few coefficients reads them off the
    numerator with `series.theta4_quotient_at` instead."""
    return divide_by_theta4(numerator(flavor, kind, r, trunc, shift), trunc)


# read by the circle_cauchy output check of perfbench/workloads.py, which
# takes its true coefficients through these names
crank_binomial_series = partial(moment_series, "symmetrized", "crank")
rank_binomial_series = partial(moment_series, "symmetrized", "rank")


def _columns(trunc: int) -> list[dict[int, int]]:
    """trunc + 1 empty z-columns, one per power of q.  Refuses trunc above
    TWO_VARIABLE_TRUNC_CAP with OversizeRequest before allocating."""
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    if trunc > TWO_VARIABLE_TRUNC_CAP:
        raise OversizeRequest(
            f"two-variable series capped at trunc={TWO_VARIABLE_TRUNC_CAP}, got {trunc}"
        )
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


def series_manifest(kind: str, r: int, trunc: int, series: list[int]) -> dict:
    """JSON-ready manifest with a checksum of the exact coefficients."""
    digest = hashlib.sha256("\n".join(str(c) for c in series).encode()).hexdigest()
    return {"kind": kind, "r": r, "trunc": trunc, "checksum": digest}
