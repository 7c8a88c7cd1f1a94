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

and with w(m) = m^r it is the positive power moment (`moments`).  The
standard symmetrized series use s = floor((r-1)/2).  The prefactor
(-q)oo/(q)oo is 1/theta_4(q), so each series is its Lambert sum divided by
theta_4 (`series.divide_by_theta4`).

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
from itertools import accumulate, count
from math import comb
from operator import add, sub
from typing import Callable

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
    "crank_binomial_series",
    "rank_binomial_series",
    "crank_two_variable",
    "rank_two_variable",
    "series_manifest",
]


def standard_shift(r: int) -> int:
    """Binomial shift floor((r-1)/2) used by the symmetrized moments."""
    return (r - 1) // 2 if r >= 1 else -1


def lambert_sum(kind: str, weight: Callable[[int], int], trunc: int) -> list[int]:
    """sum_{m>=1} weight(m) [z^m] of the crank or rank Lambert part, through
    q^trunc: no overpartition prefactor, the rank sum including its factor 2.

    weight(m) - weight(m-1), with weight(0) := 0, goes on q^{E(n)+nm} with
    sign (-1)^{n+1}, the rank's factor 2 folded into these steps; for the
    rank each n-progression is then divided by 1 + q^n through the prefix
    recurrence d_m = step_m - d_{m-1}.  weight is called once per m <= trunc.
    """
    check_trunc(trunc)
    if kind not in ("crank", "rank"):
        raise ValueError("kind must be 'crank' or 'rank'")
    scale = 1 if kind == "crank" else 2
    steps, prev = [0] * (trunc + 1), 0
    for m in range(1, trunc + 1):
        w = weight(m)
        steps[m], prev = scale * (w - prev), w
    c = [0] * (trunc + 1)
    for n in count(1):
        e = n * (n - 1) // 2 if kind == "crank" else n * n
        if e + n > trunc:
            return c
        terms = steps[1 : (trunc - e) // n + 1]
        if kind == "rank":
            terms = accumulate(terms, lambda d, step: step - d)
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


def crank_binomial_series(r: int, trunc: int, shift: int | None = None) -> list[int]:
    """Series whose q^n coefficient is sum_{m>=1} binom(m+shift, r) M(m, n),
    M counting overpartitions of n by residual crank."""
    return divide_by_theta4(lambert_sum("crank", binomial_weight(r, shift), trunc), trunc)


def rank_binomial_series(r: int, trunc: int, shift: int | None = None) -> list[int]:
    """Series whose q^n coefficient is sum_{m>=1} binom(m+shift, r) N(m, n),
    N counting overpartitions of n by rank."""
    return divide_by_theta4(lambert_sum("rank", binomial_weight(r, shift), trunc), trunc)


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
    sum_{n>=0} (-1)_n q^{n(n+1)/2} / ((zq)_n (z^{-1}q)_n).

    The n-sum is finite: n(n+1)/2 > trunc terminates it.  (-1)_n is the
    finite product prod_{j=0}^{n-1} (1 + q^j), with (-1)_0 = 1.
    """
    total = _columns(trunc)
    n = 0
    while n * (n + 1) // 2 <= trunc:
        offset = n * (n + 1) // 2
        # (-1)_n shifted by q^offset, as a plain q-series
        c = [0] * (trunc + 1)
        c[offset] = 1
        for j in range(n):  # factors (1 + q^j), j = 0..n-1
            if j == 0:
                for i in range(trunc + 1):
                    c[i] *= 2
            else:
                for i in range(trunc, j - 1, -1):
                    c[i] += c[i - j]
        term = [{0: v} if v else {} for v in c]
        # divide by (zq)_n (z^{-1}q)_n
        for j in range(1, n + 1):
            _mul_geometric(term, j, +1)
            _mul_geometric(term, j, -1)
        for dst, src in zip(total, term):
            for m, v in src.items():
                dst[m] = dst.get(m, 0) + v
        n += 1
    return StatTable(total)


def series_manifest(kind: str, r: int, trunc: int, series: list[int]) -> dict:
    """JSON-ready manifest with a checksum of the exact coefficients."""
    digest = hashlib.sha256("\n".join(str(c) for c in series).encode()).hexdigest()
    return {"kind": kind, "r": r, "trunc": trunc, "checksum": digest}
