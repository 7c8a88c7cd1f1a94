"""The exact formats: q-series as coefficient lists, and statistic tables.

A one-variable series is a plain list[int] of length trunc + 1, exact
through q^trunc and carrying nothing beyond, so a coefficient you can read
is always the true coefficient.  Coefficients are Python ints, hence
arbitrary precision from the start (overpartition counts pass 2^63 near
n = 160).  A two-variable table M(m, n) or N(m, n) is a `StatTable`, one
{m: count} column per n.

Every exact moment series is a Lambert sum c times the overpartition
prefactor (-q)oo/(q)oo, which equals 1/theta_4(q) = sum pbar(n) q^n.
theta_4 has only sqrt(trunc) nonzero coefficients, so a whole series is
divided by theta_4 (`divide_by_theta4`, a sparse recurrence of
sum_{n<=trunc} isqrt(n) big-int additions) and no dense product is ever
formed.  pbar itself is the same for every moment series, so
`overpartition_gf` computes it once per process and extends it only when a
larger truncation is asked for; a caller that needs the quotient at a few
indices only (`theta4_quotient_at`) reads each as the dot product
sum_k c[k] pbar(N-k), N + 1 multiply-adds, and falls back to the division
when those outnumber its additions.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt
from operator import mul
from typing import Sequence

from .errors import OutOfRange, OversizeRequest

__all__ = [
    "StatTable",
    "check_trunc",
    "check_order",
    "divide_by_theta4",
    "theta4_quotient_at",
    "overpartition_gf",
    "euler_product",
]

# pbar(n) has about pi sqrt(n) / ln 2 bits, so the table alone holds about
# 2 pi trunc^{3/2} / (3 ln 2) bits: 34 MB at the cap, 12 GB at trunc = 10^7.
# overpartition_gf keeps the largest table asked for resident for the life of
# the process: about 0.9 MB at trunc = 10^4 and 34 MB at the cap
EXACT_TRUNC_CAP = 200_000
# a weight m^r has r log2(m) bits: 0.6 KB at this cap and m = EXACT_TRUNC_CAP,
# but 415 MB for m = 10 at r = 10^9
EXACT_ORDER_CAP = 256
# the two-variable series hold about trunc^2 Laurent coefficients and their
# build time grows about as trunc^4: 0.8 s at trunc = 200 and 12 s (crank),
# 48 MB peak, at this cap on a 2-vCPU Xeon
TWO_VARIABLE_TRUNC_CAP = 400


def euler_product(trunc: int) -> list[int]:
    """(q^2; q^2)_infinity through q^trunc, via the pentagonal number theorem.

    Coefficients vanish except at k(3k-1) for k in Z, where they are
    (-1)^k.  O(sqrt(trunc)) nonzero terms.
    """
    c = [0] * (trunc + 1)
    c[0] = 1
    k = 1
    while True:
        placed = False
        for e in (k * (3 * k - 1), k * (3 * k + 1)):
            if e <= trunc:
                c[e] = (-1) ** k
                placed = True
        if not placed:
            break
        k += 1
    return c


def check_trunc(trunc: int) -> None:
    """Refuse a truncation before anything is allocated: ValueError below 0,
    OversizeRequest above EXACT_TRUNC_CAP.  Every exact entry point calls it
    first."""
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    if trunc > EXACT_TRUNC_CAP:
        raise OversizeRequest(f"exact series capped at trunc={EXACT_TRUNC_CAP}, got {trunc}")


def check_order(r: int) -> None:
    """Refuse a moment order above EXACT_ORDER_CAP with OversizeRequest,
    before any weight is built."""
    if r > EXACT_ORDER_CAP:
        raise OversizeRequest(f"exact moments capped at order r={EXACT_ORDER_CAP}, got {r}")


def divide_by_theta4(coeffs: Sequence[int], trunc: int) -> list[int]:
    """Coefficients of c(q) / theta_4(q) through q^trunc, for integer c.

    theta_4 = 1 + 2 sum_{k>=1} (-1)^k q^{k^2} has constant term 1, so the
    quotient y is integral and follows the sparse recurrence
    y[n] = c[n] + 2 (sum_{k odd} y[n - k^2] - sum_{k even} y[n - k^2]):
    O(trunc^{3/2}) big-int additions.  Between consecutive squares the set
    of k with k^2 <= n is fixed, so the odd and even square lists are cut
    once per block instead of tested per step.
    """
    check_trunc(trunc)
    y = list(coeffs[: trunc + 1]) + [0] * (trunc + 1 - len(coeffs))
    root = isqrt(trunc)
    odd = [k * k for k in range(1, root + 1, 2)]
    even = [k * k for k in range(2, root + 1, 2)]
    for k in range(1, root + 1):
        odd_k, even_k = odd[: (k + 1) // 2], even[: k // 2]
        for n in range(k * k, min((k + 1) ** 2, trunc + 1)):
            acc = 0
            for s in odd_k:
                acc += y[n - s]
            for s in even_k:
                acc -= y[n - s]
            y[n] += 2 * acc
    return y


# pbar(0..len - 1), grown by overpartition_gf and read by theta4_quotient_at
_pbar: list[int] = []


def overpartition_gf(trunc: int) -> list[int]:
    """Overpartition counting series (-q)_inf / (q)_inf = 1 / theta_4(q)
    = sum pbar(n) q^n, so pbar(n) = 2 sum_{k>=1} (-1)^{k+1} pbar(n - k^2).

    Divided out once per process, again only for a larger trunc; each call
    returns a fresh list, so no caller can change what the next one reads.
    """
    check_trunc(trunc)
    if len(_pbar) <= trunc:
        _pbar[:] = divide_by_theta4([1], trunc)
    return _pbar[: trunc + 1]


def theta4_quotient_at(coeffs: Sequence[int], indices: Sequence[int]) -> list[int]:
    """[q^N] c(q) / theta_4(q) for each N in indices, for integer c: equal to
    divide_by_theta4(coeffs, max(indices))[N], duplicates and order kept.

    Each is the dot product sum_{k<=N} c[k] pbar(N-k) with the memoized
    pbar, N + 1 multiply-adds, unless their total over indices passes the
    sum_{n<=nmax} isqrt(n) additions of one division through nmax =
    max(indices), which is then made instead.
    """
    if min(indices) < 0:
        raise ValueError("indices must be >= 0")
    nmax = max(indices)
    check_trunc(nmax)
    root = isqrt(nmax)
    division = sum(k * (min((k + 1) ** 2, nmax + 1) - k * k) for k in range(1, root + 1))
    if sum(indices) + len(indices) > division:
        quotient = divide_by_theta4(coeffs, nmax)
        return [quotient[N] for N in indices]
    overpartition_gf(nmax)
    top = len(_pbar) - 1  # pbar(N), pbar(N-1), .., pbar(0) without a copy
    return [sum(map(mul, coeffs, islice(reversed(_pbar), top - N, None))) for N in indices]


class StatTable:
    """Weighted counts T(m, n) of the rank or the residual crank over the
    overpartitions of each n <= nmax, with |m| <= n.

    Enumeration (`combinat.build_table`) and the two-variable series
    (`genfunc.crank_two_variable`, `rank_two_variable`) both build one from
    their {m: count} columns, one per n.  The table drops the zero counts
    and is frozen from then on: it has no mutator, and `column` returns a
    copy.
    """

    def __init__(self, cols: list[dict[int, int]]):
        self.nmax = len(cols) - 1
        self._cols = [{m: v for m, v in col.items() if v} for col in cols]

    def column(self, n: int) -> dict[int, int]:
        if not 0 <= n <= self.nmax:
            raise OutOfRange(f"n={n} outside table range 0..{self.nmax}")
        return dict(self._cols[n])

    def column_sum(self, n: int) -> int:
        return sum(self.column(n).values())

    def is_symmetric(self) -> bool:
        return all(
            col.get(m, 0) == col.get(-m, 0) for col in self._cols for m in col
        )
