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
divided by theta_4 (`divide_by_theta4`: c(-q) divided by theta_3(q) =
theta_4(-q), whose squares all have one sign, then q -> -q back; a sparse
recurrence of sum_{n<=trunc} isqrt(n) big-int additions, most of them
summed in C a block between squares at a time) and no dense product is
ever formed.  The division works in place on the whole list it is given,
so a series is one list from its Lambert sum to its quotient.  pbar itself
is the same for every moment series, so `overpartition_gf` computes it
once per process and extends it only when a larger truncation is asked
for.  The quotient at a few indices (`theta4_quotient_at`) is never a
division: each is the dot product sum_k c[k] pbar(N-k) with that memo,
N + 1 multiply-adds.
"""

from __future__ import annotations

from itertools import islice, repeat
from math import inf, isqrt
from operator import mul
from typing import Literal, Sequence, get_args

from .errors import OutOfRange, OversizeRequest

__all__ = [
    "StatTable",
    "check_size",
    "check_trunc",
    "check_order",
    "check_kind",
    "check_indices",
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
# theta4_quotient_at's sum (N + 1) multiply-adds may match the additions of one
# theta_4 division at the cap, sum_{n<=cap} isqrt(n) ~ 2 cap^{3/2}/3, here 59 600 000;
# products cost more: the worst accepted grid, 298 points to the cap, takes 26 s
# and that division 7.6 s (symmetrized crank r = 3, 2-vCPU Xeon)
DOT_PRODUCT_CAP = 2 * EXACT_TRUNC_CAP * isqrt(EXACT_TRUNC_CAP) // 3
# the two-variable series hold about trunc^2 Laurent coefficients and their
# build time grows about as trunc^4: 0.8 s at trunc = 200 and 12 s (crank),
# 48 MB peak, at this cap on a 2-vCPU Xeon
TWO_VARIABLE_TRUNC_CAP = 400

# One row (a, b, delta) per statistic, the one home of its Lambert sum: the z^m
# coefficient (m >= 1) of its series times theta_4 is, with E(n) = (a n^2 + b n)/2,
#   2^delta sum_{n>=1} (-1)^{n+1} q^{E(n)} (q^{nm} - q^{n(m+1)}) / (1 + q^n)^delta
KINDS = {"crank": (1, -1, 0), "rank": (2, 0, 1)}  # E(n) = n(n-1)/2; n^2, over 1 + q^n, times 2
Kind = Literal[tuple(KINDS)]


def euler_product(trunc: int) -> list[int]:
    """(q^2; q^2)_infinity through q^trunc, via the pentagonal number theorem.

    Coefficients vanish except at k(3k-1) for k in Z, where they are
    (-1)^k.  O(sqrt(trunc)) nonzero terms.
    """
    c = [0] * (trunc + 1)
    for k in range(isqrt(trunc) + 1):  # past isqrt(trunc), k(3k-1) >= k^2 > trunc
        for e in (k * (3 * k - 1), k * (3 * k + 1)):
            if e <= trunc:
                c[e] = (-1) ** k
    return c


def check_size(
    name: str, value: float, least: float, cap: int | None = None, what: str = ""
) -> None:
    """The one floor-and-cap rule: ValueError when value is below least, NaN,
    +inf, or not an int where least is one (an int floor makes it a count),
    OversizeRequest above cap (a size in log space has none).  Every floor
    and cap in the package, a tolerance's too, calls it first."""
    if not least <= value < inf:  # NaN fails every comparison
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
        raise ValueError(f"{name} must be finite, got {value}")
    if isinstance(least, int) and not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value}")
    if cap is not None and value > cap:
        raise OversizeRequest(f"{what} capped at {name}={cap}, got {value}")


def check_trunc(trunc: int) -> None:
    """Refuse a truncation before anything is allocated: `check_size` at floor
    0, cap EXACT_TRUNC_CAP.  Every exact entry point calls it first."""
    check_size("trunc", trunc, 0, EXACT_TRUNC_CAP, "exact series")


def check_order(r: int, least: int = 0) -> None:
    """Refuse a moment order before any weight is built, by `check_size`: below
    least, not finite or not an int (ValueError), above EXACT_ORDER_CAP
    (OversizeRequest).  The one order rule; every order taker calls it first."""
    check_size("order r", r, least, EXACT_ORDER_CAP, "exact moments")


def check_kind(kind: str) -> None:
    """Refuse a statistic that is not a `KINDS` key with ValueError.  The one
    kind rule; every entry point that takes a kind calls it first."""
    if kind not in get_args(Kind):
        raise ValueError(f"kind must be {' or '.join(map(repr, KINDS))}")


def check_indices(indices: Sequence[int]) -> None:
    """Refuse theta4_quotient_at's indices: none, one below 0, or sum (N + 1) past the cap."""
    if not indices:
        raise ValueError("indices must be non-empty")
    check_size("N", min(indices), 0)
    check_size("sum(N + 1)", sum(indices) + len(indices), 0, DOT_PRODUCT_CAP, "theta_4 quotient")


def divide_by_theta4(coeffs: list[int]) -> list[int]:
    """Coefficients of c(q) / theta_4(q) through q^trunc, trunc =
    len(coeffs) - 1, for integer c, in place: each coefficient is replaced by
    its quotient as soon as that is known, and the same list is returned.

    theta_4(q) = theta_3(-q), so after q -> -q (the odd coefficients
    negated) the division is by theta_3 = 1 + 2 sum_{k>=1} q^{k^2}, every
    square of one sign, and q -> -q once more turns that quotient into this
    one.  theta_3 has constant term 1, so the quotient y is integral and
    follows the sparse recurrence y[n] = c[n] - 2 sum_{k>=1} y[n - k^2]:
    O(trunc^{3/2}) big-int additions.  Between consecutive squares the set
    of k with k^2 <= n is fixed, so the work goes block by block: in the
    block lo = k^2 <= n < hi, a square j^2 past isqrt(hi - 1 - lo) reads
    only y below lo, final before the block starts, so those far squares
    are summed per position in C over whole slices; only the ~sqrt(2k)
    near squares, which read inside the block, run per n in Python.  The
    quotient is the per-n recurrence's with theta_4's own signs; this form
    takes 12-23% less time at trunc = 10^4 to 5 10^4 and 15-21% less at
    10^5 to 2 10^5 (2-vCPU Xeon, python 3.11).
    """
    y = coeffs
    trunc = len(y) - 1
    check_trunc(trunc)
    y[1::2] = [-v for v in y[1::2]]
    squares = [k * k for k in range(1, isqrt(trunc) + 1)]
    for k, lo in enumerate(squares, 1):
        hi = min(lo + 2 * k + 1, trunc + 1)
        near = squares[: isqrt(hi - 1 - lo)]
        far = [y[lo - s : hi - s] for s in squares[len(near) : k]]  # none in blocks 1, 2
        for n, acc in zip(range(lo, hi), map(sum, zip(*far)) if far else repeat(0)):
            for s in near:
                acc += y[n - s]
            y[n] -= 2 * acc
    y[1::2] = [-v for v in y[1::2]]
    return y


# pbar(0..len - 1), grown and read by overpartition_gf alone
_pbar: list[int] = []


def overpartition_gf(trunc: int) -> list[int]:
    """Overpartition counting series (-q)_inf / (q)_inf = 1 / theta_4(q)
    = sum pbar(n) q^n, so pbar(n) = 2 sum_{k>=1} (-1)^{k+1} pbar(n - k^2).

    Divided out once per process, again only for a larger trunc; each call
    returns a fresh list, so no caller can change what the next one reads.
    """
    check_trunc(trunc)
    if len(_pbar) <= trunc:
        _pbar[:] = divide_by_theta4([1] + [0] * trunc)
    return _pbar[: trunc + 1]


def theta4_quotient_at(coeffs: Sequence[int], indices: Sequence[int]) -> list[int]:
    """[q^N] c(q) / theta_4(q) for each N in indices, for integer c, duplicates
    and order kept: each is the dot product sum_{k<=N} c[k] pbar(N-k) with
    the memoized pbar, N + 1 multiply-adds, and coeffs is never changed."""
    check_indices(indices)
    nmax = max(indices)
    pbar = overpartition_gf(nmax)  # one copy; each N reads pbar(N), .., pbar(0) in place
    return [sum(map(mul, coeffs, islice(reversed(pbar), nmax - N, None))) for N in indices]


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
