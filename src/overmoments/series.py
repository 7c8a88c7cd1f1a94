"""Dense truncated power series in q with exact integer coefficients.

A series is exact through q^trunc and carries nothing beyond, so a
coefficient you can read is always the true coefficient.  Coefficients are
Python ints, hence arbitrary precision from the start (overpartition counts
pass 2^63 near n = 160).

Every exact moment series is a Lambert sum times the overpartition
prefactor (-q)oo/(q)oo, which equals 1/theta_4(q).  theta_4 has only
sqrt(trunc) nonzero coefficients, so the prefactor is applied by dividing
by theta_4 (`divide_by_theta4`, a sparse recurrence) and no dense product
is ever formed.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence

from .errors import OversizeRequest

__all__ = [
    "PowerSeries",
    "check_trunc",
    "check_order",
    "divide_by_theta4",
    "overpartition_gf",
    "euler_product",
]

# pbar(n) has about pi sqrt(n) / ln 2 bits, so the table alone holds about
# 2 pi trunc^{3/2} / (3 ln 2) bits: 34 MB at the cap, 12 GB at trunc = 10^7
EXACT_TRUNC_CAP = 200_000
# a weight m^r has r log2(m) bits: 0.6 KB at this cap and m = EXACT_TRUNC_CAP,
# but 415 MB for m = 10 at r = 10^9
EXACT_ORDER_CAP = 256
# the two-variable series hold about trunc^2 Laurent coefficients and their
# build time grows about as trunc^4: 0.8 s at trunc = 200 and 12 s (crank),
# 48 MB peak, at this cap on a 2-vCPU Xeon
TWO_VARIABLE_TRUNC_CAP = 400


class PowerSeries:
    """Immutable dense power series, exact through q^trunc."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self._coeffs = tuple(coeffs)
        if not self._coeffs:
            raise ValueError("a series needs at least its constant coefficient")

    # -- basic protocol ---------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __getitem__(self, n: int) -> int:
        return self._coeffs[n]

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if len(self._coeffs) > 8 else ""
        return f"PowerSeries([{head}{tail}], trunc={self.trunc})"


def euler_product(trunc: int, step: int = 1) -> PowerSeries:
    """(q^step; q^step)_infinity via the pentagonal number theorem.

    Coefficients vanish except at step * k(3k-1)/2 for k in Z, where they
    are (-1)^k.  O(sqrt(trunc)) nonzero terms.
    """
    c = [0] * (trunc + 1)
    c[0] = 1
    k = 1
    while True:
        placed = False
        for e in (step * k * (3 * k - 1) // 2, step * k * (3 * k + 1) // 2):
            if e <= trunc:
                c[e] = (-1) ** k
                placed = True
        if not placed:
            break
        k += 1
    return PowerSeries(c)


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


def overpartition_gf(trunc: int) -> PowerSeries:
    """Overpartition counting series (-q)_inf / (q)_inf = 1 / theta_4(q)
    = sum pbar(n) q^n, so pbar(n) = 2 sum_{k>=1} (-1)^{k+1} pbar(n - k^2)."""
    return PowerSeries(divide_by_theta4([1], trunc))
