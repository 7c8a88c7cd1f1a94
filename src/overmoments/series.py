"""Dense truncated power series in q with exact integer coefficients.

A series is exact through q^trunc and carries nothing beyond: every
arithmetic operation truncates eagerly to the shorter operand, so a
coefficient you can read is always the true coefficient.  Coefficients are
Python ints, hence arbitrary precision from the start (overpartition counts
pass 2^63 near n = 160).

Multiplication packs signed coefficients into a single big integer
(Kronecker substitution), so each product is one multiply on CPython's
native big ints instead of an O(n^2) Python loop.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import OversizeRequest

__all__ = ["PowerSeries", "overpartition_gf", "euler_product"]

# pbar(n) has about pi sqrt(n) / ln 2 bits, so the table alone holds about
# 2 pi trunc^{3/2} / (3 ln 2) bits: 34 MB at the cap, 12 GB at trunc = 10^7
EXACT_TRUNC_CAP = 200_000


def _kron_mul(a: Sequence[int], b: Sequence[int], trunc: int) -> list[int]:
    """Product of integer coefficient lists, truncated at `trunc`.

    One signed big-int multiply (Kronecker substitution): each operand packs
    as sum_i a_i 2^(w i) with signed a_i, so the product packs the signed
    convolution coefficients c_k.  The slot width w is sized so that
    |c_k| < 2^(w-1); adding 2^(w-1) to every slot of the low trunc+1 slots
    makes each one a digit in [0, 2^w) with no borrow between neighbours,
    and unpacking subtracts that bias again.
    """
    a = a[: trunc + 1]
    b = b[: trunc + 1]
    maxa = max(map(abs, a), default=0)
    maxb = max(map(abs, b), default=0)
    slots = trunc + 1
    if maxa == 0 or maxb == 0:
        return [0] * slots
    # one spare bit for the sign, rounded up to whole bytes
    wbytes = (maxa * maxb * min(len(a), len(b))).bit_length() // 8 + 1
    half = 1 << (8 * wbytes - 1)
    half_slot = half.to_bytes(wbytes, "little")

    def bias(n: int) -> int:
        return int.from_bytes(half_slot * n, "little")

    def pack(coeffs: Sequence[int]) -> int:
        # |c| <= max(maxa, maxb) < half, so every biased slot is a digit
        data = b"".join((c + half).to_bytes(wbytes, "little") for c in coeffs)
        return int.from_bytes(data, "little") - bias(len(coeffs))

    biased = (pack(a) * pack(b) + bias(slots)) & ((1 << (8 * wbytes * slots)) - 1)
    data = biased.to_bytes(wbytes * slots, "little")
    return [
        int.from_bytes(data[i * wbytes : (i + 1) * wbytes], "little") - half
        for i in range(slots)
    ]


class PowerSeries:
    """Immutable dense power series, exact through q^trunc."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int], trunc: int | None = None):
        c = list(coeffs)
        if trunc is not None:
            if trunc < 0:
                raise ValueError("trunc must be >= 0")
            c = c[: trunc + 1] + [0] * (trunc + 1 - len(c))
        elif not c:
            raise ValueError("empty coefficient list needs an explicit trunc")
        self._coeffs = tuple(c)

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

    # -- ring operations (result trunc = min of operand truncs) -----------

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        t = min(self.trunc, other.trunc)
        return PowerSeries([self[i] + other[i] for i in range(t + 1)])

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        t = min(self.trunc, other.trunc)
        return PowerSeries([self[i] - other[i] for i in range(t + 1)])

    def __neg__(self) -> "PowerSeries":
        return PowerSeries([-c for c in self._coeffs])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        t = min(self.trunc, other.trunc)
        return PowerSeries(_kron_mul(self._coeffs, other._coeffs, t))

    def scale(self, k: int) -> "PowerSeries":
        return PowerSeries([k * c for c in self._coeffs])

    # -- convenience -------------------------------------------------------

    @staticmethod
    def one(trunc: int) -> "PowerSeries":
        return PowerSeries([1], trunc)

    @staticmethod
    def zero(trunc: int) -> "PowerSeries":
        return PowerSeries([0], trunc)


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


def overpartition_gf(trunc: int) -> PowerSeries:
    """Overpartition counting series (-q)_inf / (q)_inf = sum pbar(n) q^n.

    Built from the sparse theta relation pbar * (1 + 2 sum_k (-1)^k q^{k^2}) = 1,
    i.e. pbar(n) = 2 sum_{k>=1} (-1)^{k+1} pbar(n - k^2), which costs
    O(trunc^{3/2}) big-int additions instead of a full series inversion.
    Every exact moment path starts here, so a trunc above EXACT_TRUNC_CAP
    raises OversizeRequest before anything is allocated.
    """
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    if trunc > EXACT_TRUNC_CAP:
        raise OversizeRequest(f"exact series capped at trunc={EXACT_TRUNC_CAP}, got {trunc}")
    c = [0] * (trunc + 1)
    c[0] = 1
    for n in range(1, trunc + 1):
        acc = 0
        k = 1
        while k * k <= n:
            if k % 2:
                acc += c[n - k * k]
            else:
                acc -= c[n - k * k]
            k += 1
        c[n] = 2 * acc
    return PowerSeries(c)
