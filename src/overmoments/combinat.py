"""Ground-truth enumeration of overpartitions and their statistics.

Everything here is independent of the generating-function code: tables are
built by listing actual overpartitions (the overpartition counts only check
`ENUMERATION_BUDGET`), so they can referee the series expansions.  An
overpartition is a non-increasing sequence of positive parts in which the
first occurrence of any part value may be overlined.

The rank is the largest part minus the number of parts.  The residual crank
applies the ordinary partition crank to the sub-partition of non-overlined
parts; the lone sub-partition (1) is counted with the classical weights
(-1:+1, 0:-1, +1:+1) so that enumeration agrees coefficient-for-coefficient
with the two-variable crank series (whose q^1 coefficient is z - 1 + 1/z).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .series import Kind, StatTable, check_kind, check_size, overpartition_gf

__all__ = [
    "Overpartition",
    "enumerate_overpartitions",
    "rank",
    "residual_crank_weights",
    "partition_crank",
    "build_table",
]

# most overpartitions `build_table` lists; the suites list 121,855 per kind
# (`oracle`, n <= 25) and 6,793 (`proposition`, n <= 16)
ENUMERATION_BUDGET = 10_000_000


class Overpartition(namedtuple("Overpartition", "parts overlined")):
    """parts: non-increasing positive ints; overlined: part values whose
    first occurrence carries the overline.  Immutable and hashable; a
    namedtuple rather than a dataclass, which would load inspect and ast."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...], overlined: frozenset[int]):
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be non-increasing")
        if not overlined <= set(parts):
            raise ValueError("overlined values must occur among the parts")
        return super().__new__(cls, parts, overlined)

    def _barred(self) -> Iterator[tuple[int, bool]]:
        """Each part with whether it carries the overline: the first
        occurrence of an overlined value, which in a non-increasing sequence
        is a part that differs from the one before it."""
        with_prev = zip(self.parts, (0,) + self.parts)  # parts are >= 1
        return ((p, p in self.overlined and p != prev) for p, prev in with_prev)

    def non_overlined_subpartition(self) -> tuple[int, ...]:
        """Parts left after removing the first occurrence of each overlined value."""
        return tuple(p for p, barred in self._barred() if not barred)

    def __str__(self) -> str:
        return "+".join(f"{p}~" if barred else str(p) for p, barred in self._barred()) or "(empty)"


def _partitions(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def enumerate_overpartitions(n: int) -> Iterator[Overpartition]:
    """Yield each overpartition of n exactly once.

    Order is deterministic: partitions in descending lexicographic order of
    the part sequence, then overline patterns by bitmask over the distinct
    values (most significant bit = largest value).
    """
    check_size("n", n, 0)
    for parts in _partitions(n, n):
        distinct = sorted(set(parts), reverse=True)
        d = len(distinct)
        for mask in range(1 << d):
            flagged = frozenset(distinct[i] for i in range(d) if mask >> i & 1)
            yield Overpartition(parts, flagged)


def rank(op: Overpartition) -> int:
    """Largest part minus number of parts; 0 for the empty overpartition."""
    if not op.parts:
        return 0
    return op.parts[0] - len(op.parts)


def partition_crank(parts: tuple[int, ...]) -> int:
    """Ordinary crank of a partition: largest part if it has no ones,
    otherwise (number of parts exceeding the count of ones) - (count of ones)."""
    if not parts:
        return 0
    ones = sum(1 for p in parts if p == 1)
    if ones == 0:
        return parts[0]
    mu = sum(1 for p in parts if p > ones)
    return mu - ones


def residual_crank_weights(op: Overpartition) -> list[tuple[int, int]]:
    """Weighted crank contributions of the non-overlined sub-partition.

    Generic sub-partition: [(crank, +1)].  Empty sub-partition: [(0, +1)].
    The sub-partition (1) gets the three weighted values matching the q^1
    coefficient z - 1 + 1/z of the crank series.
    """
    sub = op.non_overlined_subpartition()
    if sub == (1,):
        return [(-1, 1), (0, -1), (1, 1)]
    return [(partition_crank(sub), 1)]


def build_table(kind: Kind, nmax: int) -> StatTable:
    """The rank or crank table through n = nmax, by walking every
    overpartition; refuses with OversizeRequest when there are more than
    `ENUMERATION_BUDGET` of them."""
    check_kind(kind)
    check_size("nmax", nmax, 0)
    total = sum(overpartition_gf(nmax))  # every overpartition of weight <= nmax
    check_size("overpartitions", total, 0, ENUMERATION_BUDGET, f"enumeration through n={nmax}")
    cols = [dict() for _ in range(nmax + 1)]
    for n, col in enumerate(cols):
        for op in enumerate_overpartitions(n):
            weights = [(rank(op), 1)] if kind == "rank" else residual_crank_weights(op)
            for m, w in weights:
                col[m] = col.get(m, 0) + w
    return StatTable(cols)
