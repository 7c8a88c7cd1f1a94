"""Enumeration oracle: overpartitions, rank, residual crank, stat tables."""

import pytest

from overmoments import combinat
from overmoments.combinat import (
    Overpartition,
    build_table,
    enumerate_overpartitions,
    partition_crank,
    rank,
    residual_crank_weights,
)
from overmoments.errors import OutOfRange, OversizeRequest
from overmoments.genfunc import crank_two_variable, moment_series, rank_two_variable
from overmoments.series import overpartition_gf


def op(parts, overlined=()):
    return Overpartition(tuple(parts), frozenset(overlined))


def test_the_eight_overpartitions_of_three():
    got = {(o.parts, o.overlined) for o in enumerate_overpartitions(3)}
    expected = {
        ((3,), frozenset()),
        ((3,), frozenset({3})),
        ((2, 1), frozenset()),
        ((2, 1), frozenset({2})),
        ((2, 1), frozenset({1})),
        ((2, 1), frozenset({2, 1})),
        ((1, 1, 1), frozenset()),
        ((1, 1, 1), frozenset({1})),
    }
    assert got == expected
    assert len(list(enumerate_overpartitions(3))) == 8


def test_zero_has_exactly_the_empty_overpartition():
    assert list(enumerate_overpartitions(0)) == [op([])]


def test_counts_match_series():
    gf = overpartition_gf(12)
    for n in range(13):
        assert sum(1 for _ in enumerate_overpartitions(n)) == gf[n]


def test_enumeration_is_deterministic():
    first = list(enumerate_overpartitions(6))
    second = list(enumerate_overpartitions(6))
    assert first == second
    assert first[0] == op([6])


def test_rank_values():
    assert rank(op([3])) == 2
    assert rank(op([1, 1, 1])) == -2
    assert rank(op([])) == 0
    assert rank(op([2, 1], [2, 1])) == 0  # overlined parts still count as parts


def test_rank_multiset_n3():
    got = sorted(rank(o) for o in enumerate_overpartitions(3))
    assert got == [-2, -2, 0, 0, 0, 0, 2, 2]


def test_partition_crank_cases():
    assert partition_crank((4, 2)) == 4  # no ones: largest part
    assert partition_crank((1, 1, 1)) == -3  # mu=0, three ones
    assert partition_crank((2, 1)) == 0  # mu=1, one one
    assert partition_crank(()) == 0


def test_residual_crank_weights():
    assert residual_crank_weights(op([2, 1], [1])) == [(2, 1)]
    assert residual_crank_weights(op([1, 1, 1])) == [(-3, 1)]
    assert residual_crank_weights(op([2, 1], [2])) == [(-1, 1), (0, -1), (1, 1)]
    assert residual_crank_weights(op([3], [3])) == [(0, 1)]


def test_overpartition_validation():
    with pytest.raises(ValueError):
        Overpartition((1, 2), frozenset())
    with pytest.raises(ValueError):
        Overpartition((2, 2), frozenset({3}))
    with pytest.raises(ValueError):
        Overpartition((0,), frozenset())


def test_overpartition_is_an_immutable_hashable_value():
    a, b = op([2, 1], [2]), op([2, 1], [2])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != op([2, 1], [1])
    for name in ("parts", "overlined", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    assert repr(a) == "Overpartition(parts=(2, 1), overlined=frozenset({2}))"
    assert str(a) == "2~+1"
    assert str(op([])) == "(empty)"

def test_rank_table_n3():
    table = build_table("rank", 3)
    assert table.column(3) == {2: 2, 0: 4, -2: 2}  # no m = 1, and none with |m| > n


def test_crank_table_small():
    table = build_table("crank", 5)
    assert table.column(0) == {0: 1}
    # anomaly-weighted column at n=1: z + 1/z with zero constant term
    assert table.column(1) == {1: 1, -1: 1}
    assert table.column(3) == {3: 1, 2: 1, 1: 1, 0: 2, -1: 1, -2: 1, -3: 1}


def test_tables_symmetric_and_sum_to_pbar():
    gf = overpartition_gf(18)
    for kind in ("rank", "crank"):
        table = build_table(kind, 18)
        assert table.is_symmetric()
        for n in range(19):
            assert table.column_sum(n) == gf[n]


def test_gf_sourced_table_matches_enumeration():
    for kind, two_variable in (("rank", rank_two_variable), ("crank", crank_two_variable)):
        enum = build_table(kind, 12)
        gf = two_variable(12)
        for n in range(13):
            assert enum.column(n) == gf.column(n)


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(combinat, "ENUMERATION_BUDGET", 1000)
    with pytest.raises(OversizeRequest):
        build_table("rank", 60)


def test_out_of_range():
    table = build_table("rank", 4)
    with pytest.raises(OutOfRange):
        table.column(5)
    with pytest.raises(OutOfRange):
        table.column(-1)


def test_str_rendering():
    assert str(op([2, 1], [2])) == "2~+1"
    assert str(op([])) == "(empty)"


def test_overlines_sit_on_first_occurrences():
    # the seen-set definition: the first occurrence of each overlined value
    # is barred, every other part is not
    for n in range(9):
        for x in enumerate_overpartitions(n):
            seen, barred = set(), []
            for p in x.parts:
                barred.append(p in x.overlined and p not in seen)
                seen.add(p)
            rest = tuple(p for p, b in zip(x.parts, barred) if not b)
            assert x.non_overlined_subpartition() == rest
            shown = "+".join(f"{p}~" if b else str(p) for p, b in zip(x.parts, barred))
            assert str(x) == (shown or "(empty)")


def test_ospt_2_counts_smallest_parts():
    # ospt_2(n) is the number of smallest parts, summed over the
    # overpartitions of n whose smallest part is not overlined
    counts = [0] * 16
    for n in range(1, 16):
        for o in enumerate_overpartitions(n):
            smallest = o.parts[-1]
            if smallest not in o.overlined:
                counts[n] += o.parts.count(smallest)
    assert counts == moment_series("difference", "crank", 2, 15)
