"""Series core: the theta_4 division and classical product identities,
checked with the schoolbook multiply, Newton inversion and product oracles
of `oracles`."""

import random
from functools import partial
from math import inf, isqrt, nan

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    invert,
    lambert_term,
    mul,
    one,
    pentagonal_support,
    pochhammer_q,
    schoolbook,
    theta4,
    theta4_recurrence,
    zuckerman_pbar,
)
from overmoments import asympt, checks, circle, combinat, genfunc, moments, series
from overmoments.errors import OversizeRequest
from overmoments.series import (
    EXACT_TRUNC_CAP,
    divide_by_theta4,
    euler_product,
    overpartition_gf,
    theta4_quotient_at,
)


def brute_partitions(n, cap=None):
    """All partitions of n with parts <= cap, by recursion (test oracle)."""
    if cap is None:
        cap = n
    if n == 0:
        return [()]
    out = []
    for k in range(min(n, cap), 0, -1):
        for rest in brute_partitions(n - k, k):
            out.append((k,) + rest)
    return out


@st.composite
def signed_coeffs(draw, max_bits, max_size):
    """Signed coefficients of at most k bits, biased towards 0 and +-(2^k - 1)."""
    top = 2 ** draw(st.integers(1, max_bits)) - 1
    value = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
    return draw(st.lists(value, max_size=max_size))


def test_mul_difference_of_squares():
    assert mul([1, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0]) == [1, 0, -1, 0, 0, 0]


def test_mul_identity():
    a = [3, -1, 4, 1, -5, 9]
    assert mul(a, one(5)) == a


def test_mul_trunc_is_min():
    assert mul([1] * 11, [1] * 6) == [1, 2, 3, 4, 5, 6]


def test_overpartition_times_reciprocal_product_is_one():
    # two independently built factors: pbar series, and (q)^2_inf / (q^2;q^2)_inf
    t = 50
    pbar = overpartition_gf(t)
    qq = pochhammer_q(-1, t)
    recip = mul(qq, qq, invert(euler_product(t)))
    assert mul(pbar, recip) == one(t)


def test_invert_geometric():
    assert invert([1, -1] + [0] * 7) == [1] * 9


def test_invert_one():
    assert invert(one(5)) == one(5)


def test_invert_euler_gives_partition_numbers():
    t = 10
    inv = invert(pochhammer_q(-1, t))
    counts = [len(brute_partitions(n)) for n in range(t + 1)]
    assert inv == counts  # 1,1,2,3,5,7,11,...


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        invert([2, 1, 0, 0, 0])
    with pytest.raises(ValueError):
        invert([0, 1, 0, 0, 0])


def test_invert_two_sided_random_units():
    rng = random.Random(20240817)
    for _ in range(200):
        a = [rng.choice([1, -1])] + [rng.randint(-9, 9) for _ in range(30)]
        inv = invert(a)
        assert mul(a, inv) == one(30)
        assert mul(inv, a) == one(30)


def test_ring_axioms_random():
    rng = random.Random(998)
    for _ in range(25):
        t = rng.randint(3, 20)
        a, b, c = ([rng.randint(-50, 50) for _ in range(t + 1)] for _ in range(3))
        assert mul(a, b) == mul(b, a)
        ac, bc = mul(a, c), mul(b, c)
        assert mul([x + y for x, y in zip(a, b)], c) == [x + y for x, y in zip(ac, bc)]
        assert mul([x - y for x, y in zip(a, b)], c) == [x - y for x, y in zip(ac, bc)]


@settings(max_examples=300, deadline=None)
@given(c=signed_coeffs(max_bits=200, max_size=40), trunc=st.integers(0, 40))
@example(c=[], trunc=0)  # empty input pads to zero
@example(c=[1], trunc=40)  # 1 / theta_4 is the overpartition series
@example(c=[2**199 - 1, -(2**199 - 1)] * 20, trunc=39)  # widest alternating input
def test_divide_by_theta4_matches_kronecker_product(c, trunc):
    padded = (c + [0] * (trunc + 1))[: trunc + 1]
    quotient = divide_by_theta4(list(padded))
    # dividing by theta_4 is multiplying by (-q)oo/(q)oo ...
    assert quotient == schoolbook(overpartition_gf(trunc), c, trunc)
    # ... and multiplying the quotient back by theta_4 restores c
    assert schoolbook(theta4(trunc), quotient, trunc) == padded


@pytest.mark.parametrize("size", [1, 6, 31])
def test_divide_by_theta4_divides_in_place(size):
    # the list given comes back, each coefficient replaced by its quotient
    # through q^(size - 1): one list from numerator to series
    rng = random.Random(size)
    c = [rng.randint(-(2**64), 2**64) for _ in range(size)]
    expected = schoolbook(overpartition_gf(size - 1), c, size - 1)
    quotient = divide_by_theta4(c)
    assert quotient is c
    assert quotient == expected


def test_divide_by_theta4_matches_the_per_n_recurrence():
    # the block form sums far squares over whole slices after q -> -q; every
    # partial last block is here, and the first two blocks, which have no far
    # square (trunc 2: block 1..2 reads y[n - 1] only, near)
    rng = random.Random(400)
    for trunc in range(401):
        c = [rng.randint(-(2**200), 2**200) for _ in range(trunc + 1)]
        assert divide_by_theta4(list(c)) == theta4_recurrence(c), trunc


def test_pbar_division_matches_the_per_n_recurrence():
    unit = one(20_000)
    assert divide_by_theta4(list(unit)) == theta4_recurrence(unit)


def test_ospt_division_matches_the_per_n_recurrence():
    # the unit numerator's odd coefficients are all 0, so only a numerator
    # with odd terms checks the q -> -q twist past trunc 400
    c = genfunc.numerator("difference", "crank", 6, 20_000)
    assert divide_by_theta4(list(c)) == theta4_recurrence(c)


def test_divide_by_theta4_refuses_past_the_cap_and_leaves_the_list():
    # the size check comes before the twist, so a refused list is unchanged
    c = list(range(1, EXACT_TRUNC_CAP + 3))
    with pytest.raises(OversizeRequest):
        divide_by_theta4(c)
    assert c == list(range(1, EXACT_TRUNC_CAP + 3))


# both ends of blocks between squares, the n where a sum to k <= 25 strays
# past 1/4 (8119, 9999, 10^4) or near it (4181), and scattered n
ZUCKERMAN_N = sorted(
    {e for k in (1, 2, 10, 31, 64, 99) for e in (k * k, (k + 1) ** 2 - 1)}
    | {5, 8, 1000, 4181, 8119, 10_000}
    | set(random.Random(9).sample(range(1, 10_001), 14))
)


@pytest.mark.parametrize("n", ZUCKERMAN_N)
def test_pbar_matches_zuckerman_series(n):
    # an independent construction of pbar(n): a Rademacher-type series, no
    # theta_4 division; odd k <= 41 rounds each of these n within 0.05 (at 9908)
    assert abs(zuckerman_pbar(n, 41) - overpartition_gf(n)[n]) < 0.25


def count_divisions(monkeypatch) -> list:
    """Patch series.divide_by_theta4 to record the truncation of each call."""
    calls = []

    def counted(coeffs):
        calls.append(len(coeffs) - 1)
        return divide_by_theta4(coeffs)

    monkeypatch.setattr(series, "divide_by_theta4", counted)
    return calls


# each end alone, a mixed set with a repeat, one index five times and every
# index down to 0: none of them divides
QUOTIENT_INDEX_SETS = [
    [0],
    [60],
    [17, 0, 60, 17, 5, 59],
    [60, 60, 60, 60, 60],
    list(range(60, -1, -1)),
]


@pytest.mark.parametrize("indices", QUOTIENT_INDEX_SETS)
def test_theta4_quotient_at_matches_division(indices, monkeypatch):
    nmax = max(indices)
    # the memo is filled, past nmax, so any division would be the quotient's own
    overpartition_gf(nmax + 7)
    calls = count_divisions(monkeypatch)
    rng = random.Random(nmax + len(indices))
    for size in (nmax + 1, nmax // 2 + 1):  # a short numerator is zero-padded
        c = [rng.randint(-(2**80), 2**80) for _ in range(size)]
        full = divide_by_theta4(c + [0] * (nmax + 1 - size))
        kept = list(c)
        calls.clear()
        assert theta4_quotient_at(c, indices) == [full[N] for N in indices]
        assert calls == []
        assert c == kept


def test_converge_reads_a_long_grid_without_dividing(monkeypatch):
    # 100 points near 2000 used to outnumber one division's additions and
    # divide the numerator; every point is now read off the filled memo
    from overmoments import checks

    overpartition_gf(2000)
    calls = count_divisions(monkeypatch)
    table = checks.converge("symmetrized", "crank", 3, list(range(1901, 2001)))
    assert len(table["rows"]) == 100
    assert calls == []


def test_theta4_quotient_at_refuses_a_dense_grid_before_dividing(monkeypatch):
    # the dot products may add what one theta_4 division at the trunc cap adds
    calls = count_divisions(monkeypatch)
    with pytest.raises(OversizeRequest, match="got 59778502"):
        theta4_quotient_at([1], range(100_001, 100_597))
    assert calls == []


def test_dot_product_cap_is_one_division_at_the_trunc_cap():
    # sum_{n<=cap} isqrt(n) additions divide a series through the cap; the
    # cap on sum (N + 1) is its leading term, within 0.2%
    additions = sum(map(isqrt, range(EXACT_TRUNC_CAP + 1)))
    assert abs(series.DOT_PRODUCT_CAP / additions - 1) < 2e-3
    series.check_indices([series.DOT_PRODUCT_CAP - 1])
    with pytest.raises(OversizeRequest):
        series.check_indices([series.DOT_PRODUCT_CAP])


def test_theta4_quotient_at_refuses_bad_indices():
    with pytest.raises(ValueError):
        theta4_quotient_at([1], [3, -1])
    with pytest.raises(OversizeRequest):
        theta4_quotient_at([1], [0, EXACT_TRUNC_CAP + 1])
    with pytest.raises(ValueError, match="indices"):
        theta4_quotient_at([1], [])


@pytest.mark.parametrize(
    "r, least, message",
    [(-1, 0, "order r must be >= 0, got -1"), (0, 1, "order r must be >= 1, got 0")],
)
def test_check_order_names_the_least_order(r, least, message):
    with pytest.raises(ValueError, match=message):
        series.check_order(r, least)
    series.check_order(least, least)
    series.check_order(series.EXACT_ORDER_CAP, least)
    with pytest.raises(OversizeRequest, match=f"capped at order r={series.EXACT_ORDER_CAP}"):
        series.check_order(series.EXACT_ORDER_CAP + 1, least)


@pytest.mark.parametrize(
    "value, message",
    [(nan, "x must be finite, got nan"), (inf, "x must be finite, got inf"),
     (-inf, "x must be >= 0, got -inf")],
)
def test_check_size_refuses_what_is_not_finite(value, message):
    # NaN passed the floor's value < least, and +inf met the cap, not the floor
    with pytest.raises(ValueError, match=message):
        series.check_size("x", value, 0, 10, "test")


def _refuse_all_work(monkeypatch):
    """Make every weight, Bernoulli number, kernel and quadrature fail."""
    def fail(*args, **kwargs):
        raise AssertionError("worked before the guards")

    for module, name in [
        (genfunc, "_steps"), (moments, "_weighted_sum"), (asympt, "cmul"),
        (circle, "gf_numeric"), (mp, "bernoulli"), (mp, "altzeta"),
        (mp, "factorial"), (mp, "quad"), (mp, "besseli"),
    ]:
        monkeypatch.setattr(module, name, fail)


ORDER_TAKERS = {
    "moment_series": lambda r, table: genfunc.moment_series("moment", "crank", r, 6),
    "positive_moment": lambda r, table: moments.positive_moment(table, r, 5),
    "pole_coefficients": lambda r, table: asympt.pole_coefficients("crank", r, 2, 64),
    "main_term": lambda r, table: asympt.main_term("moment", r, 100),
    "s_series_eval": lambda r, table: asympt.s_series_eval("crank", r, 0.5, 64),
    "cauchy_coefficient": lambda r, table: circle.cauchy_coefficient("crank", r, 10),
    "p_segment": lambda r, table: circle.p_segment(r, 16),
}


@pytest.mark.parametrize("r", [2.5, 3.0])
@pytest.mark.parametrize("call", ORDER_TAKERS.values(), ids=ORDER_TAKERS.keys())
def test_an_order_that_is_not_an_int_is_refused_before_any_work(call, r, monkeypatch):
    # the order rule passed any number in range: moment_series("moment",
    # "crank", 3.0, 6) returned floats and an order of 2.5 a moment of no
    # meaning
    table = combinat.build_table("crank", 5)
    _refuse_all_work(monkeypatch)
    with pytest.raises(ValueError, match=f"order r must be an integer, got {r}"):
        call(r, table)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: asympt.main_term("moment", nan, 100), ValueError),
        (lambda: asympt.main_term("moment", 3, nan), ValueError),
        (lambda: asympt.main_term("moment", 3, inf), ValueError),
        (lambda: genfunc.moment_series("moment", "crank", nan, 6), ValueError),
        (lambda: asympt.pole_coefficients("crank", nan, 2, 64), ValueError),
        (lambda: circle.p_segment(nan, 16), ValueError),
        (lambda: circle.p_segment(-1, 16), ValueError),
        (lambda: circle.p_segment(series.EXACT_ORDER_CAP + 1, 16), OversizeRequest),
        (lambda: circle.cauchy_coefficient("crank", 3, 10, tol=inf), ValueError),
        (lambda: circle.cauchy_coefficient("crank", 3, 10, tol=nan), ValueError),
    ],
    ids=[
        "main_term-r-nan", "main_term-N-nan", "main_term-N-inf", "moment_series-r-nan",
        "pole_coefficients-r-nan", "p_segment-r-nan", "p_segment-r-negative",
        "p_segment-r-past-cap", "cauchy_coefficient-tol-inf", "cauchy_coefficient-tol-nan",
    ],
)
def test_bad_numbers_are_refused_before_any_work(call, error, monkeypatch):
    # main_term returned nan for a NaN order or N and an infinite N, and
    # moment_series a list of floats ending in nan
    _refuse_all_work(monkeypatch)
    with pytest.raises(error):
        call()


COUNT_TAKERS = {
    "moment_series": lambda: genfunc.moment_series("moment", "crank", 3, 6.0),
    "numerator": lambda: genfunc.numerator("moment", "crank", 3, 6.0),
    "overpartition_gf": lambda: overpartition_gf(5.0),
    "theta4_quotient_at": lambda: theta4_quotient_at([1, 2, 3], [2.0]),
    "theta4_quotient_at-mixed": lambda: theta4_quotient_at([1, 2, 3], [100, 200.0]),
    "build_table": lambda: combinat.build_table("rank", 3.0),
    "enumerate_overpartitions": lambda: next(combinat.enumerate_overpartitions(2.5)),
    "crank_two_variable": lambda: genfunc.crank_two_variable(3.0),
    "rank_two_variable": lambda: genfunc.rank_two_variable(3.0),
    # bound now, since the test makes asympt.main_term fail for converge
    "main_term": partial(asympt.main_term, "moment", 3, 100.0),
    "pole_coefficients": lambda: asympt.pole_coefficients("crank", 3, 2.0, 64),
    "cauchy_coefficient": lambda: circle.cauchy_coefficient("crank", 3, 10.0),
    "major_arc_coefficient": lambda: circle.major_arc_coefficient("crank", 3, 100.0),
    "p_segment": lambda: circle.p_segment(3, 16.0),
    "bessel_pathway_check": lambda: circle.bessel_pathway_check(3, 25.0),
    "converge-first": lambda: checks.converge("moment", "crank", 3, [100.0, 200]),
    "converge-last": lambda: checks.converge("moment", "crank", 3, [100, 200.0]),
}


@pytest.mark.parametrize("call", COUNT_TAKERS.values(), ids=COUNT_TAKERS.keys())
def test_a_count_that_is_not_an_int_is_refused_before_any_work(call, monkeypatch):
    # check_size refused only what was below its floor, so a float trunc, N,
    # K or grid point raised TypeError deep in the work, or after a real
    # evaluation of F, and main_term, p_segment and bessel_pathway_check
    # took a float N
    def fail(*args, **kwargs):
        raise AssertionError("worked before the guards")

    _refuse_all_work(monkeypatch)
    for module, name in [
        (series, "divide_by_theta4"), (combinat, "_partitions"),
        (genfunc, "_mul_geometric"), (asympt, "main_term"),
    ]:
        monkeypatch.setattr(module, name, fail)
    with pytest.raises(ValueError, match="must be an integer, got"):
        call()


def test_the_integer_rule_keeps_tol_real_and_the_order_message():
    # tol's floor MIN_TOL is a float, so the integer rule leaves it alone
    value = circle.cauchy_coefficient("crank", 3, 10, tol=1e-7)
    assert abs(value - genfunc.crank_binomial_series(3, 10)[10]) < 1e-7 / 4
    with pytest.raises(ValueError, match="order r must be an integer, got 2.5"):
        series.check_order(2.5)


def test_check_kind_accepts_the_two_statistics_only():
    for kind in ("crank", "rank"):
        series.check_kind(kind)
    for kind in ("Crank", "partition", ""):
        with pytest.raises(ValueError, match="kind must be 'crank' or 'rank'"):
            series.check_kind(kind)


def test_overpartition_gf_memo_cannot_be_corrupted(monkeypatch):
    monkeypatch.setattr(series, "_pbar", [])
    calls = count_divisions(monkeypatch)
    first = overpartition_gf(10)
    first[3] = -1
    first.append(7)
    assert overpartition_gf(10) == [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]
    assert overpartition_gf(4) == [1, 2, 4, 8, 14]
    assert calls == [10]
    # a larger truncation after a smaller one divides again, from scratch
    assert overpartition_gf(300) == mul(pochhammer_q(1, 300), invert(pochhammer_q(-1, 300)))
    assert overpartition_gf(10)[3] == 8
    assert calls == [10, 300]


def test_pochhammer_minus_pentagonal_pattern():
    p = pochhammer_q(-1, 12)
    assert p == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_pochhammer_minus_matches_pentagonal_theorem_to_1000():
    t = 1000
    p = pochhammer_q(-1, t)
    support = pentagonal_support(t)
    for n, c in enumerate(p):
        if n in support:
            assert c in (1, -1)
        else:
            assert c == 0
    # (q^2;q^2)oo = (q;q)oo (-q;q)oo, pentagonal at the even exponents
    assert euler_product(t) == mul(pochhammer_q(1, t), p)
    for t in range(12):  # the short ends, where the last pentagonal term falls
        assert euler_product(t) == mul(pochhammer_q(1, t), pochhammer_q(-1, t))


def test_pochhammer_plus_counts_distinct_partitions():
    t = 4
    p = pochhammer_q(1, t)
    counts = [
        sum(1 for parts in brute_partitions(n) if len(set(parts)) == len(parts))
        for n in range(t + 1)
    ]
    assert p == counts == [1, 1, 1, 2, 2]


def test_pochhammer_trunc_zero():
    assert pochhammer_q(-1, 0) == [1]


def test_overpartition_gf_small_values():
    gf = overpartition_gf(10)
    assert gf[0] == 1
    assert gf[3] == 8
    assert gf == [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]


def test_overpartition_gf_equals_pochhammer_quotient():
    t = 200
    gf = overpartition_gf(t)
    assert gf == mul(pochhammer_q(1, t), invert(pochhammer_q(-1, t)))


def test_overpartition_gf_size_guard():
    # every exact entry point checks the cap first, so each trips the guard
    # before allocating anything
    for build in (
        overpartition_gf,
        lambda trunc: genfunc.moment_series("symmetrized", "crank", 3, trunc),
        lambda trunc: genfunc.moment_series("symmetrized", "rank", 3, trunc, shift=2),
        lambda trunc: genfunc.moment_series("moment", "crank", 2, trunc),
        lambda trunc: genfunc.moment_series("difference", "crank", 1, trunc),
        lambda trunc: genfunc.numerator("moment", "rank", 2, trunc),
    ):
        with pytest.raises(OversizeRequest):
            build(EXACT_TRUNC_CAP + 1)
    with pytest.raises(ValueError):
        overpartition_gf(-1)


def test_overpartition_gf_strictly_increasing():
    gf = overpartition_gf(300)
    for n in range(1, 300):
        assert gf[n] < gf[n + 1]


def test_lambert_term_basic():
    assert lambert_term(1, 1, 1, 6) == [0, 1, 1, 1, 1, 1, 1]
    t = lambert_term(2, 3, 5, 12)
    assert t[5] == 1 and t[7] == 3 and t[9] == 6 and t[6] == 0


def test_lambert_term_alternating_divisor():
    # q^2 / ((1-q)(1+q)) = q^2 + q^4 + q^6 + ...
    q2 = [0, 0, 1] + [0] * 8
    direct = mul(q2, invert([1, -1] + [0] * 9), invert([1, 1] + [0] * 9))
    assert lambert_term(1, 1, 2, 10, alternating_factor=True) == direct
