"""Series core: the theta_4 division and classical product identities,
checked with the schoolbook multiply, Newton inversion and product oracles
of `oracles`."""

import random

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
)
from overmoments import genfunc, series
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
    quotient = divide_by_theta4(c, trunc)
    # dividing by theta_4 is multiplying by (-q)oo/(q)oo ...
    assert quotient == schoolbook(overpartition_gf(trunc), c, trunc)
    # ... and multiplying the quotient back by theta_4 restores c
    assert schoolbook(theta4(trunc), quotient, trunc) == (c + [0] * (trunc + 1))[: trunc + 1]


def count_divisions(monkeypatch) -> list:
    """Patch series.divide_by_theta4 to record the truncation of each call."""
    calls = []

    def counted(coeffs, trunc):
        calls.append(trunc)
        return divide_by_theta4(coeffs, trunc)

    monkeypatch.setattr(series, "divide_by_theta4", counted)
    return calls


# sum_{n<=60} isqrt(n) = 287 additions divide through q^60; the dot sets
# need fewer multiply-adds (sum of N + 1), the division sets more, and
# dividing through q^0 makes no additions at all
QUOTIENT_INDEX_SETS = [
    ([0], "division"),
    ([60], "dot"),
    ([17, 0, 60, 17, 5, 59], "dot"),
    ([60, 60, 60, 60, 60], "division"),
    (list(range(60, -1, -1)), "division"),
]


@pytest.mark.parametrize("indices, path", QUOTIENT_INDEX_SETS)
def test_theta4_quotient_at_matches_division(indices, path, monkeypatch):
    nmax = max(indices)
    # the memo is filled, past nmax, so only the division path divides
    overpartition_gf(nmax + 7)
    calls = count_divisions(monkeypatch)
    rng = random.Random(nmax + len(indices))
    for size in (nmax + 1, nmax // 2 + 1):  # a short numerator is zero-padded
        c = [rng.randint(-(2**80), 2**80) for _ in range(size)]
        full = divide_by_theta4(c, nmax)
        calls.clear()
        assert theta4_quotient_at(c, indices) == [full[N] for N in indices]
        assert calls == ([nmax] if path == "division" else [])


def test_theta4_quotient_at_refuses_bad_indices():
    with pytest.raises(ValueError):
        theta4_quotient_at([1], [3, -1])
    with pytest.raises(OversizeRequest):
        theta4_quotient_at([1], [0, EXACT_TRUNC_CAP + 1])


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
