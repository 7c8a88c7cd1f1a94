"""Series core: the theta_4 division and classical product identities,
checked with the Kronecker multiply, Newton inversion and product oracles
of `oracles`."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _kron_mul,
    invert,
    lambert_term,
    mul,
    one,
    pentagonal_support,
    pochhammer_q,
    theta4,
)
from overmoments import genfunc, moments
from overmoments.errors import OversizeRequest
from overmoments.series import (
    EXACT_TRUNC_CAP,
    divide_by_theta4,
    euler_product,
    overpartition_gf,
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


def schoolbook(a, b, trunc):
    """Truncated convolution by the O(n^2) definition (test oracle)."""
    out = [0] * (trunc + 1)
    for i, x in enumerate(a[: trunc + 1]):
        for j, y in enumerate(b[: trunc + 1 - i]):
            out[i + j] += x * y
    return out


@st.composite
def signed_coeffs(draw, max_bits=70, max_size=12):
    """Signed coefficients of at most k bits, biased towards 0 and +-(2^k - 1)."""
    top = 2 ** draw(st.integers(1, max_bits)) - 1
    value = st.one_of(st.sampled_from([top, -top, 0]), st.integers(-top, top))
    return draw(st.lists(value, max_size=max_size))


@settings(max_examples=400, deadline=None)
@given(a=signed_coeffs(), b=signed_coeffs(), trunc=st.integers(0, 24))
@example(a=[0, 0, 0], b=[-5, 7, -1], trunc=4)  # one operand all zero
@example(a=[-3, 2, 0, -1, 5], b=[4, -4, 1, 9], trunc=1)  # trunc below both lengths
@example(a=[255] * 4, b=[-255] * 9, trunc=12)  # |c_k| at the slot bound
def test_kron_mul_matches_schoolbook(a, b, trunc):
    assert _kron_mul(a, b, trunc) == schoolbook(a, b, trunc)


def test_kron_mul_at_slot_boundary():
    # all coefficients at +-(2^k - 1): the middle convolution coefficient
    # reaches the slot bound maxa * maxb * min(len) exactly, for bounds on
    # both sides of every byte boundary
    for k in range(1, 33):
        top = 2**k - 1
        for n in range(1, 6):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = [sa * top] * n, [sb * top] * (n + 2)
                assert _kron_mul(a, b, 2 * n) == schoolbook(a, b, 2 * n)


def test_mul_difference_of_squares():
    assert _kron_mul([1, 1], [1, -1], 5) == [1, 0, -1, 0, 0, 0]


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
    assert quotient == _kron_mul(overpartition_gf(trunc), c, trunc)
    # ... and multiplying the quotient back by theta_4 restores c
    assert _kron_mul(theta4(trunc), quotient, trunc) == (c + [0] * (trunc + 1))[: trunc + 1]


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
        lambda trunc: genfunc.crank_binomial_series(3, trunc),
        lambda trunc: genfunc.rank_binomial_series(3, trunc),
        lambda trunc: moments.ospt_values(1, trunc),
        lambda trunc: moments.positive_moment_values("crank", 2, trunc),
        lambda trunc: moments.symmetrized_moment_values("rank", 2, trunc),
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
