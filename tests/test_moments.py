"""Moment algebra: power moments, symmetrized moments, basis change, ospt."""

from fractions import Fraction
from math import factorial, isqrt

import pytest

from oracles import basis_change
from overmoments import genfunc, moments
from overmoments.combinat import build_table
from overmoments.genfunc import moment_series
from overmoments.errors import OutOfRange, OversizeRequest

NMAX = 15
CRANK = build_table("crank", NMAX)
RANK = build_table("rank", NMAX)


def test_positive_moment_small_values():
    assert moments.positive_moment(RANK, 1, 3) == 4  # 2 * 2 from rank value 2
    assert moments.positive_moment(RANK, 1, 0) == 0
    assert moments.positive_moment(CRANK, 1, 0) == 0
    # crank column at 3 is {3:1, 2:1, 1:1, 0:2, -1:1, -2:1, -3:1}
    assert moments.positive_moment(CRANK, 1, 3) == 6


def test_symmetrized_equals_power_at_r1():
    for table in (CRANK, RANK):
        for n in range(NMAX + 1):
            assert moments.symmetrized_positive_moment(table, 1, n) == (
                moments.positive_moment(table, 1, n)
            )


def test_quoted_sample_values():
    # rank order 3 at N=3: the 2q^3 + 8q^4 + ... expansion
    assert moments.symmetrized_positive_moment(RANK, 3, 3) == 2
    assert moments.symmetrized_positive_moment(RANK, 3, 4) == 8
    # crank order 4 at N=2: 1 under binomial shift 2 (the q^2 + 6q^3 + ...
    # expansion), 0 under the standard shift 1
    assert moments.symmetrized_positive_moment(CRANK, 4, 2, shift=2) == 1
    assert moments.symmetrized_positive_moment(CRANK, 4, 2) == 0


def test_symmetrized_moments_are_nonnegative_integers():
    for table in (CRANK, RANK):
        for r in range(1, 7):
            for n in range(NMAX + 1):
                v = moments.symmetrized_positive_moment(table, r, n)
                assert isinstance(v, int) and v >= 0


def test_basis_change_small_orders():
    assert basis_change(1).a == (Fraction(0),)
    assert basis_change(2).a == (Fraction(0), Fraction(1))
    assert basis_change(3).a == (Fraction(0), Fraction(1), Fraction(0))
    assert basis_change(4).a == (
        Fraction(0),
        Fraction(1),
        Fraction(2),
        Fraction(12),
    )


def test_basis_change_identity_holds():
    for r in range(1, 9):
        bc = basis_change(r)
        for m in range(1, 11):
            assert bc.holds_at(m)


def test_even_moment_halving():
    # twice the positive even moment equals the full signed even moment
    for table in (CRANK, RANK):
        for r in (1, 2, 3):
            for n in range(NMAX + 1):
                full = sum(m ** (2 * r) * v for m, v in table.column(n).items())
                assert 2 * moments.positive_moment(table, 2 * r, n) == full


def test_odd_signed_moments_vanish():
    for table in (CRANK, RANK):
        for r in (1, 3, 5):
            for n in range(NMAX + 1):
                assert sum(m**r * v for m, v in table.column(n).items()) == 0


def test_power_moment_from_symmetrized_via_basis_change():
    for table in (CRANK, RANK):
        for r in range(1, 7):
            bc = basis_change(r)
            for n in range(NMAX + 1):
                total = factorial(r) * moments.symmetrized_positive_moment(table, r, n)
                for l in range(1, r):
                    if bc.a[l]:
                        total += bc.a[l] * moments.symmetrized_positive_moment(
                            table, l, n
                        )
                assert moments.positive_moment(table, r, n) == total


def test_series_backed_values_match_tables():
    for kind, table in (("crank", CRANK), ("rank", RANK)):
        for r in range(0, 7):
            sym = moment_series("symmetrized", kind, r, NMAX)
            for n in range(NMAX + 1):
                assert sym[n] == moments.symmetrized_positive_moment(table, r, n)
            if r == 0:
                # the shift -1 series counts positive values; no power moment
                with pytest.raises(ValueError):
                    moments.positive_moment(table, 0, NMAX)
                continue
            pow_ = moment_series("moment", kind, r, NMAX)
            for n in range(NMAX + 1):
                assert pow_[n] == moments.positive_moment(table, r, n)


def test_power_moments_match_basis_change_oracle():
    # independent oracle: Fraction-weighted sums of the symmetrized series,
    # one theta_4 division per order and kind
    trunc = 600
    sym = {
        (kind, l): moment_series("symmetrized", kind, l, trunc)
        for kind in ("crank", "rank")
        for l in range(1, 7)
    }
    for r in range(1, 7):
        bc = basis_change(r)
        weights = [(Fraction(factorial(r)), r)] + [
            (bc.a[l], l) for l in range(1, r) if bc.a[l]
        ]
        power = {}
        for kind in ("crank", "rank"):
            vals = []
            for n in range(trunc + 1):
                acc = sum((w * sym[(kind, l)][n] for w, l in weights), Fraction(0))
                assert acc.denominator == 1
                vals.append(acc.numerator)
            assert moment_series("moment", kind, r, trunc) == vals
            power[kind] = vals
        assert moment_series("difference", "crank", r, trunc) == [
            c - k for c, k in zip(power["crank"], power["rank"])
        ]


def test_ospt_values():
    assert moments.ospt(1, 0, CRANK, RANK) == 0
    assert moments.ospt(1, 1, CRANK, RANK) == 1
    series = moment_series("difference", "crank", 3, NMAX)
    for n in range(NMAX + 1):
        assert moments.ospt(3, n, CRANK, RANK) == series[n]
    assert moments.ospt(3, 10, CRANK, RANK) == series[10] > 0


def test_ospt2_is_odd_exactly_at_squares_and_twice_squares():
    # toggling the overline on the largest part size pairs off every counted
    # overpartition with a part above its smallest, so ospt_2(n) = sigma(n)
    # (mod 2), odd exactly at squares and twice squares; this reads every
    # coefficient of the theta_4 division through 2 10^4, far past what
    # enumeration reaches
    trunc = 20_000
    series = moment_series("difference", "crank", 2, trunc)
    odd = [n for n in range(1, trunc + 1) if series[n] % 2]
    squares = [k * k for k in range(1, isqrt(trunc) + 1)]
    assert odd == sorted(n for n in squares + [2 * s for s in squares] if n <= trunc)


REFUSALS = [
    *(
        pytest.param(oracle, args, (flavor, "crank", r, 8), error, message, id=f"{flavor}-r{r}")
        for r, error, message in [
            (-1, ValueError, "order r must be >= 1, got -1"),
            (0, ValueError, "order r must be >= 1, got 0"),
            (257, OversizeRequest, "exact moments capped at order r=256, got 257"),
        ]
        for flavor, oracle, args in [
            ("moment", moments.positive_moment, (CRANK, r, 8)),
            ("difference", moments.ospt, (r, 8, CRANK, RANK)),
        ]
    ),
    # a shift outside -1..r-1 used to return a sum (5733 at 7, 16 at -3)
    *(
        pytest.param(
            moments.symmetrized_positive_moment, (CRANK, 3, 8, shift),
            ("symmetrized", "crank", 3, 8, shift),
            ValueError, f"shift {shift} outside supported range -1..2", id=str(shift),
        )
        for shift in (7, -3)
    ),
    # the power weight takes no shift; the enumeration sums read genfunc.weight
    pytest.param(
        genfunc.weight, ("moment", 3, 1), ("moment", "crank", 3, 8, 1),
        ValueError, "shift applies to the symmetrized flavor only, not 'moment'", id="moment-shift",
    ),
]


@pytest.mark.parametrize("oracle, args, series_args, error, message", REFUSALS)
def test_symmetrized_oracle_refuses_a_shift_the_series_refuses(
    oracle, args, series_args, error, message
):
    # the oracle and moment_series share one order and shift rule,
    # genfunc.weight: the same exception and message for the same input
    for call, call_args in ((moment_series, series_args), (oracle, args)):
        with pytest.raises(error) as caught:
            call(*call_args)
        assert type(caught.value) is error and str(caught.value) == message


def test_out_of_range():
    with pytest.raises(OutOfRange):
        moments.positive_moment(CRANK, 1, NMAX + 1)
    with pytest.raises(ValueError):
        moments.positive_moment(CRANK, 0, 3)
    with pytest.raises(OutOfRange):
        moments.symmetrized_positive_moment(RANK, 2, -1)
