"""Generating-function engine: shifts, sample expansions, Lambert sums and
the two-variable series.  The comparisons against enumeration are the
oracle and proposition suites of `overmoments.checks`, run by the
acceptance tests A1 and A2."""

from fractions import Fraction

import pytest

from oracles import crank_power_numerator, lambert_term, overpartition_spt, rho_crank, rho_rank
from overmoments import genfunc
from overmoments.errors import OversizeRequest
from overmoments.series import TWO_VARIABLE_TRUNC_CAP


def _symmetrized(kind, r, trunc, shift=None):
    return genfunc.moment_series("symmetrized", kind, r, trunc, shift)


def test_rho_values():
    assert rho_crank(3) == 0 and rho_crank(4) == Fraction(1, 2)
    assert rho_rank(3) == Fraction(1, 2) and rho_rank(4) == 1


@pytest.mark.parametrize("kind", ["crank", "rank"])
def test_standard_shift_exponent_matches_rho(kind):
    # the n-th term starts at q^{E(n) + (r/2 + rho) n}, E(n) = n^2/2 (crank)
    # or n^2 (rank); the coefficient of n is the same for every n, so the
    # lowest exponent of the whole sum, which only n = 1 reaches, pins it
    base, rho = (Fraction(1, 2), rho_crank) if kind == "crank" else (1, rho_rank)
    for r in range(1, 9):
        sums = genfunc.numerator("symmetrized", kind, r, 20)
        lowest = next(n for n, c in enumerate(sums) if c)
        assert lowest == base + Fraction(r, 2) + rho(r), (kind, r)


def test_standard_shift():
    assert [genfunc.standard_shift(r) for r in range(1, 7)] == [0, 0, 1, 1, 2, 2]


def test_constant_coefficient_vanishes():
    for r in range(1, 7):
        assert _symmetrized("crank", r, 6)[0] == 0
        assert _symmetrized("rank", r, 6)[0] == 0


def test_every_coefficient_is_nonnegative():
    # the circle method's aliasing bound rests on a_m >= 0 for every m;
    # the weights binom(m + s, r) are >= 0 for m >= 1 and s >= -1
    for r in range(0, 7):
        for shift in range(-1, max(r, 0)):
            for kind in ("crank", "rank"):
                assert min(_symmetrized(kind, r, 3000, shift)) >= 0, (kind, r, shift)


def test_quoted_sample_expansions():
    # identified against the oracle: the first is the rank series of order 3,
    # the second the crank series of order 4 with binomial shift 2
    sr3 = _symmetrized("rank", 3, 7)
    assert sr3[3:] == [2, 8, 24, 60, 134]
    sc4_shift2 = _symmetrized("crank", 4, 7, shift=2)
    assert sc4_shift2[2:] == [1, 6, 22, 63, 159, 358]
    # the standard-shift crank series of order 4 is a different expansion
    sc4 = _symmetrized("crank", 4, 7)
    assert sc4[3:] == [1, 6, 22, 64, 160]


def test_shift_domain_is_validated():
    with pytest.raises(ValueError):
        _symmetrized("crank", 3, 5, shift=3)
    with pytest.raises(ValueError):
        _symmetrized("rank", 3, 5, shift=-2)


@pytest.mark.parametrize("flavor", ["moment", "difference"])
@pytest.mark.parametrize("entry", [genfunc.numerator, genfunc.moment_series])
def test_shift_is_refused_outside_the_symmetrized_flavor(flavor, entry):
    # the power weight m^r has no shift; one given is refused, not ignored,
    # even when it equals the standard shift
    for shift in (-1, 0, 1):
        with pytest.raises(ValueError, match="symmetrized flavor only"):
            entry(flavor, "crank", 3, 5, shift)


def test_unknown_flavor_is_refused():
    # the flavor is checked first, so a shift does not hide a bad flavor
    for shift in (None, 1):
        with pytest.raises(ValueError, match="unknown flavor"):
            genfunc.moment_series("power", "crank", 3, 5, shift)


@pytest.mark.parametrize("flavor", ["moment", "difference", "symmetrized"])
@pytest.mark.parametrize("entry", [genfunc.numerator, genfunc.moment_series])
def test_every_flavor_refuses_an_unknown_kind(flavor, entry):
    # ospt's numerator reads no kind, but refuses a bad one like every other
    for kind in ("banana", None):
        with pytest.raises(ValueError, match="kind must be 'crank' or 'rank'"):
            entry(flavor, kind, 2, 6)


@pytest.mark.parametrize("r, N", [(0, 12), (1, 7), (3, 60), (8, 200)])
def test_benchmark_aliases_equal_moment_series(r, N):
    # the circle_cauchy check takes its true coefficients through the two
    # genfunc names
    assert genfunc.crank_binomial_series(r, N) == _symmetrized("crank", r, N)
    assert genfunc.rank_binomial_series(r, N) == _symmetrized("rank", r, N)


def test_two_variable_basics():
    zl = genfunc.crank_two_variable(8)
    assert zl.column(0) == {0: 1}
    assert zl.column(1) == {1: 1, -1: 1}
    rl = genfunc.rank_two_variable(8)
    assert rl.column(0) == {0: 1}
    assert rl.column(3) == {2: 2, 0: 4, -2: 2}  # 2z^2 + 4 + 2z^{-2}


@pytest.mark.parametrize(
    "build", [genfunc.crank_two_variable, genfunc.rank_two_variable], ids=["crank", "rank"]
)
def test_two_variable_trunc_guard(build):
    with pytest.raises(OversizeRequest, match=f"capped at trunc={TWO_VARIABLE_TRUNC_CAP}"):
        build(TWO_VARIABLE_TRUNC_CAP + 1)


def test_two_variable_z_symmetry_and_degree():
    for table in (genfunc.crank_two_variable(20), genfunc.rank_two_variable(20)):
        assert table.is_symmetric()
        for n in range(21):
            assert max(map(abs, table.column(n))) <= n


def test_lambert_sums_compose_from_single_terms():
    # crank inner sum for r=1: q/(1-q) - q^3/(1-q^2) + q^6/(1-q^3) - ...
    expected = [
        a - b + c
        for a, b, c in zip(
            lambert_term(1, 1, 1, 8), lambert_term(2, 1, 3, 8), lambert_term(3, 1, 6, 8)
        )
    ]
    assert genfunc.numerator("symmetrized", "crank", 1, 8) == expected
    # rank inner sum for r=1: 2[q^2/((1+q)(1-q)) - q^6/((1+q^2)(1-q^2)) + ...]
    expected = [
        2 * (a - b)
        for a, b in zip(
            lambert_term(1, 1, 2, 8, alternating_factor=True),
            lambert_term(2, 1, 6, 8, alternating_factor=True),
        )
    ]
    assert genfunc.numerator("symmetrized", "rank", 1, 8) == expected
    # the weight m^2 puts 2m - 1 on q^{E(n)+nm}: n=1 gives 1, 3, 5, ... from
    # q^1, n=2 subtracts 1, 3, 5 at q^3, q^5, q^7, n=3 adds 1 at q^6
    expected = [0, 1, 3, 4, 7, 6, 12, 8, 15]
    assert genfunc.numerator("moment", "crank", 2, 8) == expected


@pytest.mark.parametrize("r", [2, 4, 6])
def test_even_crank_numerators_match_their_eisenstein_forms(r):
    # the only check of the power-weight crank numerators beyond n = 600
    # that does not run the Lambert loop itself
    trunc = 20_000
    assert genfunc.numerator("moment", "crank", r, trunc) == crank_power_numerator(r, trunc)


@pytest.mark.parametrize("r", range(1, 9))
def test_difference_numerator_is_crank_minus_rank_lambert_sum(r):
    # ospt's numerator reuses one step list for both statistics, turning it
    # into the rank's in place between the two passes
    crank, rank = (genfunc.numerator("moment", kind, r, 400) for kind in ("crank", "rank"))
    assert genfunc.numerator("difference", "crank", r, 400) == [a - b for a, b in zip(crank, rank)]


def test_ospt_series_peaks_near_its_result():
    # one step list and one output list from the Lambert sum to the
    # quotient: the peak is 2.05 times the result's footprint, against 2.40
    # with separate crank, rank and difference lists and a copying division
    import sys
    import tracemalloc

    genfunc.moment_series("difference", "crank", 6, 10)  # first-call allocations
    tracemalloc.start()
    try:
        result = genfunc.moment_series("difference", "crank", 6, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    footprint = sys.getsizeof(result) + sum(map(sys.getsizeof, result))
    assert peak <= 2.2 * footprint, peak / footprint


def test_ospt_2_is_the_overpartition_spt():
    # a third exact path to ospt_2, through neither Lambert sum nor the
    # theta_4 division; it counts smallest parts, so ospt_2(n) >= 1 for n >= 1
    spt = overpartition_spt(400)
    assert genfunc.moment_series("difference", "crank", 2, 400) == spt
    assert min(spt[1:]) >= 1


def test_manifest_checksum_is_deterministic():
    s1 = _symmetrized("rank", 3, 20)
    m1 = genfunc.series_manifest("rank", 3, 20, s1)
    m2 = genfunc.series_manifest("rank", 3, 20, _symmetrized("rank", 3, 20))
    assert m1 == m2
    m3 = genfunc.series_manifest("rank", 4, 20, _symmetrized("rank", 4, 20))
    assert m3["checksum"] != m1["checksum"]
    assert set(m1) == {"kind", "r", "trunc", "checksum"}


def test_export_helpers():
    import hashlib

    ser = _symmetrized("crank", 2, 4)
    manifest = genfunc.series_manifest("crank", 2, 4, ser)
    assert manifest["kind"] == "crank" and manifest["r"] == 2 and manifest["trunc"] == 4
    lines = "\n".join(str(c) for c in ser)
    assert manifest["checksum"] == hashlib.sha256(lines.encode()).hexdigest()


def test_manifest_checksum_hashes_the_joined_coefficients():
    # the coefficients are hashed one at a time, with the digest of their
    # newline-joined decimal strings
    import hashlib

    for ser in ([], [7], _symmetrized("rank", 3, 200)):
        joined = "\n".join(map(str, ser)).encode()
        manifest = genfunc.series_manifest("rank", 3, 200, ser)
        assert manifest["checksum"] == hashlib.sha256(joined).hexdigest()
