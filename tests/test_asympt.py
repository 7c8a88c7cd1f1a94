"""Asymptotic layer: the pole expansion and the main terms read off it."""

import math
import time

import mpmath as mp
import pytest

from oracles import bessel_i_series, rho_crank, rho_rank, subleading_candidates
from overmoments import asympt, genfunc
from overmoments.errors import NonConvergent, OversizeRequest
from overmoments.series import EXACT_ORDER_CAP, EXACT_TRUNC_CAP


def eta(r, prec):
    """c_r = eta(r), read off the pole expansion as C_0."""
    return asympt.pole_coefficients("crank", r, 1, prec)[0]


def test_eta_classical_values():
    # c_r = eta(r): ln 2 at r = 1, pi^2/12 at r = 2
    with mp.workprec(200):
        assert abs(eta(1, 200) - mp.log(2)) < mp.mpf(2) ** -190
        assert abs(eta(2, 200) - mp.pi**2 / 12) < mp.mpf(2) ** -190


def test_eta_matches_brute_averaged_partial_sums():
    # oracle for c_3 = eta(3): direct alternating sum to 10^5 terms,
    # averaging the last two partial sums to kill the leading tail term
    n_terms = 100_000
    terms = [(-1) ** (n + 1) / n**3 for n in range(1, n_terms + 2)]
    s_n = math.fsum(terms[:-1])
    s_n1 = math.fsum(terms)
    oracle = (s_n + s_n1) / 2
    assert abs(float(eta(3, 64)) - oracle) < 1e-12


def test_eta_against_zeta_factor():
    with mp.workprec(120):
        for s in (2, 3, 4, 6):
            ref = (1 - mp.mpf(2) ** (1 - s)) * mp.zeta(s)
            assert abs(eta(s, 120) - ref) < 1e-15


def test_constants_small_r():
    with mp.workprec(160):
        assert abs(eta(2, 160) - mp.pi**2 / 12) < mp.mpf(2) ** -150
        # the moment main term at N = 1 is log gamma_1 + pi
        gamma1 = mp.e ** (asympt.main_term("moment", 1, 1, 160) - mp.pi)
        assert abs(gamma1 - mp.log(2) / (4 * mp.pi)) < mp.mpf(2) ** -150
    for r in range(1, 9):
        assert eta(r, 96) > 0


def test_bessel_matches_power_series():
    # log c~_r + (r/2 - 3/4) log N + log I_{r-3/2}(pi sqrt N), with
    # c~_r = c_r pi^{-r+1} 2^{r-5/2}, the Bessel factor summed from its
    # defining power series
    N = 10
    for r in (1, 3, 6):
        with mp.workprec(200):
            c_tilde = eta(r, 200) * mp.pi ** (-r + 1) * mp.mpf(2) ** (r - mp.mpf(5) / 2)
            bessel = bessel_i_series(r - mp.mpf(3) / 2, mp.pi * mp.sqrt(N), 200, terms=80)
            want = mp.log(c_tilde) + (mp.mpf(r) / 2 - mp.mpf(3) / 4) * mp.log(N) + mp.log(bessel)
        got = asympt.main_term("symmetrized", r, N, 200)
        assert abs(got - want) < mp.mpf(2) ** -180


def test_main_term_moment_is_plugin():
    # gamma_2 = 2! eta(2) pi^-2 2^-1 = 1/12
    got = asympt.main_term("moment", 2, 10_000, 128)
    with mp.workprec(128):
        want = mp.log(mp.mpf(1) / 12) + mp.pi * 100  # (r/2 - 1) log N vanishes at r=2
        assert abs(got - want) < mp.mpf(2) ** -100


def test_main_term_difference_small_order_formula():
    # r=1: delta_1 = eta(-1)/16 = 1/64, exponent r/2 - 3/2 = -1
    got = asympt.main_term("difference", 1, 100, 128)
    with mp.workprec(128):
        want = mp.log(mp.mpf(1) / 64) - mp.log(100) + 10 * mp.pi
        assert abs(got - want) < mp.mpf(2) ** -100


def test_main_term_bessel_vs_moment_flavors_agree_at_large_N():
    # log(r! mu-main) - log(moment-main) -> 0 like N^{-1/2}
    r = 3
    gaps = []
    for N in (10_000, 1_000_000):
        with mp.workprec(192):
            gap = (
                mp.log(mp.factorial(r))
                + asympt.main_term("symmetrized", r, N, 192)
                - asympt.main_term("moment", r, N, 192)
            )
        gaps.append(abs(gap))
    assert gaps[0] < 0.01
    assert gaps[1] < gaps[0] / 3


def tau_series_oracle(kind, r, tau, prec):
    """S_r (crank) or S~_r (rank, without the factor 2) summed in tau
    coordinates, every power taken as q**expo, stopping once n Im(tau) >= 1
    and a term falls below 2^-(prec+10) of the sum: the evaluator that
    asympt.s_series_eval replaced."""
    with mp.workprec(prec + asympt.GUARD_BITS):
        tv = mp.mpc(tau)
        rho = rho_crank(r) if kind == "crank" else rho_rank(r)
        shift_coeff = mp.mpf(r) / 2 + mp.mpf(float(rho))
        q = mp.e ** (2j * mp.pi * tv)
        threshold = mp.mpf(2) ** (-(prec + 10))
        total = mp.mpc(0)
        n = 1
        prev_mag = mp.inf
        while True:
            if kind == "crank":
                expo = mp.mpf(n) * n / 2 + shift_coeff * n
                term = (-1) ** (n + 1) * q**expo / (1 - q**n) ** r
            else:
                expo = mp.mpf(n) * n + shift_coeff * n
                term = (-1) ** (n + 1) * q**expo / ((1 - q**n) ** r * (1 + q**n))
            total += term
            mag = abs(term)
            if n * tv.imag >= 1 and mag < threshold * max(1, abs(total)) and mag <= prev_mag:
                return total
            prev_mag = mag
            n += 1


def test_s_series_eval_matches_series_core():
    # at q = e^{-2 pi} the sums are tame; compare against exact coefficients.
    # The standard shift's parity changes with r, so the orders 0..8 tie the
    # kernel's e(n) recurrence to the exact loop's E(n) at every d = r - s.
    # The bound is the one s_series_eval states, 2^-(prec+13) max(1, |S|).
    # The reference is summed at prec + 64 bits through q^80: at prec bits
    # its own rounding, about 2^-149 here, would not fit under that bound
    prec = 140
    with mp.workprec(prec + 64):
        q = mp.e ** (-2 * mp.pi)
        for r in range(9):
            for kind in ("crank", "rank"):  # the rank sum includes the factor 2
                inner = genfunc.numerator("symmetrized", kind, r, 80)
                ref = mp.fsum(inner[n] * q**n for n in range(81))
                got = asympt.s_series_eval(kind, r, q, prec)
                assert abs(got - ref) <= mp.ldexp(max(1, abs(ref)), -(prec + 13)), (kind, r)


def test_s_series_small_q_limit():
    # far from the unit circle a single term dominates
    with mp.workprec(120):
        q = mp.e ** (-6 * mp.pi)
        S = asympt.s_series_eval("crank", 2, q, 120)
        lead = q ** ((1 + (2 * 2 - 1)) // 2) / (1 - q) ** 2  # n=1 term, r=2
        assert abs(S / lead - 1) < 1e-6


def test_s_series_rejects_lower_half_plane():
    # tau = -i and tau = 1/2 map to q = e^{2 pi} and q = -1, outside |q| < 1
    with pytest.raises(NonConvergent):
        asympt.s_series_eval("crank", 2, mp.e ** (2 * mp.pi), 64)
    with pytest.raises(NonConvergent):
        asympt.s_series_eval("rank", 2, mp.mpc(-1, 0), 64)
    with pytest.raises(NonConvergent):
        asympt.overpartition_numeric(mp.mpc(0.8, 0.8), 64)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda q: asympt.s_series_eval("crank", 3, q, 64),
        lambda q: asympt.overpartition_numeric(q, 64),
    ],
    ids=["s_series_eval", "overpartition_numeric"],
)
def test_nan_q_is_refused_before_any_summing(evaluate, monkeypatch):
    # NaN passed |q| >= 1 and failed inside the kernels, with a TypeError on
    # mpf << mpf or "cannot convert inf or nan to int"
    def fail(*args):
        raise AssertionError("summed before the guards")

    monkeypatch.setattr(asympt, "cmul", fail)
    with pytest.raises(NonConvergent, match=r"\|q\| must be < 1"):
        evaluate(math.nan)


def test_overpartition_numeric_refuses_q_near_one_at_once():
    # 36k guard bits at q = 0.9999, where the sum took 10 s before the cap
    t0 = time.perf_counter()
    with pytest.raises(OversizeRequest, match="guard bits"):
        asympt.overpartition_numeric(0.9999)
    assert time.perf_counter() - t0 < 1
    # a radius closer to 1 than the major arc's rho' at its caps stays under it
    t = mp.pi / (2 * mp.sqrt(EXACT_TRUNC_CAP))
    assert asympt.overpartition_numeric(mp.e ** -t, 64).real > 0


@pytest.mark.parametrize("kind, r, factor", [("crank", 3, 1), ("rank", 4, 2)])
def test_s_series_eval_matches_tau_oracle_at_fit_radius(kind, r, factor):
    # N = 10^5, the largest point of the residual suite's expansion-order
    # checks, sits closest to q = 1; they sum at 224 bits
    prec = 224
    N = 10**5
    with mp.workprec(prec):
        y = 1 / (4 * mp.sqrt(N))
        ref = factor * tau_series_oracle(kind, r, mp.mpc(0, y), prec)
        got = asympt.s_series_eval(kind, r, mp.e ** (-2 * mp.pi * y), prec)
        assert abs(got - ref) < mp.mpf(2) ** (-(prec - 20)) * abs(ref)


def test_pole_coefficients_confirm_the_printed_readings():
    # C_1 of the crank sum is the "eta" reading, which "zeta_shifted" equals
    # for odd r; half of the rank sum's C_1 is the "expansion" reading; no
    # other defined reading matches.  C_0 = eta(r) for both kinds.
    want = {"crank": {"eta"}, "rank": {"expansion"}}
    for kind in ("crank", "rank"):
        for r in range(1, 17):
            c0, c1 = asympt.pole_coefficients(kind, r, 2, 256)
            with mp.workprec(256):
                assert abs(c0 - mp.altzeta(r)) <= mp.mpf(2) ** -240 * c0
                d = c1 if kind == "crank" else c1 / 2
                matches = {
                    tag
                    for tag, v in subleading_candidates(kind, r, 256).items()
                    if v is not None and abs(v - d) <= mp.mpf(2) ** -240 * abs(d)
                }
            odd_crank = kind == "crank" and r % 2 == 1
            assert matches == want[kind] | ({"zeta_shifted"} if odd_crank else set()), (kind, r)


def test_zeta_shifted_variant_undefined_at_r2():
    cands = subleading_candidates("crank", 2, 96)
    assert cands["zeta_shifted"] is None  # literal form hits the zeta pole
    assert cands["eta"] is not None
    cands = subleading_candidates("rank", 2, 96)
    assert cands["zeta_shifted"] is None


def test_delta_values():
    # delta_r = r! pi^{-r+1} 2^{r-5} eta(r-2), which is r! pi^{-r+1} 2^{r-4}
    # times C_1(crank) - C_1(rank) = eta(r-2)/2; the difference main term at
    # N = 1 is log delta_r + pi
    def delta(r):
        log_delta = asympt.main_term("difference", r, 1, 160) - mp.pi
        assert isinstance(log_delta, mp.mpf)  # delta_r > 0
        return mp.e**log_delta

    with mp.workprec(160):
        assert abs(delta(1) - mp.mpf(1) / 64) < mp.mpf(2) ** -140
        assert abs(delta(4) - 1 / mp.pi) < mp.mpf(2) ** -140
        for r in range(1, 17):
            scale = mp.factorial(r) * mp.pi ** (-r + 1) * mp.mpf(2) ** (r - 5)
            want = scale * mp.altzeta(r - 2)
            assert abs(delta(r) - want) < mp.mpf(2) ** -150 * want
            c1 = [asympt.pole_coefficients(kind, r, 2, 160)[1] for kind in ("crank", "rank")]
            assert abs(2 * scale * (c1[0] - c1[1]) - want) < mp.mpf(2) ** -150 * want


@pytest.mark.parametrize(
    "flavor, r, N",
    [("moment", 0, 100), ("difference", -1, 100), ("symmetrized", 3, 0), ("power", 3, 100)],
)
def test_main_term_refuses_bad_arguments_before_evaluating(flavor, r, N, monkeypatch):
    # r < 1 and N < 1 have no main term, and the command line refuses them
    # first, so only a library caller reaches these guards
    def fail(*args):
        raise AssertionError("evaluated before the guards")

    monkeypatch.setattr(asympt, "pole_coefficients", fail)
    with pytest.raises(ValueError):
        asympt.main_term(flavor, r, N, 64)


@pytest.mark.parametrize("flavor", ["moment", "difference", "symmetrized"])
def test_main_term_refuses_an_order_past_the_cap_before_evaluating(flavor, monkeypatch):
    # the same order rule as the exact series, series.check_order
    def fail(*args):
        raise AssertionError("evaluated before the guards")

    monkeypatch.setattr(asympt, "pole_coefficients", fail)
    with pytest.raises(OversizeRequest, match=f"r={EXACT_ORDER_CAP}"):
        asympt.main_term(flavor, EXACT_ORDER_CAP + 1, 100, 64)


@pytest.mark.parametrize(
    "kind, r, K, error",
    [
        ("rank", 3, asympt.POLE_TERMS_CAP + 1, OversizeRequest),
        ("crank", EXACT_ORDER_CAP + 1, 2, OversizeRequest),
        ("crank", -1, 2, ValueError),
        ("partition", 3, 2, ValueError),
        ("crank", 3, -1, ValueError),
    ],
)
def test_pole_coefficients_refuse_bad_arguments_before_any_work(kind, r, K, error, monkeypatch):
    # the time grows faster than K^2 (3.3 s at K = 400 and 64 bits); nothing
    # of the expansion is computed before the guards
    def fail(*args):
        raise AssertionError("expanded before the guards")

    for name in ("bernoulli", "altzeta", "factorial"):
        monkeypatch.setattr(asympt.mp, name, fail)
    with pytest.raises(error):
        asympt.pole_coefficients(kind, r, K, 64)


@pytest.mark.parametrize(
    "r, error", [(-1, ValueError), (EXACT_ORDER_CAP + 1, OversizeRequest)]
)
def test_s_series_eval_refuses_bad_order_before_any_work(r, error, monkeypatch):
    # the integer scale grows linearly in r, and binary powering never ends
    # on a negative exponent; |q| = 2 would raise NonConvergent, so the
    # order is refused before q is even looked at
    def fail(*args):
        raise AssertionError("summed before the guards")

    monkeypatch.setattr(asympt, "cmul", fail)
    with pytest.raises(error):
        asympt.s_series_eval("crank", r, 2, 64)


def test_s_series_eval_refuses_q_near_one_before_any_work(monkeypatch):
    # at 1 - |q| = 10^-12 the tail rule allows 2.3e7 terms, about a minute
    # of summing; the term bound is refused before the first product
    def fail(*args):
        raise AssertionError("summed before the guards")

    monkeypatch.setattr(asympt, "cmul", fail)
    with mp.workprec(64):
        q = 1 - mp.mpf(10) ** -12
    with pytest.raises(OversizeRequest):
        asympt.s_series_eval("crank", 3, q, 64)


def test_eta_quotient_check_matches_product_loop():
    # oracle: the prefactor as prod (1+q^k)/(1-q^k), run to the working epsilon
    prec = 256
    wp = prec + asympt.GUARD_BITS + 16
    tau = mp.mpc(0, mp.mpf(1) / 40)
    with mp.workprec(wp):
        q = mp.e ** (2j * mp.pi * tau)
        pref, qk = mp.mpc(1), mp.mpc(1)
        for _ in range(int(wp * mp.ln2 / -mp.log(abs(q))) + 2):
            qk *= q
            pref *= (1 + qk) / (1 - qk)
        closed = mp.sqrt(-1j * tau / 2) * mp.e ** (1j * mp.pi / (8 * tau))
        want = abs(pref / closed - 1)
        got = asympt.eta_quotient_check(tau, prec)
        assert abs(got - want) < mp.mpf(2) ** (-(prec - 20))


def test_eta_quotient_check_decays():
    v_mid = asympt.eta_quotient_check(mp.mpc(0, 1))
    assert v_mid < 1  # moderate tau: both sides finite and close-ish
    v20 = asympt.eta_quotient_check(mp.mpc(0, 1 / mp.mpf(20)))
    v40 = asympt.eta_quotient_check(mp.mpc(0, 1 / mp.mpf(40)))
    assert v20 < 1e-10
    assert v40 < v20 / 1e10
    # log-decay slope against 1/|tau| is decisively negative
    slope = (mp.log(v40) - mp.log(v20)) / (40 - 20)
    assert slope < -0.1


@pytest.mark.parametrize("tau", [mp.mpc(0, -0.05), mp.mpc(0.25, 0)])
def test_eta_quotient_check_refuses_tau_off_the_upper_half_plane(tau):
    # |q| >= 1 there, where the prefactor's product does not converge
    with pytest.raises(NonConvergent, match="upper half-plane"):
        asympt.eta_quotient_check(tau)


def test_eta_quotient_check_refuses_a_nan_tau_before_any_summing(monkeypatch):
    # NaN passed tau.imag <= 0 and failed in the prefactor's sum with
    # "cannot convert inf or nan to int"
    def fail(*args):
        raise AssertionError("summed before the guards")

    monkeypatch.setattr(asympt, "overpartition_numeric", fail)
    with pytest.raises(NonConvergent, match="upper half-plane"):
        asympt.eta_quotient_check(mp.mpc(0, mp.nan))
