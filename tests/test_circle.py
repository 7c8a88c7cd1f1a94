"""Circle method: numeric series evaluation, full-circle quadrature and the
sinc-sum arcs."""

import mpmath as mp
import pytest

from oracles import (
    arc_quadrature,
    i1_main_terms_bessel,
    i1_main_terms_direct,
    overpartition_mpmath,
    s_series_mpmath,
    searched_truncation,
    sinc_sum_mpmath,
    trapezoid_mpmath,
)
from overmoments import asympt, circle, genfunc
from overmoments.errors import NonConvergent, OversizeRequest, QuadratureFailure
from overmoments.series import EXACT_TRUNC_CAP


class Stopped(Exception):
    """Raised by a stub in place of the work past the point a test inspects."""


def stop_at(monkeypatch, module, name) -> list:
    """Replace module.name by a stub that records its arguments and raises
    Stopped; returns the list the arguments go to."""
    recorded = []

    def stop(*args):
        recorded.append(args)
        raise Stopped

    monkeypatch.setattr(module, name, stop)
    return recorded


def horner_eval(series, q):
    acc = mp.mpf(0)
    for c in reversed(series):
        acc = acc * q + c
    return acc


def direct_prefactor(q, prec):
    """prod (1+q^k)/(1-q^k) run to convergence at prec + 16 bits: the direct
    evaluation the theta_4 prefactor replaced."""
    with mp.workprec(prec + 16):
        qv = mp.mpc(q)
        pref = mp.mpc(1)
        qk = mp.mpc(1)
        for _ in range(int((prec + 16) * mp.log(2) / -mp.log(abs(qv))) + 2):
            qk *= qv
            pref *= (1 + qk) / (1 - qk)
        return pref


@pytest.mark.parametrize("N, x", [(10_000, 0), (10_000, 5e-4), (60, 0), (60, 0.02)])
def test_gf_numeric_matches_direct_product(N, x):
    # x = 0 at the N = 10^4 radius is the worst theta_4 cancellation:
    # theta_4 is about e^{-50 pi} there while its terms are of size 1.
    # The product, nearly all of the oracle's time, is built once per q
    wp = circle.working_precision(N)
    with mp.workprec(wp):
        q = mp.e ** (-mp.pi / (2 * mp.sqrt(N))) * mp.e ** (2j * mp.pi * mp.mpf(x))
    pref = direct_prefactor(q, wp)
    for kind, r in (("crank", 3), ("rank", 4), ("crank", 4)):
        with mp.workprec(wp + 16):
            ref = pref * s_series_mpmath(kind, r, q, wp)
        got = circle.gf_numeric(kind, r, q, wp)
        with mp.workprec(wp):
            assert abs(got - ref) < mp.mpf(2) ** (-(wp - 20)) * abs(ref)


def kernel_points(monkeypatch, kind, r) -> list:
    """(label, q, prec) where the numeric q-series are checked: the residual
    suite's real q at 224 bits, the full-circle samples for N = 7, 60, 200
    on the radius and at the precision the trapezoidal rule picks, at
    j = 0, 1, M/4, M/2, the N = 10^4 saddle at x = 0 and 5e-4, and e^{-6 pi}
    far from the circle."""
    with mp.workprec(224):
        points = [
            (f"residual N={N}", mp.e ** (-mp.pi / (2 * mp.sqrt(N))), 224) for N in (10**3, 10**5)
        ]
    recorded = stop_at(monkeypatch, circle, "_circle_samples")
    for N in (7, 60, 200):
        with pytest.raises(Stopped):
            circle._trapezoid_coefficient(kind, r, N, 1e-8)
        _, _, M, rho, wp = recorded[-1]
        with mp.workprec(wp):
            points += [
                (f"circle N={N} j={j}", rho * mp.expjpi(mp.mpf(2 * j) / M), wp)
                for j in (0, 1, M // 4, M // 2)
            ]
    wp = circle.working_precision(10**4)
    with mp.workprec(wp):
        rho = mp.e ** (-mp.pi / 200)
        points += [(f"saddle N=10^4 x={x}", rho * mp.expjpi(2 * mp.mpf(x)), wp) for x in (0, 5e-4)]
    with mp.workprec(120):
        points.append(("e^{-6 pi}", mp.e ** (-6 * mp.pi), 120))
    return points


def misses(points, got, ref) -> list:
    """The labels of the points where |got(q, prec) - ref(q, prec)| is above
    2^-(prec+7) max(1, |ref|), each with its error in units of 2^-prec."""
    out = []
    for label, q, prec in points:
        a, b = got(q, prec), ref(q, prec)
        with mp.workprec(prec + 64):
            err = abs(a - b) / max(1, abs(b))
            if err > mp.mpf(2) ** -(prec + 7):
                out.append(f"{label}: {mp.nstr(err * mp.mpf(2) ** prec, 3)}")
    return out


@pytest.mark.parametrize("kind, r", [("crank", 3), ("rank", 4)])
def test_s_series_eval_tail_bound_certifies_the_value(kind, r, monkeypatch):
    # the stopping rule's tail bound holds the sum to 2^-(prec+8) relative:
    # against the sum at 64 more bits the value agrees to 2^-(prec+7),
    # rounding included
    points = kernel_points(monkeypatch, kind, r)
    assert misses(
        points,
        lambda q, p: asympt.s_series_eval(kind, r, q, p),
        lambda q, p: asympt.s_series_eval(kind, r, q, p + 64),
    ) == []


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("kind", ["crank", "rank"])
def test_s_series_eval_matches_mpmath_loop(kind, r, monkeypatch):
    # the fixed-point kernel against the mpmath loop it replaced, within
    # 2^-(prec+7) relative; r = 8 at N = 10^5 needs the most headroom
    points = kernel_points(monkeypatch, kind, r)
    assert misses(
        points,
        lambda q, p: asympt.s_series_eval(kind, r, q, p),
        lambda q, p: s_series_mpmath(kind, r, q, p),
    ) == []


@pytest.mark.parametrize("kind, r", [("crank", 3), ("rank", 8)])
def test_overpartition_numeric_matches_mpmath_loop(kind, r, monkeypatch):
    # 1/theta_4 against the mpmath loop it replaced, within 2^-(prec+7)
    # relative, on the circle samples of two (kind, r), whose radii differ;
    # x = 0 at N = 10^4 cancels theta_4 down to e^{-50 pi}, and the radius
    # of N = EXACT_TRUNC_CAP needs 1022 guard bits
    points = kernel_points(monkeypatch, kind, r)
    with mp.workprec(64):
        points.append(("N=EXACT_TRUNC_CAP", mp.e ** (-mp.pi / (2 * mp.sqrt(EXACT_TRUNC_CAP))), 64))
    assert misses(points, asympt.overpartition_numeric, overpartition_mpmath) == []


def test_gf_numeric_matches_series_at_real_q():
    with mp.workprec(160):
        q = mp.mpf(3) / 10
        for kind in ("crank", "rank"):
            ref = horner_eval(genfunc.moment_series("symmetrized", kind, 3, 200), q)
            got = circle.gf_numeric(kind, 3, q, 160)
            assert abs(got.imag) < mp.mpf(2) ** -140
            assert abs(got.real - ref) < mp.mpf(10) ** -25


def test_gf_numeric_small_q_leading_order():
    with mp.workprec(120):
        q = mp.mpf(1) / 1000
        got = circle.gf_numeric("crank", 3, q, 120)
        series = genfunc.moment_series("symmetrized", "crank", 3, 10)
        lead = series[2] * q**2  # first nonzero coefficient sits at q^2
        assert abs(got / lead - 1) < mp.mpf(1) / 100


def test_gf_numeric_conjugation_symmetry():
    with mp.workprec(120):
        q = mp.mpc(mp.mpf(1) / 5, mp.mpf(3) / 10)
        a = circle.gf_numeric("rank", 2, q, 120)
        b = circle.gf_numeric("rank", 2, mp.conj(q), 120)
        assert abs(a - mp.conj(b)) < mp.mpf(2) ** -100


def test_gf_numeric_rejects_unit_disk_boundary():
    with pytest.raises(NonConvergent):
        circle.gf_numeric("crank", 2, mp.mpc(1, 0), 64)
    with pytest.raises(NonConvergent):
        circle.gf_numeric("rank", 2, mp.mpc(0.8, 0.8), 64)


def test_cauchy_coefficient_quoted_values():
    got = circle.cauchy_coefficient("rank", 3, 7, tol=1e-8)
    assert abs(got - 134) / 134 < 1e-8
    got = circle.cauchy_coefficient("crank", 4, 6, tol=1e-8)
    assert abs(got - 64) / 64 < 1e-8


def test_cauchy_coefficient_zero_at_n0():
    got = circle.cauchy_coefficient("crank", 3, 0, tol=1e-8)
    assert abs(got) < 1e-8


def test_cauchy_coefficient_matches_series_midrange():
    exact = genfunc.moment_series("symmetrized", "rank", 2, 25)[25]
    got = circle.cauchy_coefficient("rank", 2, 25, tol=1e-8)
    assert abs(got - exact) / exact < 1e-8


@pytest.mark.parametrize(
    "kind, r, N",
    [("crank", 3, 60), ("rank", 4, 25), ("crank", 1, 7), ("crank", 8, 200), ("rank", 8, 200)],
)
def test_trapezoid_bound_certifies_the_error(kind, r, N):
    exact = genfunc.moment_series("symmetrized", kind, r, N)[N]
    value, bound, M = circle._trapezoid_coefficient(kind, r, N, 1e-8)
    assert M == N + 2 - N % 2
    assert abs(value - exact) <= bound <= mp.mpf(1e-8) / 4 * exact


def test_trapezoid_bound_certifies_every_zero_coefficient():
    # the certificate's integer floor: every a_N = 0 for r <= 8 passes at
    # B <= tol/4, after at most one retry with slack
    zeros = 0
    for kind in ("crank", "rank"):
        for r in range(9):
            series = genfunc.moment_series("symmetrized", kind, r, circle.FULL_CIRCLE_N_CAP)
            for N in (n for n, a in enumerate(series) if a == 0):
                value, bound, M = circle._trapezoid_coefficient(kind, r, N, 1e-8)
                assert M == N + 2 - N % 2
                assert abs(value) <= bound <= mp.mpf(1e-8) / 4, (kind, r, N)
                zeros += 1
    assert zeros == 59  # a_N = 0 exactly for N <= r // 2 (crank), r // 2 + 1 (rank)


def test_trapezoid_points_and_evaluations_on_the_wright_grid(monkeypatch):
    # M/2 + 1 complex samples at the fewest points, plus three real
    # evaluations: the saddle estimate, the aliasing bound and F(rho_s)
    calls = []
    evaluate, samples_of = circle.gf_numeric, circle._circle_samples

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    def sampled(*args):
        scale, samples = samples_of(*args)
        calls.extend(samples)
        return scale, samples

    monkeypatch.setattr(circle, "gf_numeric", counted)
    monkeypatch.setattr(circle, "_circle_samples", sampled)
    for kind in ("crank", "rank"):
        for r in (1, 2, 3, 4):
            for N in (7, 25, 60):
                calls.clear()
                _, _, M = circle._trapezoid_coefficient(kind, r, N, 1e-8)
                assert M == N + 2 - N % 2
                if (kind, r, N) == ("crank", 3, 60):
                    assert len(calls) == 35 == M // 2 + 4


def test_trapezoid_sum_matches_the_mpmath_sum_on_the_wright_grid(monkeypatch):
    # the integer sample sum against the mpmath one it replaced, at the
    # radius and precision the rule chose: within 2^-(wp-8) relative
    recorded = []
    samples_of = circle._circle_samples

    def record(*args):
        recorded.append(args)
        return samples_of(*args)

    monkeypatch.setattr(circle, "_circle_samples", record)
    for kind in ("crank", "rank"):
        for r in (1, 2, 3, 4):
            for N in (7, 25, 60):
                value, _, M = circle._trapezoid_coefficient(kind, r, N, 1e-8)
                _, _, _, radius, prec = recorded[-1]
                ref = trapezoid_mpmath(kind, r, N, M, radius, prec)
                wp = circle.working_precision(N)
                with mp.workprec(wp):
                    assert abs(value - ref) <= mp.mpf(2) ** -(wp - 8) * abs(ref), (kind, r, N)


@pytest.mark.parametrize(
    "excess, tries", [(1 + 2**-40, 2), (4, None)], ids=["rounded-up", "never-met"]
)
def test_trapezoid_retry_has_slack_and_a_cap(excess, tries, monkeypatch):
    # a_3 = 0 for the rank r = 6, so the first target, from the saddle
    # estimate, fails.  A bound that rounds just above its target passes at
    # the retry, whose target has slack; a bound that never meets the
    # certificate raises after TRAPEZOID_TRIES radii instead of looping
    radii = []
    solve = circle._aliasing_radius

    def rounded_up(peak, outer, M, target):
        radius, bound = solve(peak, outer, M, target)
        radii.append(radius)
        return radius, excess * bound

    monkeypatch.setattr(circle, "_aliasing_radius", rounded_up)
    if tries is None:
        with pytest.raises(QuadratureFailure):
            circle.cauchy_coefficient("rank", 6, 3)
        assert len(radii) == circle.TRAPEZOID_TRIES
    else:
        assert abs(circle.cauchy_coefficient("rank", 6, 3)) < 1e-8
        assert len(radii) == tries


def test_trapezoid_samples_recover_every_coefficient(monkeypatch):
    # E_n <= B for every n <= N, so one sample set with B < 1/4 rounds to
    # every coefficient up to N; the samples are taken on the radius and at
    # the precision the rule chose
    recorded = []
    samples_of = circle._circle_samples

    def record(*args):
        recorded.append((args, samples_of(*args)))
        return recorded[-1][1]

    monkeypatch.setattr(circle, "_circle_samples", record)
    N = 60
    value, bound, M = circle._trapezoid_coefficient("crank", 3, N, 1e-11)
    assert bound < mp.mpf(1) / 4
    (_, _, _, rho, prec), (scale, pairs) = recorded[-1]
    assert len(pairs) == M // 2 + 1
    with mp.workprec(prec):
        samples = [mp.mpc(mp.ldexp(a, -scale), mp.ldexp(b, -scale)) for a, b in pairs]
        recovered = []
        for n in range(N + 1):
            total = mp.mpf(0)
            for j, f in enumerate(samples):
                term = (f * mp.expjpi(-mp.mpf(2 * (n * j % M)) / M)).real
                total += term if 0 < j < M // 2 else term / 2
            recovered.append(int(mp.nint(2 * total / M * rho ** (-n))))
    assert recovered == genfunc.moment_series("symmetrized", "crank", 3, N)
    assert recovered[N] == int(mp.nint(value))


def test_major_arc_dominates_and_minor_bound_stable():
    fractions = []
    ratios = []
    for N in (25, 49):
        major, minor, _, series = circle._major_arc("crank", 3, N, 1e-8)
        exact = series[N]
        with mp.workprec(circle.working_precision(N)):
            y = 1 / (4 * mp.sqrt(N))
            fractions.append(float(major / exact))
            bound = mp.mpf(N) ** (mp.mpf(3) / 2 + mp.mpf(1) / 4) * mp.e ** (
                3 * mp.pi * mp.sqrt(N) / 4
            )
            ratios.append(float(abs(minor) / bound))
        # the sinc sum against a numeric integral of gf_numeric over the arc
        arcs = [(major, 0, y)]
        if N == 25:  # the minor arc once: its quadrature costs twice the major's
            arcs.append((minor, y, mp.mpf(1) / 2))
        for value, lo, hi in arcs:
            ref = arc_quadrature("crank", 3, N, lo, hi, 1e-8)
            with mp.workprec(circle.working_precision(N)):
                assert abs(value - ref) / abs(ref) < 1e-8
    assert abs(fractions[1] - 1) < abs(fractions[0] - 1)
    assert all(r < 1 for r in ratios)
    assert max(ratios) / min(ratios) < 10  # stable constant, not drifting


@pytest.mark.parametrize("kind, r, N", [("crank", 3, 49), ("rank", 4, 25)])
def test_sinc_sum_tail_bound_certifies_the_truncation(kind, r, N):
    # a tighter tol truncates later, at T'; the terms T+1..T' are part of
    # the tail that the bound at T covers
    major, _, bound, series = circle._major_arc(kind, r, N, 1e-8)
    assert len(series) > N + 1 and bound <= mp.mpf(1e-8) / 4
    longer, _, _, longer_series = circle._major_arc(kind, r, N, 1e-14)
    assert len(longer_series) > len(series)
    with mp.workprec(circle.working_precision(N)):
        assert abs(longer - major) <= bound


@pytest.mark.parametrize("N", [1, 5, 25, 49, 98, 100, 1000])
def test_closed_form_truncation_against_the_search(N, monkeypatch):
    # one real evaluation F(rho') picks T, the smallest T >= 2N with
    # B(T) <= tol/4 < B(T-1) at that rho'.  The search moved rho' with T,
    # so the two differ by a few terms where the r-blind saddle model of
    # rho' is off: measured -3..+2 on this grid, and none for crank r = 3,
    # the wright report's T
    calls = []
    evaluate = circle.gf_numeric

    def counted(*args):
        calls.append((args, evaluate(*args)))
        return calls[-1][1]

    monkeypatch.setattr(circle, "gf_numeric", counted)
    truncations = stop_at(monkeypatch, genfunc, "moment_series")
    for kind, r in (("crank", 0), ("crank", 3), ("crank", 8), ("rank", 0), ("rank", 4), ("rank", 6)):
        calls.clear()
        with pytest.raises(Stopped):
            circle._major_arc(kind, r, N, 1e-8)
        assert len(calls) == 1
        (_, _, outer, wp), peak = calls[0]
        T = truncations[-1][3]
        assert T > 2 * N
        with mp.workprec(wp):
            rho = mp.e ** (-mp.pi / (2 * mp.sqrt(N)))
            x = rho / outer

            def bound(m):
                return peak.real * rho ** (-N) * x ** (m + 1) / ((1 - x) * mp.pi * (m + 1 - N))

            assert bound(T) <= mp.mpf(1e-8) / 4 < bound(T - 1), (kind, r)
        searched = searched_truncation(kind, r, N, 1e-8)
        assert -3 <= T - searched <= 2, (kind, r, T, searched)
        if (kind, r) == ("crank", 3):
            assert T == searched


@pytest.mark.parametrize(
    "kind, r, N",
    [("crank", 3, N) for N in (25, 49, 98, 100, 400, 1600)] + [("rank", 4, 25), ("rank", 4, 400)],
)
def test_sinc_sum_matches_the_mpmath_loop(kind, r, N, monkeypatch):
    # rounded to working precision the integer sum equals the mpmath loop it
    # replaced; unrounded it is within its stated 2^-64 absolute of that loop
    # run at 64 more bits
    unrounded = []
    sinc = circle._sinc_sum

    def record(*args):
        unrounded.append(sinc(*args))
        return unrounded[-1]

    monkeypatch.setattr(circle, "_sinc_sum", record)
    major, _, _, series = circle._major_arc(kind, r, N, 1e-8)
    with mp.workprec(circle.working_precision(N)):
        assert major == +sinc_sum_mpmath(series, N)
    assert abs(unrounded[-1] - sinc_sum_mpmath(series, N, 64)) < mp.mpf(2) ** -64


def test_truncation_cap_is_checked_before_any_series(monkeypatch):
    # crank r = 3 at N = 100 needs T = 791
    built = stop_at(monkeypatch, genfunc, "moment_series")
    monkeypatch.setattr(circle, "EXACT_TRUNC_CAP", 790)
    with pytest.raises(QuadratureFailure, match="more than 790 coefficients"):
        circle._major_arc("crank", 3, 100, 1e-8)
    assert built == []


def test_small_n_major_arc_runs():
    val = circle.major_arc_coefficient("crank", 3, 5, tol=1e-8)
    assert mp.isfinite(val)
    # a tolerance above the whole tail, where the saddle model's L < 0,
    # stops at the floor T = 2N
    _, _, bound, series = circle._major_arc("crank", 3, 4, 1e30)
    assert len(series) == 9 and bound <= mp.mpf(1e30) / 4


def test_major_arc_fraction_approaches_one_through_10000():
    # the fraction oscillates around 1 while its distance shrinks, and the
    # minor arc stays under N^{r/2+1/4} e^{3 pi sqrt N / 4}
    dist = []
    for N in (25, 49, 100, 196, 400, 1600, 10_000):
        major, minor, _, series = circle._major_arc("crank", 3, N, 1e-8)
        with mp.workprec(circle.working_precision(N)):
            dist.append(float(abs(major / series[N] - 1)))
            bound = mp.mpf(N) ** (mp.mpf(7) / 4) * mp.e ** (3 * mp.pi * mp.sqrt(N) / 4)
            assert abs(minor) < bound
    assert all(b < a for a, b in zip(dist, dist[1:]))
    assert dist[-1] < 1e-30


def test_caps_and_tolerance_guards():
    with pytest.raises(OversizeRequest):
        circle.cauchy_coefficient("crank", 2, 201)
    with pytest.raises(OversizeRequest):
        circle.major_arc_coefficient("crank", 2, 10_001)
    with pytest.raises(ValueError):
        circle.cauchy_coefficient("crank", 2, 10, tol=1e-9)


@pytest.mark.parametrize("coefficient", [circle.cauchy_coefficient, circle.major_arc_coefficient])
def test_negative_order_is_refused_before_any_evaluation(coefficient, monkeypatch):
    # the certified bounds need every a_m >= 0; rank r = -2 at N = 10 used to
    # come back as -4.0956 from the full circle
    def evaluated(*args):
        raise AssertionError("evaluated before the order was checked")

    monkeypatch.setattr(circle, "gf_numeric", evaluated)
    with pytest.raises(ValueError, match="order r must be >= 0"):
        coefficient("rank", -2, 10)


def test_p_segment_real_and_bessel_pathway():
    with pytest.raises(ValueError):
        circle.bessel_pathway_check(3, 9)
    vals = [float(circle.bessel_pathway_check(3, N)) for N in (25, 100)]
    assert all(v < 1 for v in vals)
    p = circle.p_segment(-mp.mpf(5) / 2, 49)
    assert isinstance(p, mp.mpf)


@pytest.mark.parametrize(
    "segment",
    [lambda N: circle.p_segment(-mp.mpf(5) / 2, N), lambda N: circle.bessel_pathway_check(3, N)],
    ids=["p_segment", "bessel_pathway_check"],
)
def test_bessel_segment_refuses_n_past_the_cap_before_quadrature(segment, monkeypatch):
    # the segment's working precision grows like sqrt N: 6.3 s at N = 10^4
    def quad(*args, **kwargs):
        raise AssertionError("quadrature ran past the cap")

    monkeypatch.setattr(mp, "quad", quad)
    with pytest.raises(OversizeRequest, match="capped"):
        segment(circle.MAJOR_ARC_N_CAP + 1)


def test_major_arc_main_terms_two_parametrizations_agree():
    # the K = 2 oracle in x-space and as P-segments
    direct = i1_main_terms_direct(3, 49)
    bessel_form = i1_main_terms_bessel(3, 49)
    assert abs(direct - bessel_form) / abs(direct) < 1e-6
