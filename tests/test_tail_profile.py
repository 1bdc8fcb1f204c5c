import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import gauss_tail, monotone_chain_dual
from deconv.commands import DUAL_GRID_MAX, DUAL_GRID_STEP
from deconv.errors import ValidationError
from deconv.grid_signal import SampledSignal
from deconv.kernels import default_profile_grid, make_indicator
from deconv.tail_profile import (DualProfile, TailProfile, _log_trapz,
                                 bisect, detect_superlinear, growth_check,
                                 tail_cutoff, tail_mass_profile, young_dual)


def quadratic_profile(s_max=64.0, step=0.01):
    s = step * np.arange(int(round(s_max / step)) + 1)
    return TailProfile(s, s * s, 1.0)


def test_indicator_profile_values_are_exact(indicator_profile):
    # mass of chi_[0,1] beyond s is exactly 1 - s on this grid; p(0) only
    # carries the cumsum rounding of two hundred cell sums
    assert abs(float(indicator_profile.p_at(0.0))) <= 1e-14
    assert math.isclose(float(indicator_profile.p_at(0.5)), -math.log(0.5),
                        rel_tol=1e-14)
    assert indicator_profile.p_values[-1] == np.inf


def test_gaussian_profile_matches_erfc_tail(gaussian_profile):
    # independent tail oracle; the trapezoid deviates by the h^2/12
    # endpoint term only
    for s in (0.5, 1.0, 2.0):
        want = -math.log(gauss_tail(s))
        got = float(gaussian_profile.p_at(s))
        assert math.isclose(got, want, abs_tol=1e-4)
    assert math.isclose(float(gaussian_profile.p_at(2.0)),
                        4.7925763216919375, abs_tol=1e-4)


def test_tail_cutoff_gaussian(gaussian_profile):
    s, saturated = tail_cutoff(gaussian_profile, 1e-6)
    assert not saturated
    assert math.isclose(s, 3.537717962798795, rel_tol=1e-3)
    assert float(gaussian_profile.tail_at(s)) <= 1e-6


def test_tail_cutoff_compact_support(indicator_profile):
    s, saturated = tail_cutoff(indicator_profile, 1e-6)
    assert not saturated
    assert 0.999999 <= s <= 1.0
    assert float(indicator_profile.tail_at(s)) <= 1e-6


def test_tail_cutoff_saturates_below_floor(indicator_profile):
    s, saturated = tail_cutoff(indicator_profile, 1e-305)
    assert saturated
    assert s == indicator_profile.s_grid[-1]


def test_tail_cutoff_monotone_in_eps(gaussian_profile):
    cuts = [tail_cutoff(gaussian_profile, e)[0]
            for e in (1e-4, 1e-6, 1e-8, 1e-10)]
    assert all(b > a for a, b in zip(cuts, cuts[1:]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.floats(-700.0, -1e-9), y=st.floats(-700.0, -1e-9))
def test_tail_cutoff_nondecreasing_as_eps_falls(gaussian_profile,
                                                indicator_profile,
                                                exp_profile, x, y):
    # eps = |phi0|_1 * e^x spans (about 1e-304, |phi0|_1), saturation included
    for profile in (gaussian_profile, indicator_profile, exp_profile):
        big = profile.l1_total * math.exp(max(x, y))
        small = profile.l1_total * math.exp(min(x, y))
        s_big, sat_big = tail_cutoff(profile, big)
        s_small, sat_small = tail_cutoff(profile, small)
        assert s_small >= s_big
        assert sat_small or not sat_big


def test_young_dual_of_quadratic():
    prof = quadratic_profile()
    dual = young_dual(prof, np.arange(0.0, 20.001, 0.5))
    # conjugate of s^2 is sigma^2/4; sup attained on-grid at sigma/2
    assert float(dual.value_at(10.0)) == 25.0
    got = dual.value_at(np.array([2.0, 5.0, 16.0]))
    assert np.allclose(got, np.array([1.0, 6.25, 64.0]), atol=1e-9)


def _increments(kind, count, step, rng):
    """p(s_{j+1}) - p(s_j) for one family of test profiles."""
    if kind == "nonconvex":
        return rng.exponential(1.0, count) * (rng.random(count) < 0.7)
    if kind == "collinear":
        return np.full(count, step * rng.integers(0, 13) / 4.0)
    if kind == "kinks":  # runs of equal slope, in any order
        slopes = rng.integers(0, 13, count // 4 + 1) / 4.0
        return step * np.repeat(slopes, 4)[:count]
    return np.zeros(count)  # "single": every node past the first saturates


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["nonconvex", "collinear", "kinks", "single"]),
       n=st.integers(2, 80), step=st.sampled_from([0.01, 0.1, 0.25, 1.0]),
       s0=st.sampled_from([0.0, 0.37]), seed=st.integers(0, 2 ** 32 - 1))
def test_young_dual_matches_brute_force(kind, n, step, s0, seed):
    rng = np.random.default_rng(seed)
    s = s0 + step * np.arange(n)
    p = rng.uniform(-3.0, 3.0) + np.concatenate(
        [[0.0], np.cumsum(_increments(kind, n - 1, step, rng))])
    p[1 if kind == "single" else int(rng.integers(1, n + 1)):] = np.inf
    profile = TailProfile(s, p, float(np.exp(-p[0])))
    sigma = np.unique(rng.uniform(0.0, 10.0, int(rng.integers(2, 60))))
    assume(sigma.size >= 2)
    got = young_dual(profile, sigma).dual_values
    sf, pf = profile.finite_part()
    want = np.max(sigma[:, None] * sf[None, :] - pf[None, :], axis=1)
    # the hull drops collinear nodes, whose rounding may differ by an ulp
    assert np.all(np.abs(got - want)
                  <= 4.0 * np.spacing(np.maximum(1.0, np.abs(want))))


def gap_profile(m, n, step=0.01, curvature=1.0, flat=1e-9):
    """A convex head curvature*s^2 on m nodes, then a slightly convex,
    nearly flat tail: pruning eats the elbow between them a few nodes per
    round, so it needs far more than ceil(log2 n) rounds to converge."""
    s = step * np.arange(n)
    t = s[m:] - s[m - 1]
    p = curvature * s * s
    p[m:] = p[m - 1] + flat * t * t + 1e-12 * t
    return TailProfile(s, p, 1.0)


def pruning_rounds(profile):
    """Rounds that dropping every vertex that does not turn left, against
    its current neighbours, takes to converge."""
    s, p = profile.finite_part()
    rounds = 0
    while s.size > 2:
        drop = ((s[1:-1] - s[:-2]) * (p[2:] - p[:-2])
                <= (p[1:-1] - p[:-2]) * (s[2:] - s[:-2]))
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        s, p, rounds = s[keep], p[keep], rounds + 1
    return rounds


def test_young_dual_is_the_monotone_chain(gaussian_profile, indicator_profile,
                                          exp_profile):
    sigma = np.arange(0.0, DUAL_GRID_MAX + 0.5 * DUAL_GRID_STEP,
                      DUAL_GRID_STEP)
    gaps = [gap_profile(m, 5300) for m in (500, 2000, 4000)]
    # the gap profiles outrun the ceil(log2 n) = 13 rounds, so the chain
    # finishes them; the shipped ones converge within the bound
    assert [pruning_rounds(prof) for prof in gaps] == [4800, 3300, 2177]
    for prof in (gaussian_profile, indicator_profile, exp_profile):
        assert pruning_rounds(prof) <= (prof.finite_count - 1).bit_length()
    for prof in (gaussian_profile, indicator_profile, exp_profile, *gaps):
        got = young_dual(prof, sigma).dual_values
        assert np.array_equal(got, monotone_chain_dual(*prof.finite_part(),
                                                       sigma))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(4, 700), head=st.floats(0.02, 0.98),
       step=st.sampled_from([0.01, 0.1, 1.0]),
       curvature=st.floats(0.01, 10.0), flat=st.floats(0.0, 1e-3))
def test_young_dual_matches_the_chain_on_gap_profiles(n, head, step,
                                                      curvature, flat):
    profile = gap_profile(max(2, int(head * n)), n, step, curvature, flat)
    top = 2.0 * curvature * step * n
    sigma = np.linspace(0.0, top, 257)
    got = young_dual(profile, sigma).dual_values
    sf, pf = profile.finite_part()
    assert np.array_equal(got, monotone_chain_dual(sf, pf, sigma))
    want = np.max(sigma[:, None] * sf[None, :] - pf[None, :], axis=1)
    assert np.all(np.abs(got - want)
                  <= 4.0 * np.spacing(np.maximum(1.0, np.abs(want))))


def test_fenchel_young_inequality_on_gaussian(gaussian_profile):
    dual = young_dual(gaussian_profile, np.arange(0.0, 64.001, 0.01))
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 20.0, 400)
    sigma = rng.uniform(0.0, 30.0, 400)
    lhs = gaussian_profile.p_at(s) + dual.value_at(sigma)
    assert np.all(lhs >= s * sigma - 1e-9)


def _shipped_dual(profile):
    return young_dual(profile, np.arange(0.0, 64.001, 0.01))


def test_growth_integral_against_closed_forms():
    prof = quadratic_profile()
    sf, pf = prof.finite_part()
    log_g = _log_trapz(np.array([[0.0], [4.0]]) * sf - pf, sf)
    assert math.isclose(math.exp(log_g[0]), math.sqrt(math.pi) / 2.0,
                        rel_tol=1e-6)
    want = math.exp(4.0) * math.sqrt(math.pi) / 2.0 * (1.0 + math.erf(2.0))
    # trapezoid on step 0.01 against the exact erf antiderivative
    assert math.isclose(math.exp(log_g[1]), want, rel_tol=1e-6)
    # |t| e^{-t^2} has this profile: its mass beyond s is e^{-s^2}
    t = 0.01 * np.arange(-800, 801)
    kernel = SampledSignal(t[0], 0.01, np.abs(t) * np.exp(-t * t))
    check = growth_check(kernel, prof, _shipped_dual(prof), [4.0])
    assert check.log_g[0] == log_g[1]
    assert not check.divergent[0]
    assert detect_superlinear(prof).verdict


def test_growth_integral_reaches_the_support_edge(indicator_kernel,
                                                  indicator_profile):
    # chi_[0, 1] has G(s) = (e^s - 1 - s) / s^2 and H(s) = (e^s - 1) / s.
    # G's last cell ends at the first saturated node, the support edge, so
    # G is off by H's own trapezoid error (0.083% and 0.33%), not by the
    # dropped cell (0.54% and 1.97%)
    s = np.array([20.0, 40.0])
    check = growth_check(indicator_kernel, indicator_profile,
                         _shipped_dual(indicator_profile), s)
    g_err = np.exp(check.log_g) / ((np.expm1(s) - s) / (s * s)) - 1.0
    h_err = np.exp(check.log_h) / (np.expm1(s) / s) - 1.0
    assert np.all(h_err < 0.004)
    assert np.all(np.abs(g_err) <= 1.01 * h_err)
    assert np.all(np.abs(check.moment_gap) <= 2.01 * h_err)


def test_log_trapz_clamp_moves_no_bit():
    # shifted exponents down to -3000: raising those below -700 to it must
    # leave every sum, and so every log, as the unclamped formula gives it
    x = np.linspace(0.0, 60.0, 4001)
    expo = np.stack([50.0 * x - x * x, -50.0 * x,
                     np.where(x < 30.0, -np.inf, x)])
    m = np.max(expo, axis=1)
    with np.errstate(under="ignore"):
        y = np.exp(expo - m[:, None])
    want = m + np.log(0.5 * np.sum(np.diff(x) * (y[:, :-1] + y[:, 1:]),
                                   axis=1))
    assert np.array_equal(_log_trapz(expo, x), want)


def test_linear_profile_is_not_superlinear_and_diverges(exp_kernel,
                                                        exp_profile):
    # p(s) = s - log 2: G(s) grows like the integral of e^{(s - 1) t}
    assert not detect_superlinear(exp_profile).verdict
    check = growth_check(exp_kernel, exp_profile, _shipped_dual(exp_profile),
                         [2.0])
    assert check.divergent[0]


def test_moment_identity_on_gaussian(gaussian_kernel, gaussian_profile):
    # H(s) = l1 + s G(s) ties the moment to the growth integral
    check = growth_check(gaussian_kernel, gaussian_profile,
                         _shipped_dual(gaussian_profile), [0.5, 1.0, 2.0, 5.0])
    assert np.all(np.abs(check.moment_gap) <= 1e-3)
    assert not check.truncation_dominated.any()


def test_moment_flags_truncation_domination(exp_kernel, exp_profile):
    check = growth_check(exp_kernel, exp_profile, _shipped_dual(exp_profile),
                         [2.0])
    # e^{2|t|} e^{-|t|} keeps growing: off-grid mass dominates the result
    assert check.truncation_dominated[0]


def test_dual_growth_ratios_near_one(gaussian_kernel, gaussian_profile):
    check = growth_check(gaussian_kernel, gaussian_profile,
                         _shipped_dual(gaussian_profile), [10.0, 20.0, 40.0])
    assert 0.9 <= check.dual_ratio[1] <= 1.1
    assert abs(check.dual_ratio[2] - 1.0) < abs(check.dual_ratio[1] - 1.0)
    assert np.all(check.shifted_ratio <= 1.05)
    assert not check.divergent.any()


def test_growth_check_preconditions(indicator_kernel, indicator_profile):
    dual = _shipped_dual(indicator_profile)
    for s_list in ([-1.0], [[20.0]], [math.nan]):
        with pytest.raises(ValidationError):
            growth_check(indicator_kernel, indicator_profile, dual, s_list)
    # p*(0) = log 0.5 < 0: the ratio has no meaning there
    half = make_indicator(0.0, 0.5, 0.005)
    profile = tail_mass_profile(half, default_profile_grid(half))
    with pytest.raises(ValidationError, match=r"p\*\(s\) > 0"):
        growth_check(half, profile, _shipped_dual(profile), [0.0, 20.0])
    # one finite node: no trapezoid cell, no slope for the divergence flag
    two = SampledSignal(0.0, 0.5, np.array([1.0, 1.0]))
    profile = tail_mass_profile(two, default_profile_grid(two))
    with pytest.raises(ValidationError, match="two finite nodes"):
        growth_check(two, profile, _shipped_dual(profile), [20.0])


def test_detector_verdicts(gaussian_profile, exp_profile, indicator_profile):
    assert detect_superlinear(gaussian_profile).verdict
    assert detect_superlinear(gaussian_profile).strictly_increasing
    assert not detect_superlinear(exp_profile).verdict
    # mass vanishing at the support edge forces p to blow up superlinearly
    assert detect_superlinear(indicator_profile).verdict


def test_detector_stable_under_grid_halving():
    from deconv.kernels import (default_profile_grid, make_gaussian,
                                make_two_sided_exp)
    for make, want in ((make_gaussian, True), (make_two_sided_exp, False)):
        verdicts = []
        for step in (0.005, 0.01):
            k = make(1.0, step)
            prof = tail_mass_profile(k, default_profile_grid(k))
            verdicts.append(detect_superlinear(prof).verdict)
        assert verdicts[0] == verdicts[1] == want


def test_profile_validation():
    s = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValidationError):
        TailProfile(s, np.array([0.0, np.inf, 1.0]), 1.0)  # inf not a suffix
    with pytest.raises(ValidationError):
        TailProfile(s, np.array([0.0, 1.0, 0.5]), 1.0)  # decreasing p
    with pytest.raises(ValidationError):
        # p(0) must match the declared total mass
        TailProfile(s, np.array([1.0, 2.0, 3.0]), l1_total=1.0)
    with pytest.raises(ValidationError):
        DualProfile(s, np.array([0.0, 2.0, 1.0]))  # not nondecreasing
    with pytest.raises(ValidationError):
        DualProfile(s, np.array([0.0, 2.0, 3.0]))  # concave
    with pytest.raises(ValidationError):
        DualProfile(s, np.array([0.0, 1.0, 2.0])).value_at(2.5)


def test_dual_profile_allows_slope_rounding_at_close_points():
    # sigma 6.1 and 6.1 + 3e-8 sit on the sloped branch 0.1 sigma - 0.1:
    # each slope there is good to about 2 ulp / 3e-8, beyond 1e-9
    sigma = np.array([0.0, 6.1, 6.1 + 3e-8, 10.0])
    dual = young_dual(TailProfile(np.array([0.0, 0.1]),
                                  np.array([0.0, 0.1]), 1.0), sigma)
    assert np.allclose(dual.dual_values, np.maximum(0.0, 0.1 * sigma - 0.1),
                       rtol=0.0, atol=1e-15)


def test_dual_profile_rejects_a_dip_on_the_shipped_grid():
    sigma = np.arange(0.0, DUAL_GRID_MAX + 0.5 * DUAL_GRID_STEP,
                      DUAL_GRID_STEP)  # analyze-kernel's dual grid
    values = np.maximum(0.0, 0.1 * sigma - 0.1)
    values[3000] -= 1e-6  # on the straight branch: slopes step by -2e-4
    with pytest.raises(ValidationError, match="convex"):
        DualProfile(sigma, values)


def test_bisect_halves_either_bracket_order():
    # edge of x >= 0.3; the true end may be given first or second
    a, b = bisect(lambda x: x >= 0.3, 0.0, 1.0, atol=1e-6)
    assert a < 0.3 <= b and b - a <= 1e-6
    a, b = bisect(lambda x: x < 0.3, 1.0, 0.0, atol=1e-6)
    assert b < 0.3 <= a and a - b <= 1e-6


def test_bisect_stops_on_atol_and_on_rtol():
    calls = []

    def inside(x):
        calls.append(x)
        return x > 1000.5

    # width 1024 halves to 1 in exactly 10 steps, first to <= 1
    a, b = bisect(inside, 0.0, 1024.0, atol=1.0)
    assert len(calls) == 10 and b - a == 1.0
    # rtol scales with |b|: 1e-3 of ~1000.5 stops at width 1 as well
    calls.clear()
    a, b = bisect(inside, 0.0, 1024.0, rtol=1e-3)
    assert len(calls) == 10 and b - a == 1.0
    calls.clear()
    a, b = bisect(inside, 0.0, 1024.0, atol=2.0, rtol=1e-3)
    assert len(calls) == 9 and b - a == 2.0
    # a bracket already inside the tolerance is returned untouched
    calls.clear()
    assert bisect(inside, 3.0, 3.5, atol=0.5) == (3.0, 3.5)
    assert calls == []


@pytest.mark.parametrize("atol, rtol", [(1e-9, 0.0), (0.0, 1e-12),
                                        (1e-6, 1e-9)])
def test_bisect_halves_arrays_of_brackets_in_lockstep(atol, rtol):
    def inside(x):
        return x * x > 2.0

    # mixed widths, both orders, and one bracket converged from the start
    a = np.array([0.0, 1.4, -1.0, 1.0, 3.0, 1.41421])
    b = np.array([8.0, 1.42, -3.0, 1.5, 1.0, 1.41422])
    sizes = []

    def batch(x):
        sizes.append(x.size)
        return inside(x)

    a_out, b_out = bisect(batch, a, b, atol=atol, rtol=rtol)
    steps = []
    for i in range(a.size):
        calls = []

        def one(x):
            calls.append(x)
            return inside(x)

        sa, sb = bisect(one, float(a[i]), float(b[i]), atol=atol, rtol=rtol)
        assert type(sa) is float and type(sb) is float
        assert (a_out[i], b_out[i]) == (sa, sb)
        steps.append(len(calls))
    # one call per halving; a bracket leaves the batch once it has converged
    assert len(sizes) == max(steps)
    assert sizes == [sum(n > k for n in steps) for k in range(len(sizes))]
    # the inputs are not written to
    assert a[0] == 0.0 and b[0] == 8.0


def test_bisect_of_no_brackets_calls_nothing():
    def never(x):
        raise AssertionError("called")

    a, b = bisect(never, np.empty(0), np.empty(0), atol=1e-3)
    assert a.size == 0 and b.size == 0
