"""Acceptance suite: one test per criterion, in the stated order.

Each test name carries the criterion number so the -v report reads as a
checklist.  Criterion 3 checks the asymptotic radius law as eps -> 0: the
sweep's radii are anchored to an independent root of the radius equation,
and that root carries the ratio to where the limit is reached, since no
representable eps comes close to it.
"""

import json
import math

import numpy as np
import pytest

import deconv.entire_diagnostics as ed
from deconv.commands import cmd_deconvolve, cmd_smallset
from deconv.config import parse_config
from deconv.grid_signal import (SampledSignal, TransformSamples,
                                _symmetric_grid, fourier_at, fourier_grid,
                                inverse_fourier, l2_norm)
from deconv.kernels import (default_profile_grid, make_gaussian,
                            make_indicator, make_two_sided_exp)
from deconv.regularization import (error_decomposition, run_single,
                                   run_sweep, smooth_spectrum,
                                   solve_frequency_radius, tikhonov_filter)
from deconv.small_sets import cartan_bound, measure_small_set
from deconv.tail_profile import (TailProfile, detect_superlinear,
                                 growth_check, tail_cutoff,
                                 tail_mass_profile, young_dual)

from _oracles import (gauss_hat, indicator_hat, log_radius_root,
                      trapezoid_laplace_zeros)

GAUSS_EPS = (1e-4, 1e-6, 1e-8, 1e-10)
SWEEP_EPS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


@pytest.fixture(scope="module")
def gaussian_runs(gaussian_instance):
    return {eps: run_single(gaussian_instance, eps) for eps in GAUSS_EPS}


@pytest.fixture(scope="module")
def indicator_sweep(indicator_instance):
    return run_sweep(indicator_instance, list(SWEEP_EPS))


def test_criterion_01_error_bound_with_finer_grid_oracle(gaussian_runs,
                                                         gaussian_instance):
    """Achieved squared error within the three-term certificate, up to the
    rounding bound of its sums, at every eps; integrals reproduced on 4x
    finer grids at eps = 1e-6."""
    for eps in GAUSS_EPS:
        d = gaussian_runs[eps].decomposition
        assert d.holds

    res = gaussian_runs[1e-6]
    step, half = gaussian_instance.grids.freq_step, res.f0_hat.half_count
    lam4 = _symmetric_grid(step / 4.0, 4 * half)
    f0_hat_4 = TransformSamples(step / 4.0,
                                smooth_spectrum(lam4, gaussian_instance.q)
                                .astype(np.complex128))
    phi0_hat_4 = TransformSamples(step / 4.0,
                                  fourier_at(gaussian_instance.kernel, lam4))
    base = res.decomposition
    outer4, inner4 = error_decomposition(f0_hat_4, phi0_hat_4, base.plan)
    assert math.isclose(outer4, base.outer_term, rel_tol=1e-3)
    assert inner4 == base.inner_term == 0.0

    t_min, t_step, t_count = gaussian_instance.time_grid()
    g_hat = fourier_grid(res.g_eps, step, half)
    phi_hat = fourier_grid(res.phi_eps, step, half)
    f_hat = tikhonov_filter(g_hat, phi_hat, base.plan.delta)
    step4, count4 = t_step / 4.0, 4 * (t_count - 1) + 1
    f0_fine = inverse_fourier(res.f0_hat, t_min, step4, count4)
    f_eps_fine = inverse_fourier(f_hat, t_min, step4, count4)
    ach4 = l2_norm(SampledSignal(t_min, step4,
                                 f0_fine.values - f_eps_fine.values))
    assert math.isclose(ach4 ** 2, base.achieved_sq_error, rel_tol=1e-3)


def test_criterion_02_convergence_rate(indicator_sweep):
    """C3 fit stable within a factor 10 over the last three rows; achieved
    error nonincreasing up to one inversion."""
    sweep = indicator_sweep
    assert len(sweep.records) == len(SWEEP_EPS)
    assert sweep.failures == ()
    assert sweep.c3_stability <= 10.0
    assert sweep.inversions <= 1
    assert sweep.bound_violations == 0


def test_criterion_03_asymptotic_radius(indicator_sweep, indicator_instance):
    """log R / log log(1/eps) within 0.15 of 1 in the limit eps -> 0.

    With the indicator's s_eps pinned at 1 the radius equation makes R grow
    like log(1/eps) / log log(1/eps) through small constants, so the ratio
    is -0.34 at the sweep's last row (eps = 1e-14), still 0.19 at
    eps = 1e-300, and first within 0.15 of 1 near log(1/eps) = 1e22.  A
    value at representable eps is therefore not the test.  Instead every
    sweep radius must equal an independent log-space root of the same
    equation, radius and ratio must grow as eps falls, and that root, with
    the sweep's own parameters, must bring the ratio within 0.15 of 1 along
    log(1/eps) = 10^k from k = 22 on.
    """
    beta, q = indicator_instance.beta, indicator_instance.q
    phi0_l1 = indicator_instance.profile.l1_total
    records = indicator_sweep.records
    assert len(records) == len(SWEEP_EPS)

    # anchor: bounded support keeps s_eps at 1, and each R_eps is the root
    ratios = []
    for rec in records:
        assert math.isclose(rec.plan.s_eps, 1.0, rel_tol=1e-12)
        log_inv_eps = -math.log(rec.plan.eps)
        root = log_radius_root(log_inv_eps, beta, q, rec.plan.s_eps, phi0_l1)
        assert math.isclose(rec.plan.r_eps, math.exp(root), rel_tol=1e-10)
        ratios.append(math.log(rec.plan.r_eps) / math.log(log_inv_eps))

    # direction on the sweep: radius and ratio grow as eps falls, below 1
    radii = [rec.plan.r_eps for rec in records]
    assert all(a < b for a, b in zip(radii, radii[1:]))
    assert all(a < b < 1.0 for a, b in zip(ratios, ratios[1:]))
    assert math.isclose(indicator_sweep.logr_over_loglog, ratios[-1],
                        rel_tol=1e-12)

    # the limit: the ratio rises strictly toward 1 along log(1/eps) = 10^k
    s_eps = records[-1].plan.s_eps
    limit = {k: log_radius_root(10.0 ** k, beta, q, s_eps, phi0_l1)
             / math.log(10.0 ** k) for k in range(1, 121)}
    assert all(limit[k] < limit[k + 1] < 1.0 for k in range(1, 120))
    for k in range(22, 121):
        assert abs(limit[k] - 1.0) <= 0.15


def test_criterion_04_small_set_bound(indicator_profile, indicator_kernel,
                                      gaussian_profile, gaussian_kernel):
    """Measured sub-threshold set within the theoretical ceiling on both
    fixtures at eps = 1e-8; 10x-finer closed-form oracle agrees."""
    eps, beta, q = 1e-8, 0.2, 1.0
    threshold = eps ** beta
    cases = [
        (indicator_kernel, indicator_profile, indicator_hat),
        (gaussian_kernel, gaussian_profile, gauss_hat),
    ]
    for kernel, profile, hat_oracle in cases:
        s_eps, saturated = tail_cutoff(profile, eps)
        assert not saturated
        r = solve_frequency_radius(eps, beta, q, s_eps, profile.l1_total)
        measured = measure_small_set(lambda lam: fourier_at(kernel, lam),
                                     threshold, r, r / 2e4)
        oracle = measure_small_set(hat_oracle, threshold, r, r / 2e5)
        assert measured.measure_estimate <= cartan_bound(q, r)
        if oracle.measure_estimate == 0.0:
            assert measured.measure_estimate == 0.0
        else:
            assert math.isclose(measured.measure_estimate,
                                oracle.measure_estimate, rel_tol=0.05)


def test_criterion_05_dual_growth(gaussian_kernel, gaussian_profile):
    """log G(s) tracks p*(s) within 10% at s = 20, tighter at s = 40; the
    kappa-shifted ratio stays at most 1.05."""
    dual = young_dual(gaussian_profile, np.arange(0.0, 64.001, 0.01))
    check = growth_check(gaussian_kernel, gaussian_profile, dual,
                         np.array([20.0, 40.0]))
    assert 0.90 <= check.dual_ratio[0] <= 1.10
    assert abs(check.dual_ratio[1] - 1.0) < abs(check.dual_ratio[0] - 1.0)
    assert np.all(check.shifted_ratio <= 1.05)
    assert not check.divergent.any()


def test_criterion_06_moment_identity(gaussian_kernel, gaussian_profile):
    """H(s) = l1 + s G(s) within 1e-3 relative at s in {0.5, 1, 2, 5}."""
    dual = young_dual(gaussian_profile, np.arange(0.0, 64.001, 0.01))
    check = growth_check(gaussian_kernel, gaussian_profile, dual,
                         [0.5, 1.0, 2.0, 5.0])
    assert np.all(np.abs(check.moment_gap) <= 1e-3)


def test_criterion_07_growth_exponents():
    """Support edges of indicator(0.3, 0.8) recovered to 0.05 at R = 200."""
    kernel = make_indicator(0.3, 0.8, 0.005)
    est = ed.growth_profile(kernel, np.linspace(10.0, 200.0, 20))
    assert abs(est.sigma_hat - 0.8) <= 0.05
    assert abs(est.mu_hat - 0.3) <= 0.05


def test_criterion_08_zero_density(indicator_kernel):
    """n(100) = 30 on the exact 2 pi k lattice, density within 10% of 1/pi,
    and the certified count 2 floor(r / 2 pi) at every tested radius."""
    assert ed.zero_density(indicator_kernel, 100.0).counts.tolist() == [30]
    density = 30.0 / 100.0
    assert abs(density - 1.0 / math.pi) <= 0.10 / math.pi
    radii = np.array([20.0, 40.0, 60.0, 80.0, 100.0])
    report = ed.zero_density(indicator_kernel, radii)
    assert report.counts.tolist() == [2 * math.floor(r / (2.0 * math.pi))
                                      for r in radii]


@pytest.mark.parametrize("a,b,want", [
    (0.0, 1.0, [6, 12, 18, 24, 30]),
    (0.3, 0.8, [2, 6, 8, 12, 14]),
])
def test_criterion_08_counts_match_polynomial_roots(a, b, want):
    """Contour counts equal the root count of the transform's polynomial
    in e^{zh}, with every root well clear of the counting circles."""
    kernel = make_indicator(a, b, 0.005)
    radii = (20.0, 40.0, 60.0, 80.0, 100.0)
    zeros = trapezoid_laplace_zeros(kernel.spacing, kernel.values, 101.0)
    roots = [int(np.sum(np.abs(zeros) <= r)) for r in radii]
    assert roots == want
    assert ed.zero_density(kernel, radii).counts.tolist() == roots
    for r in radii:
        assert np.min(np.abs(np.abs(zeros) - r)) >= 0.1


def test_criterion_09_condition_detector():
    """Superlinear verdicts: gaussian true, two-sided exponential false,
    both stable under grid halving."""
    for make, want in ((make_gaussian, True), (make_two_sided_exp, False)):
        for step in (0.005, 0.01):
            kernel = make(1.0, step)
            profile = tail_mass_profile(kernel, default_profile_grid(kernel))
            assert detect_superlinear(profile).verdict is want


def test_criterion_10_fenchel_young_and_convexity(gaussian_profile,
                                                  indicator_profile,
                                                  exp_profile):
    """p(s) + p*(sigma) >= s sigma over 1000 random pairs on 5 profiles;
    every dual is convex along its grid."""
    s64 = 0.01 * np.arange(6401)
    s32 = 0.01 * np.arange(3201)
    profiles = [gaussian_profile, indicator_profile, exp_profile,
                TailProfile(s64, s64 * s64, 1.0),
                TailProfile(s32, s32 - math.log(2.0), 2.0)]
    rng = np.random.default_rng(20240817)
    sigma_grid = np.arange(0.0, 40.0001, 0.02)
    for profile in profiles:
        dual = young_dual(profile, sigma_grid)
        d2 = np.diff(dual.dual_values, 2)
        assert np.min(d2) >= -1e-8 * max(1.0, float(np.max(dual.dual_values)))
        sf, _ = profile.finite_part()
        s = rng.uniform(0.0, 0.9 * float(sf[-1]), 1000)
        sigma = rng.uniform(0.0, 40.0, 1000)
        gap = profile.p_at(s) + dual.value_at(sigma) - s * sigma
        assert np.min(gap) >= -1e-9 * max(1.0, float(np.max(s * sigma)))


def test_criterion_11_determinism(tmp_path):
    """Identical config and seed give byte-identical outputs, twice over."""
    config = parse_config({
        "kernel": {"type": "indicator", "a": 0.0, "b": 1.0},
        "f0": {"type": "synth_smooth"},
        "eps_list": [1e-4, 1e-5, 1e-6, 1e-7],
        "beta": 0.2,
        "q": 1.0,
        "seed": 20240817,
        "grids": {"t_extent": 10.0, "t_step": 0.01,
                  "freq_extent_factor": 60.0, "freq_step": 0.01},
    })
    pairs = []
    for label in ("a", "b"):
        out = tmp_path / ("deconv_" + label)
        cmd_deconvolve(config, str(out), eps=1e-6)
        pairs.append(out)
    for name in ("plan.json", "reconstruction.csv", "decomposition.json"):
        assert ((pairs[0] / name).read_bytes()
                == (pairs[1] / name).read_bytes())
    manifests = []
    for out in pairs:
        with open(out / "manifest.json", "r", encoding="utf-8") as fh:
            data = json.load(fh)
        data.pop("wall_clock_seconds")
        manifests.append(data)
    assert manifests[0] == manifests[1]

    small = []
    for label in ("a", "b"):
        out = tmp_path / ("smallset_" + label)
        manifest = cmd_smallset(config, str(out), eps=1e-6)
        manifest.pop("wall_clock_seconds")
        small.append(((out / "smallset.json").read_bytes(), manifest))
    assert small[0] == small[1]
    assert "notes" not in small[0][1]
