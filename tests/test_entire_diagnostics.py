"""Growth exponents, certified zero counts, zero density."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import deconv.entire_diagnostics as ed
from _oracles import (direct_sums, full_circle_winding,
                      trapezoid_laplace_zeros)
from deconv.commands import ZERO_RADII
from deconv.errors import PhaseTrackingError, ValidationError
from deconv.grid_signal import SampledSignal, _laplace_error, laplace_parts
from deconv.kernels import make_indicator

GROWTH_RADII = np.linspace(10.0, 400.0, 40)


@pytest.fixture(scope="module")
def chi38():
    return make_indicator(0.3, 0.8, 0.005)


@pytest.fixture(scope="module")
def triangle():
    t = make_indicator(0.0, 1.0, 0.005).grid()
    return SampledSignal(0.0, 0.005, 1.0 - np.abs(2.0 * t - 1.0))


@pytest.fixture(scope="module")
def step_kernel():
    """1 on [0, 0.3), 0.5 on [0.3, 1]: real, but not symmetric about 1/2."""
    return SampledSignal(0.0, 0.005, np.where(np.arange(201) < 60, 1.0, 0.5))


def test_growth_of_unit_indicator(indicator_kernel):
    est = ed.growth_profile(indicator_kernel, GROWTH_RADII)
    # support edges 0 and 1; the log R / R correction is still visible at 400
    assert math.isclose(est.sigma_hat, 0.985702, abs_tol=1e-4)
    assert math.isclose(est.mu_hat, 0.014298, abs_tol=1e-4)
    assert 0.9 <= est.sigma_hat <= 1.0
    assert abs(est.mu_hat) <= 0.05
    assert np.isfinite(est.log_ratio_pos).all()
    assert np.isfinite(est.log_ratio_neg).all()


def test_growth_ratios_at_radius_fifty(indicator_kernel):
    est = ed.growth_profile(indicator_kernel, GROWTH_RADII)
    idx = int(np.argmin(np.abs(est.radii - 50.0)))
    assert est.radii[idx] == 50.0
    assert math.isclose(est.log_ratio_pos[idx], 0.9219, abs_tol=1e-3)
    assert math.isclose(est.log_ratio_neg[idx], -0.0781, abs_tol=1e-3)


def test_growth_of_shifted_indicator(chi38):
    est = ed.growth_profile(chi38, GROWTH_RADII)
    assert abs(est.sigma_hat - 0.8) <= 0.05
    assert abs(est.mu_hat - 0.3) <= 0.05
    assert math.isclose(est.sigma_hat, 0.785702, abs_tol=1e-4)
    assert math.isclose(est.mu_hat, 0.314298, abs_tol=1e-4)


def test_growth_of_a_skewed_step():
    # 1 on [0.2, 0.5), 0.5 on [0.5, 0.9]: no symmetry ties the two axes, and
    # each estimate sits inside its support edge by the log R / R correction
    i = np.arange(201)
    values = np.where((i >= 40) & (i < 100), 1.0,
                      np.where((i >= 100) & (i <= 180), 0.5, 0.0))
    est = ed.growth_profile(SampledSignal(0.0, 0.005, values), GROWTH_RADII)
    assert 0.87 <= est.sigma_hat < 0.9
    assert 0.2 < est.mu_hat <= 0.23


def test_growth_never_exceeds_the_support_bound(indicator_kernel):
    # |Phi(R)| <= e^{sigma R} l1 pointwise; quadrature slack is (R h)^2 / 12
    est = ed.growth_profile(indicator_kernel, GROWTH_RADII)
    assert np.all(est.log_ratio_pos <= 1.0 + 1e-3)
    assert np.all(est.log_ratio_neg <= 1e-3)


def test_growth_preconditions(gaussian_kernel, indicator_kernel):
    with pytest.raises(ValidationError):
        ed.growth_profile(gaussian_kernel, GROWTH_RADII)  # off-grid mass
    wide = make_indicator(-0.5, 0.5, 0.005)
    with pytest.raises(ValidationError):
        ed.growth_profile(wide, GROWTH_RADII)  # support leaves [0, 1]
    zero = SampledSignal(0.0, 0.01, np.zeros(101))
    with pytest.raises(ValidationError):
        ed.growth_profile(zero, GROWTH_RADII)
    with pytest.raises(ValidationError):
        ed.growth_profile(indicator_kernel, np.array([10.0, 20.0]))
    with pytest.raises(ValidationError):
        ed.growth_profile(indicator_kernel, np.array([10.0, 5.0, 20.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_radii_are_refused(indicator_kernel, bad):
    # a NaN slips past an ordering test, and an infinite circle has no
    # count: both are refused before any transform is evaluated
    with pytest.raises(ValidationError, match="finite"):
        ed.zero_density(indicator_kernel, [10.0, bad])
    with pytest.raises(ValidationError, match="finite"):
        ed.zero_density(indicator_kernel, bad)
    with pytest.raises(ValidationError, match="finite"):
        ed.growth_profile(indicator_kernel, [10.0, 20.0, 30.0, bad])


def test_zero_counts_on_the_lattice(indicator_kernel):
    # the sampled transform of chi_[0,1] vanishes exactly at 2 pi k
    assert ed.zero_density(indicator_kernel, 10.0).counts.tolist() == [2]
    assert ed.zero_density(indicator_kernel, 100.0).counts.tolist() == [30]


# pi to 21 digits, enough to place the float radii below against 2 pi k
PI_BELOW, PI_ABOVE = (Fraction("3.14159265358979323846"),
                      Fraction("3.14159265358979323847"))


def _lattice_count(kernel, r):
    """Zeros inside |z| <= r of the sampled unit indicator, exactly: they
    sit at 2 pi i m / (n h), m != 0, for n + 1 samples at step h."""
    turns = Fraction(r) * (kernel.size - 1) * Fraction(kernel.spacing) / 2
    below, above = turns / PI_ABOVE, turns / PI_BELOW
    assert math.floor(below) == math.floor(above), "radius too close to call"
    return 2 * math.floor(below)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("offset", [-1e-9, 0.0, 1e-9])
def test_a_contour_near_a_zero_is_counted_right_or_raises(indicator_kernel,
                                                          k, offset):
    # the circle passes 1e-9 from, or through, the zero pair at +/- 2 pi k i
    r = 2.0 * math.pi * k + offset
    try:
        count = ed.zero_density(indicator_kernel, r).counts[0]
    except PhaseTrackingError:
        assert offset == 0.0  # 1e-9 clears the rounding bound by far
        return
    assert count == _lattice_count(indicator_kernel, r)


def test_phase_tracking_failure_surfaces(indicator_kernel, monkeypatch):
    # a rounding bound above every sample: no arc can be certified
    monkeypatch.setattr(ed, "_laplace_error", lambda signal, zs: np.full(
        np.shape(zs), 1e300))
    with pytest.raises(PhaseTrackingError):
        ed.zero_density(indicator_kernel, 10.0)


def test_refinement_ends_on_a_vanishing_transform():
    # |Phi| = 0 everywhere: every arc fails, and the cuts stop once they
    # are within rounding instead of refining forever
    zero = SampledSignal(0.0, 0.01, np.zeros(101))
    with pytest.raises(PhaseTrackingError):
        ed.zero_density(zero, 10.0)
    with pytest.raises(PhaseTrackingError):
        ed.zero_density(zero, np.array([5.0, 10.0]))


def test_zero_density_of_unit_indicator(indicator_kernel):
    report = ed.zero_density(indicator_kernel,
                             np.array([20.0, 40.0, 60.0, 80.0, 100.0]))
    assert report.counts.tolist() == [6, 12, 18, 24, 30]
    assert np.all(report.counts % 2 == 0)  # conjugate-symmetric zeros
    assert math.isclose(report.d_hat, math.pi * 0.3, rel_tol=1e-12)


def test_zero_density_of_shifted_indicator(chi38):
    report = ed.zero_density(chi38, np.array([50.0, 100.0, 150.0]))
    assert report.counts.tolist() == [6, 14, 22]
    assert math.isclose(report.d_hat, math.pi * 22.0 / 150.0, rel_tol=1e-12)
    # support length 0.5; the lattice spacing 4 pi puts d_hat within 15%
    assert abs(report.d_hat - 0.5) <= 0.15 * 0.5


def test_count_zeros_preconditions(indicator_kernel, gaussian_kernel):
    # the refusals of a count at a single radius
    for r in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            ed.zero_density(indicator_kernel, r)
    with pytest.raises(ValidationError):  # off-grid mass
        ed.zero_density(gaussian_kernel, 10.0)


def test_zero_density_preconditions(indicator_kernel):
    # one radius is a table of one row
    report = ed.zero_density(indicator_kernel, np.array([10.0]))
    assert report.counts.tolist() == [2]
    assert math.isclose(report.d_hat, math.pi * 0.2, rel_tol=1e-12)
    for radii in ([], [20.0, 10.0], [[10.0, 20.0]]):
        with pytest.raises(ValidationError):
            ed.zero_density(indicator_kernel, radii)


def test_zero_report_validation():
    r = np.array([1.0, 2.0])
    with pytest.raises(ValidationError):
        ed.ZeroCountReport(r, np.array([3, 2]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(17, 257), seed=st.integers(0, 2 ** 32 - 1),
       re=st.floats(-200.0, 200.0), im=st.floats(-200.0, 200.0))
def test_laplace_parts_of_a_real_kernel_is_conjugate_symmetric(n, seed,
                                                               re, im):
    # the half-circle in _winding_attempt rests on this, bit for bit
    rng = np.random.default_rng(seed)
    kernel = SampledSignal(0.0, 1.0 / (n - 1), rng.standard_normal(n))
    z = np.array([complex(re, im)])
    log_scale, reduced = laplace_parts(kernel, z)
    mirror_scale, mirror = laplace_parts(kernel, np.conj(z))
    assert np.array_equal(mirror, np.conj(reduced))
    assert np.array_equal(mirror_scale, log_scale)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(17, 257), seed=st.integers(0, 2 ** 32 - 1),
       t_min=st.floats(-1.0, 1.0), re=st.floats(-200.0, 200.0),
       im=st.floats(-200.0, 200.0))
def test_laplace_parts_of_a_palindromic_kernel_reflects(n, seed, t_min,
                                                        re, im):
    # the quarter circle in _winding_attempt rests on this: with centre c,
    # Phi(z) = e^{2cz} conj Phi(-conj z) for real samples symmetric about c
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(n)
    kernel = SampledSignal(t_min, 1.0 / (n - 1), half + half[::-1])
    c = 0.5 * (kernel.t_min + kernel.t_max)
    z = np.array([complex(re, im)])
    log_scale, reduced = laplace_parts(kernel, z)
    mirror_scale, mirror = laplace_parts(kernel, -np.conj(z))
    shifted = mirror_scale + 2.0 * c * re
    assert abs(log_scale[0] - shifted[0]) <= 1e-12 * max(1.0, abs(log_scale[0]))
    reflected = (np.conj(mirror) * np.exp(2j * c * im)
                 * np.exp(shifted - log_scale))
    # relative to the sum of the moduli of the reduced sum's terms
    t = kernel.grid()
    size = kernel.spacing * np.sum(np.abs(kernel.values)
                                   * np.exp(re * t - log_scale[0]))
    assert abs(reduced[0] - reflected[0]) <= 1e-12 * size


@pytest.mark.parametrize("r,n", [(r, int(math.ceil(64.0 * r)))
                                 for r in (20.0, 40.0, 60.0, 80.0, 100.0)]
                         + [(10.01, 642), (20.01, 1282)])
def test_mirrored_winding_matches_the_full_circle(indicator_kernel, chi38,
                                                  triangle, step_kernel, r, n):
    # the half and quarter contours stand for the whole circle, which the
    # oracle sums directly at n points with no symmetry used
    for kernel in (indicator_kernel, chi38, triangle, step_kernel):
        want_winding, want_step = full_circle_winding(kernel, r, n)
        assert want_step <= math.pi / 4.0
        assert abs(want_winding - round(want_winding)) <= 1e-9
        assert ed.zero_density(kernel, r).counts[0] == round(want_winding)


@pytest.fixture
def contour_points(monkeypatch):
    """The (signal, points) pairs the zero counter hands to laplace_parts."""
    calls = []
    original = ed.laplace_parts

    def counting(signal, zs):
        calls.append((signal, np.asarray(zs)))
        return original(signal, zs)

    monkeypatch.setattr(ed, "laplace_parts", counting)
    return calls


def _sampled(calls, kernel):
    """The transform's sample points, one array per round; every round
    also makes one call on |f| |t - c| at the same points' Re z."""
    assert len(calls) % 2 == 0
    assert all(a[0] is kernel and b[0] is not kernel
               and np.array_equal(b[1], a[1].real)
               for a, b in zip(calls[::2], calls[1::2]))
    return [zs for _signal, zs in calls[::2]]


def test_a_complex_kernel_counts_on_the_full_circle(contour_points):
    # Phi(z) is the unit indicator's transform at z + 2i: no conjugate
    # symmetry, so the lower half-circle has to be sampled
    base = make_indicator(0.0, 1.0, 0.005)
    kernel = SampledSignal(base.t_min, base.spacing,
                           base.values * np.exp(2j * base.grid()))
    assert not kernel.is_real()
    radii = (20.0, 40.0, 60.0, 80.0, 100.0)
    zeros = trapezoid_laplace_zeros(kernel.spacing, kernel.values, 101.0)
    for r in radii:
        assert np.min(np.abs(np.abs(zeros) - r)) >= 0.1
    counts = [ed.zero_density(kernel, r).counts[0] for r in radii]
    assert counts == [int(np.sum(np.abs(zeros) <= r)) for r in radii]
    points = np.concatenate(_sampled(contour_points, kernel))
    assert np.min(points.imag) < 0.0 and np.min(points.real) < 0.0
    contour_points.clear()
    report = ed.zero_density(kernel, np.array(radii))
    assert report.counts.tolist() == counts
    rounds = _sampled(contour_points, kernel)
    assert (len(rounds), sum(zs.size for zs in rounds)) == (5, 3607)


def test_a_real_kernel_sums_half_the_contour(indicator_kernel, step_kernel,
                                             contour_points):
    # all radii refine in lockstep: one call for each round's new samples
    # of every circle, against one per circle of 2 * ceil(32 r) points
    # before (9605 on the step kernel's upper halves, 4805 on the
    # indicator's quarters)
    assert ed.zero_density(step_kernel,
                           np.array(ZERO_RADII)).counts.tolist() == [
        6, 12, 18, 24, 30]
    rounds = _sampled(contour_points, step_kernel)
    assert (len(rounds), sum(zs.size for zs in rounds)) == (5, 1746)
    contour_points.clear()
    ed.zero_density(indicator_kernel, np.array(ZERO_RADII))
    rounds = _sampled(contour_points, indicator_kernel)
    assert (len(rounds), sum(zs.size for zs in rounds)) == (5, 893)
    contour_points.clear()
    # a zero pair 0.03 inside the circle is certified there too
    assert ed.zero_density(indicator_kernel,
                           2.0 * math.pi + 0.03).counts.tolist() == [2]


def test_an_asymmetric_real_kernel_counts_on_the_half_circle(step_kernel,
                                                            contour_points):
    radii = (20.0, 40.0, 60.0, 80.0, 100.0)
    zeros = trapezoid_laplace_zeros(step_kernel.spacing, step_kernel.values,
                                    101.0)
    for r in radii:
        assert np.min(np.abs(np.abs(zeros) - r)) >= 0.1
    counts = [ed.zero_density(step_kernel, r).counts[0] for r in radii]
    assert counts == [int(np.sum(np.abs(zeros) <= r)) for r in radii]
    points = np.concatenate(_sampled(contour_points, step_kernel))
    assert np.min(points.imag) == 0.0 and np.min(points.real) < 0.0
    assert set(np.round(np.abs(points), 9)) == set(radii)


def test_only_a_palindrome_takes_the_quarter(indicator_kernel,
                                             contour_points):
    values = np.array(indicator_kernel.values.real)
    values[10] = 0.9  # one sample off the palindrome
    broken = SampledSignal(0.0, indicator_kernel.spacing, values)
    assert ed.zero_density(broken, 20.0).counts.tolist() == [6]
    points = np.concatenate(_sampled(contour_points, broken))
    assert np.min(points.imag) == 0.0 and np.min(points.real) == -20.0
    contour_points.clear()
    assert ed.zero_density(indicator_kernel, 20.01).counts.tolist() == [6]
    assert ed.zero_density(indicator_kernel, 20.0).counts.tolist() == [6]
    points = np.concatenate(_sampled(contour_points, indicator_kernel))
    assert np.min(points.imag) == 0.0 and np.min(points.real) == 0.0
    # the quadrant's ends lie exactly on the axes
    assert {20.0, 20.0j, 20.01, 20.01j} <= set(points.tolist())


@pytest.mark.parametrize("kind", ["real", "palindrome", "complex"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(9, 41), seed=st.integers(0, 2 ** 32 - 1),
       picks=st.lists(st.floats(2.0, 60.0), min_size=2, max_size=4))
def test_zero_density_matches_polynomial_roots(kind, n, seed, picks):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    if kind == "palindrome":
        values = values + values[::-1]
    elif kind == "complex":
        values = values + 1j * rng.standard_normal(n)
    kernel = SampledSignal(0.0, 1.0 / (n - 1), values)
    zeros = np.abs(trapezoid_laplace_zeros(kernel.spacing, kernel.values,
                                           61.0))
    # every circle at least 0.05 from every root
    radii = np.unique([r for r in picks
                       if zeros.size == 0 or np.min(np.abs(zeros - r)) >= 0.05])
    assume(radii.size >= 2)
    report = ed.zero_density(kernel, radii)
    assert report.counts.tolist() == [int(np.sum(zeros <= r)) for r in radii]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 400), seed=st.integers(0, 2 ** 32 - 1),
       real=st.booleans(), t_min=st.floats(-1.0, 1.0),
       re=st.floats(-400.0, 400.0), im=st.floats(-400.0, 400.0))
def test_laplace_parts_keeps_its_stated_rounding_bound(n, seed, real, t_min,
                                                      re, im):
    # the certified zero counts assume this bound; the oracle sums each
    # term e^{re t - log_scale} e^{i im t} directly, and its own rounding
    # is orders of magnitude below the half of the bound left to it
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    if not real:
        values = values + 1j * rng.standard_normal(n)
    kernel = SampledSignal(t_min, rng.uniform(0.5, 2.0) / (n - 1), values)
    z = np.array([complex(re, im)])
    log_scale, reduced = laplace_parts(kernel, z)
    t = kernel.grid()
    weights = np.full(n, kernel.spacing)
    weights[[0, -1]] *= 0.5
    want = direct_sums([im], 1.0, kernel.t_min, kernel.spacing,
                       weights * values * np.exp(re * t - log_scale[0]))
    assert abs(reduced[0] - want[0]) <= 0.5 * _laplace_error(kernel, z)[0]
