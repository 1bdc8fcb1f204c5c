"""Growth exponents, winding-number zero counts, zero density."""

import math

import numpy as np
import pytest

import deconv.entire_diagnostics as ed
from deconv.errors import (ComputationError, PhaseTrackingError,
                           ValidationError)
from deconv.grid_signal import SampledSignal
from deconv.kernels import make_indicator

GROWTH_RADII = np.linspace(10.0, 400.0, 40)


@pytest.fixture(scope="module")
def chi38():
    return make_indicator(0.3, 0.8, 0.005)


def test_growth_of_unit_indicator(indicator_kernel):
    est = ed.growth_profile(indicator_kernel, GROWTH_RADII)
    # support edges 0 and 1; the log R / R correction is still visible at 400
    assert math.isclose(est.sigma_hat, 0.985702, abs_tol=1e-4)
    assert math.isclose(est.mu_hat, 0.014298, abs_tol=1e-4)
    assert 0.9 <= est.sigma_hat <= 1.0
    assert abs(est.mu_hat) <= 0.05
    assert not est.excluded_pos.any() and not est.excluded_neg.any()


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


def test_zero_counts_on_the_lattice(indicator_kernel):
    # the sampled transform of chi_[0,1] vanishes exactly at 2 pi k
    assert ed.count_zeros(indicator_kernel, 10.0, 640) == 2
    assert ed.count_zeros(indicator_kernel, 100.0, 6400) == 30


def test_contour_on_a_zero_gets_nudged(indicator_kernel):
    r = 2.0 * math.pi  # passes exactly through the first zero pair
    assert ed.count_zeros(indicator_kernel, r, 640) == 2


def test_count_zeros_preconditions(indicator_kernel, gaussian_kernel):
    with pytest.raises(ValidationError):
        ed.count_zeros(indicator_kernel, 100.0, 640)  # under 64 per unit r
    with pytest.raises(ValidationError):
        ed.count_zeros(indicator_kernel, 0.0, 640)
    with pytest.raises(ValidationError):
        ed.count_zeros(gaussian_kernel, 10.0, 640)


def test_phase_tracking_failure_surfaces(indicator_kernel, monkeypatch):
    monkeypatch.setattr(ed, "_winding_attempt", lambda k, r, n: (0.5, 2.0))
    with pytest.raises(PhaseTrackingError):
        ed.count_zeros(indicator_kernel, 10.0, 640)


def test_nudge_budget_is_finite(indicator_kernel, monkeypatch):
    monkeypatch.setattr(ed, "_winding_attempt", lambda k, r, n: None)
    with pytest.raises(ComputationError):
        ed.count_zeros(indicator_kernel, 10.0, 640)


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


def test_zero_density_preconditions(indicator_kernel):
    with pytest.raises(ValidationError):
        ed.zero_density(indicator_kernel, np.array([10.0]))
    with pytest.raises(ValidationError):
        ed.zero_density(indicator_kernel, np.array([10.0, 20.0]),
                        points_per_radius=32)


def test_zero_report_validation():
    r = np.array([1.0, 2.0])
    with pytest.raises(ValidationError):
        ed.ZeroCountReport(r, np.array([3, 2]))
