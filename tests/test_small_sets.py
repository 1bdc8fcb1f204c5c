"""Sub-threshold set measurement and the dual radius."""

import json
import math

import numpy as np
import pytest
from scipy.special import lambertw

from deconv.cli import main
from deconv.errors import ComputationError, NoRootError, ValidationError
from deconv.grid_signal import SampledSignal, fourier_at, write_signal_csv
from deconv.kernels import default_profile_grid
from deconv.regularization import LOG_15E3, plan_radius, solve_dual_radius
from deconv.small_sets import SmallSetReport, cartan_bound, measure_small_set
from deconv.tail_profile import DualProfile, bisect, tail_mass_profile

from _oracles import gauss_hat, indicator_hat


def test_indicator_dip_lattice_measure():
    # dips of |2 sin(lambda/2) / lambda| sit at multiples of 2 pi; at
    # threshold 0.01 the k = +-16 dips straddle +-100 and arrive clipped
    report = measure_small_set(indicator_hat, 0.01, 100.0, 0.005)
    assert report.interval_count == 32
    assert math.isclose(report.measure_estimate, 31.82640137, rel_tol=1e-6)
    k1 = [iv for iv in report.intervals if iv[0] < 2.0 * math.pi < iv[1]]
    assert len(k1) == 1
    assert report.intervals[0][0] == -100.0
    assert report.intervals[-1][1] == 100.0


def test_all_endpoints_are_bisected_in_lockstep():
    sizes = []

    def counting(lam):
        sizes.append(np.size(lam))
        return indicator_hat(lam)

    report = measure_small_set(counting, 0.01, 100.0, 0.005)
    assert report.interval_count == 32
    # one scan, then ten halvings of all 62 interior endpoints at once
    # (one call per endpoint per halving would be 620)
    assert sizes == [40001] + [62] * 10
    # each endpoint is where a scalar bisection of its bracket ends
    lam = np.linspace(-100.0, 100.0, 40001)
    ends = [x for iv in report.intervals for x in iv][1:-1]
    for end, falling in zip(ends, [False, True] * 31):
        j = int(np.searchsorted(lam, end))
        above, below = (lam[j - 1], lam[j]) if falling else (lam[j], lam[j - 1])
        a, b = bisect(lambda x: abs(indicator_hat([x])[0]) < 0.01,
                      float(above), float(below), atol=1e-3 * 0.005)
        assert end == 0.5 * (a + b)


def _derivative_small_set(threshold: float, r: float) -> tuple:
    """Interval count and measure of {|phi_hat| < threshold, |x| <= r} for
    phi_hat(x) = -i (sqrt(pi)/2) x e^{-x^2/4}: the edges solve
    x^2 e^{-x^2/2} = k^2, k = 2 threshold / sqrt(pi), on Lambert-W
    branches 0 (inner) and -1 (outer)."""
    k = 2.0 * threshold / math.sqrt(math.pi)
    inner, outer = (math.sqrt(-2.0 * lambertw(-0.5 * k * k, branch).real)
                    for branch in (0, -1))
    count, measure = 1, 2.0 * min(r, inner)
    if outer < r:
        count, measure = 3, measure + 2.0 * (r - outer)
    return count, measure


@pytest.mark.parametrize("eps, thr, r, want", [
    (1e-4, None, None, 0.1345), (1e-6, None, None, 0.1426),
    (1e-8, None, None, 0.0567), (1e-10, None, None, 0.0226),
    (None, 0.3, 5.0, None)])
def test_a_zero_mean_kernel_has_a_small_set(gaussian_kernel, eps, thr, r,
                                            want):
    # phi(t) = t e^{-t^2} on the gaussian kernel's grid: its transform
    # vanishes at 0, so B_eps is not empty at the plan's threshold and
    # radius, and at threshold 0.3 and r = 5 it has three intervals
    t = gaussian_kernel.grid()
    kernel = SampledSignal(gaussian_kernel.t_min, gaussian_kernel.spacing,
                           t * np.exp(-t * t))
    if eps is not None:
        profile = tail_mass_profile(kernel, default_profile_grid(kernel))
        thr = eps ** 0.2
        _, r = plan_radius(eps, 0.2, 1.0, profile)
    report = measure_small_set(lambda lam: fourier_at(kernel, lam), thr, r,
                               r / 2e4)
    count, measure = _derivative_small_set(thr, r)
    assert report.interval_count == count
    assert math.isclose(report.measure_estimate, measure, rel_tol=1e-6)
    if want is not None:
        assert round(report.measure_estimate, 4) == want


def test_smallset_scans_a_zero_mean_file_kernel(gaussian_kernel, tmp_path):
    # the same kernel read from a file: its floor proves nothing, so
    # `deconv smallset` runs the scan, and the scan finds the closed form
    t = gaussian_kernel.grid()
    write_signal_csv(str(tmp_path / "kernel.csv"),
                     SampledSignal(gaussian_kernel.t_min,
                                   gaussian_kernel.spacing, t * np.exp(-t * t)))
    config = {"kernel": {"type": "file", "path": "kernel.csv"},
              "f0": {"type": "synth_smooth"},
              "eps_list": [1e-6, 1e-7, 1e-8, 1e-9], "beta": 0.2, "q": 1.0,
              "seed": 7, "grids": {"t_extent": 30.0, "t_step": 0.005,
                                   "freq_extent_factor": 800.0,
                                   "freq_step": 0.004}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["smallset", "--config", str(tmp_path / "config.json"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "smallset.json").read_text())
    assert report["floor"] <= 0.0
    count, measure = _derivative_small_set(report["threshold"],
                                           report["r_eps"])
    assert report["interval_count"] == count
    assert math.isclose(report["measure_estimate"], measure, rel_tol=1e-6)


def test_small_set_nests_with_threshold():
    loose = measure_small_set(indicator_hat, 0.02, 100.0, 0.005)
    tight = measure_small_set(indicator_hat, 0.005, 100.0, 0.005)
    assert tight.measure_estimate < loose.measure_estimate


def test_gaussian_has_no_small_set_at_moderate_radius():
    report = measure_small_set(gauss_hat, 0.01, 4.0, 2e-4)
    assert report.interval_count == 0
    assert report.measure_estimate == 0.0


def test_everything_below_a_huge_threshold():
    report = measure_small_set(gauss_hat, 10.0, 4.0, 2e-4)
    assert report.interval_count == 1
    assert report.measure_estimate == 8.0
    assert report.intervals == ((-4.0, 4.0),)


def test_small_set_at_the_working_threshold():
    # the operating point of the error budget at eps = 1e-8: the kernel
    # transform never gets near eps^beta inside the frequency radius
    threshold = (1e-8) ** 0.2
    assert math.isclose(threshold, 0.025118864315095794, rel_tol=1e-15)
    r = 0.20392641112357285
    report = measure_small_set(indicator_hat, threshold, r, r / 2e4)
    assert report.interval_count == 0
    assert report.measure_estimate == 0.0
    assert math.isclose(cartan_bound(1.0, r), 2.214436656507261, rel_tol=1e-12)


def test_narrow_interval_warns():
    resolution = 1e-3
    threshold = 1.9 * resolution
    with pytest.warns(RuntimeWarning, match="shorter than"):
        report = measure_small_set(lambda lam: np.asarray(lam) + 0j,
                                   threshold, 10.0, resolution)
    assert report.interval_count == 1
    assert math.isclose(report.measure_estimate, 2.0 * threshold, rel_tol=1e-2)


def test_measure_preconditions():
    with pytest.raises(ValidationError):
        measure_small_set(gauss_hat, 0.0, 4.0, 2e-4)
    with pytest.raises(ValidationError):
        measure_small_set(gauss_hat, 0.01, -1.0, 2e-4)
    with pytest.raises(ValidationError):
        measure_small_set(gauss_hat, 0.01, 4.0, 0.01)  # coarser than r/1e4
    with pytest.raises(ValidationError):  # not vectorized: one value back
        measure_small_set(lambda lam: 1.0, 0.01, 4.0, 2e-4)
    # refused before the scan grid exists: no step, a negative step, an
    # infinite radius, and 8e300 scan points
    for r, resolution in ((4.0, 0.0), (4.0, -1e-5), (math.inf, 2e-4),
                          (4.0, 1e-300)):
        with pytest.raises(ValidationError):
            measure_small_set(gauss_hat, 0.01, r, resolution)


def test_report_validation_and_serialization():
    with pytest.raises(ValidationError):
        SmallSetReport(0.1, 1.0, -0.5, 0, ())
    with pytest.raises(ValidationError):
        SmallSetReport(0.1, 1.0, 3.0, 0, ())  # above 2r
    with pytest.raises(ValidationError):
        SmallSetReport(0.1, 1.0, 0.5, 2, ((0.0, 0.5),))
    d = SmallSetReport(0.1, 1.0, 0.5, 1, ((0.0, 0.5),)).as_dict()
    assert "eps" not in d and "bound" not in d
    assert d["intervals"] == [[0.0, 0.5]]


def test_cartan_bound_values():
    assert math.isclose(cartan_bound(1.0, 4.0), 0.5, rel_tol=1e-12)
    # at r <= 1 the ceiling exceeds 1, and here the trivial 2r = 0.5 too
    assert math.isclose(cartan_bound(1.0, 0.25), 2.0, rel_tol=1e-12)
    with pytest.raises(ValidationError):
        cartan_bound(0.5, 4.0)
    with pytest.raises(ValidationError):
        cartan_bound(1.0, 0.0)


def quarter_square_dual():
    s = 0.01 * np.arange(6401)
    return DualProfile(s, s * s / 4.0)


def test_dual_radius_frozen_values():
    pstar = quarter_square_dual()
    r10, ratio10 = solve_dual_radius(1e-10, 1.0, pstar)
    assert math.isclose(r10, 0.837837, rel_tol=1e-4)
    assert math.isclose(ratio10, 0.1856, abs_tol=1e-3)
    r14, ratio14 = solve_dual_radius(1e-14, 1.0, pstar)
    assert math.isclose(r14, 1.106517, rel_tol=1e-4)
    assert math.isclose(ratio14, 0.2730, abs_tol=1e-3)
    assert r14 > r10


@pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-14])
def test_dual_radius_satisfies_its_equation(eps):
    pstar = quarter_square_dual()
    r, _ = solve_dual_radius(eps, 1.0, pstar)
    lhs = ((1.5 * r + LOG_15E3)
           * (1.0 + math.log(2.0 * r) + (2.0 * r + 1.0) ** 2 / 4.0))
    # p* is piecewise linear on a 0.01 grid, so the closed form holds to h^2
    assert math.isclose(lhs, -math.log(eps), rel_tol=1e-4)


def test_dual_radius_error_cases():
    pstar = quarter_square_dual()
    with pytest.raises(NoRootError):
        solve_dual_radius(1.0, 1.0, pstar)
    with pytest.raises(ValidationError):
        solve_dual_radius(1e-10, 0.3, pstar)
    s_short = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValidationError):
        solve_dual_radius(1e-10, 1.0, DualProfile(s_short, s_short ** 2))
    s2 = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ComputationError):
        solve_dual_radius(1e-10, 1.0, DualProfile(s2, s2 ** 2 / 4.0))
    steep = 0.01 * np.arange(401)
    with pytest.raises(NoRootError):
        solve_dual_radius(1e-10, 1.0, DualProfile(steep, 1000.0 * steep))
