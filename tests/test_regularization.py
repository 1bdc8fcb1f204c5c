"""Parameter selection, the filter, and the error certificate."""

import dataclasses
import math
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from deconv import grid_signal
from deconv.config import GridSpec, SweepInstance, build_instance, load_config
from deconv.errors import (ComputationError, ConfigError, NoRootError,
                           SaturationError, ValidationError)
from deconv.grid_signal import (SampledSignal, TransformSamples,
                                _symmetric_grid, fourier_grid)
from deconv.kernels import default_profile_grid, make_indicator
import deconv.commands as commands
import deconv.regularization as regularization
from deconv.regularization import (LOG_15E3, TWO_E, ErrorDecomposition,
                                   RegularizationPlan, SweepResult,
                                   error_decomposition,
                                   plan_radius, run_single, run_sweep,
                                   smooth_spectrum, solve_frequency_radius,
                                   tikhonov_filter)
from deconv.tail_profile import tail_mass_profile

from _oracles import log_radius_root

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("gaussian", "indicator", "two_sided_exp")


def shipped(name):
    """(config, instance) of a shipped config."""
    config = load_config(str(CONFIGS / f"{name}.json"))
    return config, build_instance(config)


def radius_residual(r, eps, beta, q, s_eps, l1):
    return (((q + 0.5) * math.log(r) + LOG_15E3)
            * (math.log(l1) + TWO_E * s_eps * r)
            + math.log(eps ** beta + eps))


@pytest.mark.parametrize("eps,beta,q,s_eps,l1", [
    (1e-6, 0.2, 1.0, 1.0, 1.0),
    (1e-10, 0.1, 0.75, 3.5, math.sqrt(math.pi)),
    (1e-3, 0.3, 2.0, 0.5, 2.0),
    (1e-14, 0.25, 1.5, 10.0, 0.2),
])
def test_radius_satisfies_its_equation(eps, beta, q, s_eps, l1):
    r = solve_frequency_radius(eps, beta, q, s_eps, l1)
    rhs = math.log(eps ** beta + eps)
    assert abs(radius_residual(r, eps, beta, q, s_eps, l1)) <= 1e-10 * abs(rhs)
    # both bracket factors must be positive at the root
    assert (q + 0.5) * math.log(r) + LOG_15E3 > 0.0
    assert math.log(l1) + TWO_E * s_eps * r > 0.0


def test_radius_closed_form_when_second_factor_is_constant():
    # s_eps = 0 and l1 = e make the second factor exactly 1
    eps, beta, q = 1e-14, 0.2, 1.0
    rhs = math.log(eps ** beta + eps)
    want = math.exp((-rhs - LOG_15E3) / (q + 0.5))
    got = solve_frequency_radius(eps, beta, q, 0.0, math.e)
    assert math.isclose(got, want, rel_tol=1e-10)


def test_radius_matches_log_space_root():
    # the indicator's (s_eps, |phi0|_1), then a pair whose second factor
    # vanishes above the first one's zero and so starts the bracket
    for s_eps, l1 in ((1.0, 1.0), (3.0, 0.2)):
        for eps in (1e-6, 1e-14, 1e-100, 1e-300):
            want = math.exp(log_radius_root(-math.log(eps), 0.2, 1.0,
                                            s_eps, l1))
            got = solve_frequency_radius(eps, 0.2, 1.0, s_eps, l1)
            assert math.isclose(got, want, rel_tol=1e-10)


def test_radius_monotone_in_eps_and_cutoff():
    r_by_eps = [solve_frequency_radius(e, 0.2, 1.0, 2.0, math.sqrt(math.pi))
                for e in (1e-4, 1e-8, 1e-12)]
    assert r_by_eps[0] < r_by_eps[1] < r_by_eps[2]
    r_wide = solve_frequency_radius(1e-8, 0.2, 1.0, 1.0, math.sqrt(math.pi))
    r_narrow = solve_frequency_radius(1e-8, 0.2, 1.0, 4.0, math.sqrt(math.pi))
    assert r_narrow < r_wide


def test_radius_no_root_cases():
    with pytest.raises(NoRootError):
        solve_frequency_radius(0.9, 0.2, 1.0, 1.0, 1.0)  # rhs >= 0
    with pytest.raises(NoRootError):
        solve_frequency_radius(1e-6, 0.2, 1.0, 0.0, 1.0)  # degenerate bracket
    with pytest.raises(NoRootError):
        solve_frequency_radius(1e-6, 0.2, 1.0, 0.0, 0.5)


def test_radius_rejects_bad_hypotheses():
    with pytest.raises(ValidationError):
        solve_frequency_radius(0.0, 0.2, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        solve_frequency_radius(1e-6, 0.4, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        solve_frequency_radius(1e-6, 0.2, 0.5, 1.0, 1.0)
    with pytest.raises(ValidationError):
        solve_frequency_radius(1e-6, 0.2, 1.0, -1.0, 1.0)
    with pytest.raises(ValidationError):
        solve_frequency_radius(1e-6, 0.2, 1.0, 1.0, 0.0)


@pytest.fixture(scope="module")
def indicator_plan(indicator_profile):
    return RegularizationPlan(1e-6, 0.2, 1.0, 1.0, 1.0,
                              *plan_radius(1e-6, 0.2, 1.0, indicator_profile))


def test_plan_rejects_tampered_fields(indicator_plan):
    plan = indicator_plan
    with pytest.raises(ValidationError):
        dataclasses.replace(plan, r_eps=plan.r_eps * 1.001)
    with pytest.raises(ValidationError):
        dataclasses.replace(plan, g0_l2=0.0)
    with pytest.raises(ValidationError):
        dataclasses.replace(plan, phi0_l1=0.0)


def test_plan_accepts_the_radius_its_solve_returns():
    # at q 5.9 and eps 0.186 the bisection's stopping rule leaves a residual
    # of 1.5e-9 |rhs|, past the old fixed 1e-10 |rhs|; the slack derived
    # from that rule accepts the root and still refuses R off by 1e-11
    kernel = make_indicator(3.8, 43.3, 0.1)
    profile = tail_mass_profile(kernel, default_profile_grid(kernel))
    s_eps, r_eps = plan_radius(0.186, 0.142, 5.9, profile)
    plan = RegularizationPlan(0.186, 0.142, 5.9, 1.0, profile.l1_total,
                              s_eps, r_eps)
    with pytest.raises(ValidationError):
        dataclasses.replace(plan, r_eps=r_eps * (1.0 + 1e-11))


def test_plan_recovers_its_norms(indicator_plan):
    plan = indicator_plan
    assert math.isclose(plan.phi0_l1, 1.0, rel_tol=1e-12)
    assert math.isclose(plan.c1, 12.0, rel_tol=1e-12)
    assert math.isclose(plan.c2, 2.0, rel_tol=1e-12)
    assert math.isclose(plan.rate_ref, plan.r_eps ** -0.5, rel_tol=1e-12)
    # the certificate's data term, 2 sqrt(C1 C2) eps^(1 - 3 beta), bit for bit
    assert plan.data_term == (2.0 * math.sqrt(12.0 * 2.0)
                              * 1e-6 ** (1.0 - 3.0 * 0.2))


def test_make_plan_saturates_below_the_tail_floor(indicator_profile):
    # the plan's (s_eps, R_eps) come from plan_radius, which refuses an eps
    # under the kernel's measurable tail
    with pytest.raises(SaturationError):
        plan_radius(1e-305, 0.2, 1.0, indicator_profile)
    s_eps, r_eps = plan_radius(1e-6, 0.2, 1.0, indicator_profile)
    assert r_eps == solve_frequency_radius(1e-6, 0.2, 1.0, s_eps,
                                           indicator_profile.l1_total)


def test_tikhonov_filter_am_gm_bound():
    rng = np.random.default_rng(3)
    step = 1.0 / 30.0  # 301 points on [-5, 5]
    g = TransformSamples(step, rng.normal(size=301) + 1j * rng.normal(size=301))
    p = TransformSamples(step, rng.normal(size=301) + 1j * rng.normal(size=301))
    delta = 0.037
    f = tikhonov_filter(g, p, delta)
    cap = np.abs(g.values) / (2.0 * math.sqrt(delta))
    assert np.all(np.abs(f.values) <= cap * (1.0 + 1e-12))
    # exact formula at one point
    j = 150
    want = g.values[j] * np.conj(p.values[j]) / (delta + abs(p.values[j]) ** 2)
    assert f.values[j] == want


@pytest.mark.parametrize("size", [1001, 20001])
def test_tikhonov_filter_rounds_in_one_order(size):
    # conj(p) * g, then the division: the order numpy picks for a large
    # `g * conj(p)`, at every size; a complex product under FMA is not
    # bitwise commutative
    rng = np.random.default_rng(size)
    g, p = (rng.normal(size=size) + 1j * rng.normal(size=size)
            for _ in range(2))
    delta = 0.037
    f = tikhonov_filter(TransformSamples(0.01, g), TransformSamples(0.01, p),
                        delta)
    want = np.divide(np.multiply(np.conj(p), g),
                     p.real ** 2 + p.imag ** 2 + delta)
    assert f.values.tobytes() == want.tobytes()


def test_tikhonov_filter_validation():
    g = TransformSamples(0.2, np.ones(11, dtype=np.complex128))
    for other in (TransformSamples(0.4, np.ones(11, dtype=np.complex128)),
                  TransformSamples(0.2, np.ones(13, dtype=np.complex128)),
                  TransformSamples(0.2, np.ones(6, dtype=np.complex128),
                                   True)):
        with pytest.raises(ValidationError):
            tikhonov_filter(g, other, 0.1)
    with pytest.raises(ValidationError):
        tikhonov_filter(g, g, 0.0)


@pytest.fixture(scope="module")
def small_instance(indicator_kernel, indicator_profile):
    # deliberately coarse and narrow so a full pipeline pass stays cheap
    return SweepInstance(kernel=indicator_kernel,
                         profile=indicator_profile, q=1.0, beta=0.2,
                         grids=GridSpec(t_extent=10.0, t_step=0.01,
                                        freq_extent_factor=60.0,
                                        freq_step=0.01),
                         base_seed=7)


def test_run_single_noise_free_reconstructs(small_instance):
    res = run_single(small_instance, 1e-6, noise_free=True)
    assert res.phi_eps is small_instance.kernel
    dec = res.decomposition
    assert dec.achieved_error < 0.06
    assert dec.achieved_sq_error == dec.achieved_error ** 2
    assert dec.holds
    assert dec.inner_term == 0.0
    assert res.f_eps.size == res.f0.size
    # n counts the longer of the whole frequency grid and the time grid
    assert dec.n == max(res.f0_hat.size, res.f0.size)
    assert (res.f0_hat.spacing * res.f0_hat.half_count
            >= 60.0 * dec.plan.r_eps)


def test_a_complex_kernel_row_keeps_the_full_layout(small_instance):
    # the modulated indicator's spectrum has no conjugate symmetry, so the
    # row's spectra span the whole grid, the real truth's mirrored; f0
    # stays the real truth's float64 inverse
    k = small_instance.kernel
    kernel = SampledSignal(k.t_min, k.spacing,
                           k.values * np.exp(0.7j * k.grid()))
    instance = dataclasses.replace(
        small_instance, kernel=kernel,
        profile=tail_mass_profile(kernel, default_profile_grid(kernel)))
    res = run_single(instance, 1e-6, seed=123)
    real = run_single(small_instance, 1e-6, seed=123)
    assert not res.f0_hat.hermitian and real.f0_hat.hermitian
    assert res.f0_hat.size == res.f0_hat.values.size == real.f0_hat.size
    assert np.array_equal(res.f0_hat.values,
                          grid_signal._mirror(real.f0_hat.values,
                                              real.f0_hat.size))
    assert res.f0.values.tobytes() == real.f0.values.tobytes()
    assert res.f_eps.values.dtype == np.complex128
    assert res.decomposition.holds


def test_run_single_with_noise_stays_certified(small_instance):
    res = run_single(small_instance, 1e-6, seed=123)
    assert not np.array_equal(res.g_eps.values, res.g0.values)
    assert res.decomposition.holds


def test_run_single_measures_the_data_error(small_instance,
                                           gaussian_instance):
    # noise-free, g_eps = g0: the gap between g0's transform and
    # f0_hat * phi0_hat on the row's grid, by Parseval with the 1/2 pi
    res = run_single(small_instance, 1e-6, noise_free=True)
    step, half = res.f0_hat.spacing, res.f0_hat.half_count
    gap = (fourier_grid(res.g0, step, half).values - res.f0_hat.values
           * fourier_grid(small_instance.kernel, step, half).values)
    # the hermitian halves, with the trapezoid weights folded onto x >= 0
    assert res.f0_hat.hermitian and gap.size == half + 1
    want = math.sqrt(float(np.sum(res.f0_hat.weights * np.abs(gap) ** 2))
                     / (2.0 * math.pi))
    assert math.isclose(res.decomposition.data_error, want, rel_tol=1e-12)
    # the wave adds its eps/2, to within that gap (triangle inequality)
    noisy = run_single(small_instance, 1e-6, seed=123).decomposition
    assert abs(noisy.data_error - 0.5e-6) <= want + 1e-3 * 0.5e-6
    # where the noise-free gap is tiny the wave is all of it
    gaussian = run_single(gaussian_instance, 1e-4).decomposition
    assert math.isclose(gaussian.data_error, 0.5e-4, rel_tol=1e-3)


def test_run_single_solves_the_radius_once(small_instance, monkeypatch):
    calls = []
    original = regularization.solve_frequency_radius

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(regularization, "solve_frequency_radius", counting)
    res = run_single(small_instance, 1e-6, noise_free=True)
    assert len(calls) == 1
    assert res.decomposition.plan.r_eps == original(*calls[0])


def test_a_noise_free_row_transforms_the_kernel_once(small_instance,
                                                    monkeypatch):
    # phi_eps is phi0, so phi0_hat serves the filter too: the kernel and
    # g_eps are the row's two forward transforms
    calls = []
    original = regularization.fourier_grid

    def counting(signal, *args):
        calls.append(signal)
        return original(signal, *args)

    monkeypatch.setattr(regularization, "fourier_grid", counting)
    res = run_single(small_instance, 1e-6, noise_free=True)
    assert calls == [small_instance.kernel, res.g_eps]
    calls.clear()
    run_single(small_instance, 1e-6, seed=123)
    assert len(calls) == 3


def test_the_largest_indicator_row_peaks_below_eleven_half_grids(
        shipped_indicator):
    # a unit is one hermitian half of a complex spectrum, 16 (half + 1)
    # bytes, 0.46 MiB at eps 1e-14.  The row's traced peak was about 15
    # units with full spectra and the kernel's chirp-z setup held to the
    # end; with halves and that setup freed before the time grid's, about
    # 8.8
    instance = shipped_indicator
    run_single(instance, 1e-14)  # lazy set-up outside the measurement
    tracemalloc.start()
    try:
        res = run_single(instance, 1e-14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = 16 * (instance.grids.half_count(res.decomposition.plan.r_eps) + 1)
    assert peak < 11 * unit, peak / unit


def test_run_single_refuses_a_grid_at_the_chirp_limit(small_instance,
                                                     monkeypatch):
    # the full frequency grid against the longest signal, here the 2001
    # time samples, at the limit is refused and one below it runs
    _, r_eps = plan_radius(1e-6, 0.2, 1.0, small_instance.profile)
    size = (small_instance.time_grid()[2]
            + 2 * small_instance.grids.half_count(r_eps) + 1)
    monkeypatch.setattr(regularization, "_CHIRP_LIMIT", size)
    with pytest.raises(ConfigError, match="grids.freq_step"):
        run_single(small_instance, 1e-6)
    monkeypatch.setattr(regularization, "_CHIRP_LIMIT", size + 1)
    run_single(small_instance, 1e-6)


def test_run_sweep_on_two_levels(small_instance):
    result = run_sweep(small_instance, [1e-5, 1e-6])
    assert len(result.records) == 2
    assert result.failures == ()
    assert not result.invalid
    assert result.bound_violations == 0
    assert result.records[0].plan.eps == 1e-5
    assert result.records[1].plan.r_eps > result.records[0].plan.r_eps
    assert math.isfinite(result.c3_fit) and result.c3_fit > 0.0


def test_a_sweep_summary_is_read_from_its_rows(monkeypatch, small_instance):
    # records and failures are all a SweepResult stores: the summary is NaN
    # and zero counts when no row computes, and invalid past a quarter
    result = run_sweep(small_instance, [1e-5, 1e-6])
    row = result.records[1]
    three = SweepResult((row,), ((1e-3, "a"), (1e-4, "b"), (1e-5, "c")))
    assert three.invalid and not SweepResult((row,) * 3, ((1e-3, "a"),)).invalid
    assert three.c3_fit == row.c3_row and three.c3_stability == 1.0
    assert SweepResult(result.records[::-1], ()).inversions == 1

    def failing(instance, eps, seed=None, noise_free=False):
        raise ComputationError("no row", module="regularization",
                               operation="test")

    monkeypatch.setattr(regularization, "run_single", failing)
    empty = run_sweep(small_instance, [1e-5, 1e-6])
    assert empty.records == () and len(empty.failures) == 2 and empty.invalid
    assert all(math.isnan(x) for x in (empty.c3_fit, empty.c3_stability,
                                       empty.logr_over_loglog))
    assert empty.inversions == empty.bound_violations == 0


@pytest.fixture(scope="module")
def bump_instance():
    # a gaussian with a 1e-7-mass bump at t = 8: below that mass the tail
    # cutoff jumps past the bump and R_eps falls although eps falls
    t = -10.0 + 0.01 * np.arange(2001)
    bump = 1e-7 / (0.1 * math.sqrt(math.pi)) * np.exp(-((t - 8.0) / 0.1) ** 2)
    kernel = SampledSignal(-10.0, 0.01, np.exp(-t * t) + bump)
    return SweepInstance(kernel=kernel, profile=tail_mass_profile(
                             kernel, default_profile_grid(kernel)),
                         q=1.0, beta=0.2,
                         grids=GridSpec(t_extent=10.0, t_step=0.01,
                                        freq_extent_factor=60.0,
                                        freq_step=0.01),
                         base_seed=7)


@pytest.fixture(scope="module")
def shipped_indicator():
    return shipped("indicator")[1]


SWEEPS = [("small_instance", [1e-4, 1e-6, 1e-8]),
          ("bump_instance", [1e-4, 1e-6, 1e-9]),
          ("shipped_indicator",
           list(load_config(str(CONFIGS / "indicator.json")).eps_list))]


def cpus(monkeypatch, count):
    """Make run_sweep see `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.mark.parametrize("name, eps_list", SWEEPS)
def test_each_sweep_row_transforms_the_kernel_once(request, monkeypatch, name,
                                                   eps_list):
    instance = request.getfixturevalue(name)
    calls = []
    solve = regularization.solve_frequency_radius
    transform = regularization.fourier_grid

    def counting_solve(*args):
        calls.append((threading.get_ident(), "radius", args[0]))
        return solve(*args)

    def counting_transform(signal, *args):
        if signal is instance.kernel:
            calls.append((threading.get_ident(), "kernel", args))
        return transform(signal, *args)

    monkeypatch.setattr(regularization, "solve_frequency_radius",
                        counting_solve)
    monkeypatch.setattr(regularization, "fourier_grid", counting_transform)
    for count in (1, 2):
        cpus(monkeypatch, count)
        calls.clear()
        result = run_sweep(instance, eps_list)
        assert result.failures == ()
        # per row: the radius, then the kernel on that row's grid
        rows = {eps: [("radius", eps),
                      ("kernel", (instance.grids.freq_step,
                                  instance.grids.half_count(row.plan.r_eps)))]
                for eps, row in zip(eps_list, result.records, strict=True)}
        if count == 1:
            # one thread takes every row, last first
            assert calls == [(threading.get_ident(), *call)
                             for eps in eps_list[::-1] for call in rows[eps]]
            continue
        # two threads: each runs whole rows, one after another
        done = []
        for ident in {c[0] for c in calls}:
            mine = [c[1:] for c in calls if c[0] == ident]
            for k in range(0, len(mine), 2):
                assert mine[k:k + 2] == rows[mine[k][1]]
                done.append(mine[k][1])
        assert sorted(done, reverse=True) == list(eps_list)


def test_bump_instance_radius_is_not_monotone(bump_instance):
    radii = [plan_radius(eps, 0.2, 1.0, bump_instance.profile)[1]
             for eps in (1e-4, 1e-6, 1e-9)]
    assert radii[0] < radii[1] and radii[2] < radii[1]


@pytest.mark.parametrize("name, eps_list", SWEEPS)
def test_sweep_rows_equal_single_runs(request, monkeypatch, name, eps_list):
    instance = request.getfixturevalue(name)
    solutions = {}
    solve = regularization.run_single

    def recording(instance, eps, seed):
        # rows may run on two threads: key each solution by its row's eps
        res = solve(instance, eps, seed)
        solutions[eps] = res.f_eps
        return res

    monkeypatch.setattr(regularization, "run_single", recording)
    result = run_sweep(instance, eps_list)
    assert result.failures == ()
    assert sorted(solutions, reverse=True) == list(eps_list)
    for idx, (eps, row) in enumerate(zip(eps_list, result.records,
                                         strict=True)):
        f_eps = solutions[eps]
        single = run_single(instance, eps, seed=instance.base_seed + idx)
        # bit for bit, field by field, the plan's fields too
        assert hexed(row) == hexed(single.decomposition)
        assert f_eps.values.tobytes() == single.f_eps.values.tobytes()


def hexed(value):
    """Floats as float.hex, recursively through tuples and dataclasses."""
    if dataclasses.is_dataclass(value):
        return hexed(dataclasses.astuple(value))
    if isinstance(value, tuple):
        return tuple(hexed(v) for v in value)
    return value.hex() if isinstance(value, float) else value


def test_sweep_result_does_not_depend_on_the_threads(monkeypatch,
                                                     shipped_indicator):
    eps_list = load_config(str(CONFIGS / "indicator.json")).eps_list
    results = []
    for count in (1, 2):
        cpus(monkeypatch, count)
        results.append(run_sweep(shipped_indicator, eps_list))
    for field in dataclasses.fields(results[0]):
        assert (hexed(getattr(results[0], field.name))
                == hexed(getattr(results[1], field.name))), field.name


def test_a_sweep_runs_without_an_affinity_api(monkeypatch, shipped_indicator):
    # macOS and Windows have no os.sched_getaffinity
    eps_list = load_config(str(CONFIGS / "indicator.json")).eps_list
    cpus(monkeypatch, 1)
    want = run_sweep(shipped_indicator, eps_list)
    monkeypatch.delattr(os, "sched_getaffinity")
    got = run_sweep(shipped_indicator, eps_list)
    for field in dataclasses.fields(want):
        assert (hexed(getattr(got, field.name))
                == hexed(getattr(want, field.name))), field.name


def test_a_repeated_row_reuses_the_heap():
    # run_single runs outside any command here, so the test applies the
    # heap policy a command would; under glibc's dynamic thresholds the
    # second row faulted 1,130 to 3,323 pages back in, by the heap's
    # history; the first row's count depends on that history here too, so
    # only the second is pinned
    if commands._pin_heap_policy(commands._LIBC) is None:
        pytest.skip("libc has no mallopt or refused the heap policy")
    import resource  # not on Windows, where the policy is None
    instance = shipped("gaussian")[1]
    run_single(instance, 1e-6)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_single(instance, 1e-6)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64


def two_sided_rows(monkeypatch, before_row):
    """Make run_sweep see two CPUs and call before_row(eps, on_helper)
    ahead of each row.  Each thread's first row waits for the other's, so
    the helper always starts at the first eps and the caller at the last."""
    cpus(monkeypatch, 2)
    meet, met = threading.Barrier(2, timeout=30.0), set()
    original = regularization.run_single

    def split(instance, eps, seed=None, noise_free=False):
        if threading.get_ident() not in met:
            met.add(threading.get_ident())
            meet.wait()
        before_row(eps,
                   threading.current_thread() is not threading.main_thread())
        return original(instance, eps, seed, noise_free)

    monkeypatch.setattr(regularization, "run_single", split)


def test_a_failed_helper_row_lands_at_its_eps(monkeypatch, small_instance):
    eps_list = [1e-4, 1e-5, 1e-6, 1e-7]
    failed = []

    def fail_on_helper(eps, on_helper):
        if on_helper:
            failed.append(eps)
            raise ComputationError(f"injected at {eps!r}",
                                   module="regularization", operation="test")

    two_sided_rows(monkeypatch, fail_on_helper)
    result = run_sweep(small_instance, eps_list)
    assert failed[0] == eps_list[0] and eps_list[-1] not in failed
    assert result.failures == tuple((eps, f"injected at {eps!r}")
                                    for eps in eps_list if eps in failed)
    assert [r.plan.eps for r in result.records] == [e for e in eps_list
                                               if e not in failed]


@pytest.mark.parametrize("side", ["helper", "caller"])
def test_other_errors_propagate_after_the_helper_ends(monkeypatch,
                                                      small_instance, side):
    before = threading.active_count()

    def break_one_side(eps, on_helper):
        if on_helper == (side == "helper"):
            raise RuntimeError(f"{side} failed at {eps!r}")

    two_sided_rows(monkeypatch, break_one_side)
    with pytest.raises(RuntimeError, match=f"{side} failed"):
        run_sweep(small_instance, [1e-4, 1e-5, 1e-6])
    assert threading.active_count() == before


def test_every_row_is_taken_once_under_contention(monkeypatch,
                                                  small_instance):
    # rows that sleep 10 us, many of them and a short switch interval keep
    # both threads at the queue: a row lost or taken twice shows in the
    # seeds the rows ran with
    cpus(monkeypatch, 2)
    eps_list = [10.0 ** (-k / 40.0) for k in range(1, 401)]
    taken = []

    def free_row(instance, eps, seed=None, noise_free=False):
        taken.append(seed)
        time.sleep(1e-5)
        raise ComputationError("free", module="regularization",
                               operation="test")

    monkeypatch.setattr(regularization, "run_single", free_row)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            taken.clear()
            result = run_sweep(small_instance, eps_list)
            assert sorted(taken) == [small_instance.base_seed + i
                                     for i in range(len(eps_list))]
            assert [eps for eps, _ in result.failures] == eps_list
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", SHIPPED)
def test_delta_and_data_term_fall_with_eps(name):
    # C1 and C2 carry ||g0||_2 measured on each row's own grid, so the
    # eps powers alone do not settle the order
    config, instance = shipped(name)
    rows = [run_single(instance, eps, noise_free=True)
            for eps in config.eps_list]
    deltas = [row.decomposition.plan.delta for row in rows]
    data = [row.decomposition.data_term for row in rows]
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert all(b < a for a, b in zip(data, data[1:]))


@pytest.fixture
def chirp_setups(monkeypatch):
    """The arguments of every chirp-z setup built while the test runs."""
    calls = []
    original = grid_signal._chirp_setup

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(grid_signal, "_chirp_setup", counting)
    return calls


def test_a_row_builds_one_inverse_setup(chirp_setups):
    # three setups per row: the kernel's (phi0_hat and phi_eps_hat), the
    # inverse's (f0, g0 and f_eps, and g_eps_hat on its adjoint) and the
    # noise wave's; g_eps_hat finds the adjoint only if the step its
    # frequencies are read back with is exactly freq_step
    for name in SHIPPED:
        config, instance = shipped(name)
        ends = [config.eps_list[0], config.eps_list[-1]]
        for eps in ends:
            chirp_setups.clear()
            res = run_single(instance, eps)
            assert len(chirp_setups) == 3, (name, eps)
            upper = res.f0_hat.half_count + 1
            step = instance.grids.freq_step
            # the inverse maps the nonnegative frequencies onto the time
            # grid, both taken from the grid description
            inverse, = (a for a in chirp_setups
                        if a[3] == +1.0 and a[6] == upper)
            assert inverse == (*instance.time_grid(), +1.0, 0.0, step, upper)
            k = instance.kernel
            kernel, = (a for a in chirp_setups if a[3] == -1.0)
            assert kernel == (0.0, step, upper, -1.0, k.t_min, k.spacing,
                              k.size)
            assert grid_signal._ROW_SETUPS.get() is None
        chirp_setups.clear()
        run_sweep(instance, ends)
        assert len(chirp_setups) == 2 * 3, name
        assert grid_signal._ROW_SETUPS.get() is None


def test_the_shared_setup_ends_with_its_row(small_instance, monkeypatch):
    held = []

    def failing(*args):
        held.append(len(grid_signal._ROW_SETUPS.get()))
        raise ComputationError("injected", module="regularization",
                               operation="tikhonov_filter")

    run_single(small_instance, 1e-6)
    assert grid_signal._ROW_SETUPS.get() is None
    monkeypatch.setattr(regularization, "tikhonov_filter", failing)
    with pytest.raises(ComputationError):
        run_single(small_instance, 1e-6)
    assert grid_signal._ROW_SETUPS.get() is None
    result = run_sweep(small_instance, [1e-5, 1e-6])
    assert [eps for eps, _ in result.failures] == [1e-5, 1e-6]
    assert grid_signal._ROW_SETUPS.get() is None
    # at the filter each row's scope held the inverse's setup alone: the
    # kernel's went with the row's first scope, and the noise wave's, used
    # once, is not kept
    assert held == [1, 1, 1]


def test_run_sweep_rejects_bad_eps_list(small_instance):
    with pytest.raises(ValidationError):
        run_sweep(small_instance, [1e-6])
    with pytest.raises(ValidationError):
        run_sweep(small_instance, [1e-8, 1e-6])


def test_smooth_spectrum_is_strictly_subcritical():
    lam = np.linspace(-40.0, 40.0, 2001)
    f2 = smooth_spectrum(lam, 1.0) ** 2
    cap = (1.0 + lam * lam) ** -1.0
    assert np.all(f2 <= cap)
    assert smooth_spectrum(np.array([0.0]), 1.0)[0] == 1.0


def test_decomposition_splits_at_the_radius(indicator_plan):
    plan = indicator_plan
    ones = np.ones(401, dtype=np.complex128)  # on [-1, 1]
    f0_hat = TransformSamples(0.005, ones)
    phi0_hat = TransformSamples(0.005, 0.01 * ones)  # below eps^beta everywhere
    dec = ErrorDecomposition(plan, *error_decomposition(f0_hat, phi0_hat, plan),
                             0.0, 0.0, f0_hat.size)
    assert math.isclose(dec.inner_term, 2.0 * plan.r_eps, rel_tol=0.05)
    assert math.isclose(dec.outer_term, 2.0 * (1.0 - plan.r_eps), rel_tol=0.05)
    assert math.isclose(dec.total_bound,
                        3.0 * (dec.outer_term + dec.inner_term + dec.data_term),
                        rel_tol=1e-12)


def test_decomposition_ignores_exact_threshold_points(indicator_plan):
    plan = indicator_plan
    ones = np.ones(401, dtype=np.complex128)  # on [-1, 1]
    at_threshold = (plan.eps ** plan.beta) * ones  # not strictly below
    outer, inner = error_decomposition(TransformSamples(0.005, ones),
                                       TransformSamples(0.005, at_threshold),
                                       plan)
    assert outer == 0.0
    assert inner == 0.0


def test_decomposition_splits_a_decaying_tail(indicator_plan):
    plan = indicator_plan
    lam = _symmetric_grid(0.025, 2000)  # 4001 points on [-50, 50]
    f0_hat = TransformSamples(0.025, (1.0 + lam * lam) ** -1.5 + 0j)
    phi0_hat = TransformSamples(0.025, 0.01 * np.ones(lam.size, np.complex128))
    outer, inner = error_decomposition(f0_hat, phi0_hat, plan)
    assert outer > inner > 0.0


@pytest.mark.parametrize("hermitian", [True, False])
@pytest.mark.parametrize("complex_values", [True, False])
def test_decomposition_sums_what_the_masked_formula_sums(
        indicator_plan, hermitian, complex_values):
    # bit for bit, the outer and inner terms are the sums of the weighted
    # |f0_hat|^2 over the sub-threshold points with |lambda| > and < r_eps,
    # with grid points on r_eps (h k == r_eps) and beside it
    plan, rng = indicator_plan, np.random.default_rng(3)
    on_radius = []
    for k in range(30, 42):
        h, half = plan.r_eps / k, 3 * k
        on_radius.append(h * k == plan.r_eps)
        size = half + 1 if hermitian else 2 * half + 1
        v = rng.standard_normal(size)
        if complex_values:
            v = v + 1j * rng.standard_normal(size)
        phi = 0.06 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        f0_hat = TransformSamples(h, v, hermitian)
        lam = np.abs(_symmetric_grid(h, half, hermitian))
        wf2 = f0_hat.weights * (v.real ** 2 + v.imag ** 2)
        below = np.abs(phi) < plan.eps ** plan.beta
        outer, inner = error_decomposition(
            f0_hat, TransformSamples(h, phi, hermitian), plan)
        assert outer == float(np.sum(wf2[below & (lam > plan.r_eps)]))
        assert inner == float(np.sum(wf2[below & (lam < plan.r_eps)]))
    assert any(on_radius) and not all(on_radius)


def test_decomposition_grid_preconditions(indicator_plan):
    plan = indicator_plan
    ones = np.ones(21, dtype=np.complex128)
    short = TransformSamples(0.01, ones)  # [-0.1, 0.1] misses r_eps
    with pytest.raises(ValidationError):
        error_decomposition(short, short, plan)
    with pytest.raises(ValidationError):
        error_decomposition(TransformSamples(0.1, ones),
                            TransformSamples(0.2, ones), plan)
    # the hermitian half of the same grid is another layout
    wide = np.ones(401, dtype=np.complex128)
    with pytest.raises(ValidationError):
        error_decomposition(TransformSamples(0.005, wide),
                            TransformSamples(0.005, wide[200:], True), plan)


@pytest.mark.parametrize("name", ["gaussian_kernel", "indicator_kernel"])
def test_the_folded_sums_agree_with_the_full_layout(request, name,
                                                    indicator_plan):
    # the same values on both layouts: the norm and the certificate's
    # terms move only by the order of their sums
    kernel = request.getfixturevalue(name)
    tf = grid_signal.fourier_grid(kernel, 0.01, 3000)
    full = TransformSamples(0.01, grid_signal._mirror(tf.values, tf.size))
    assert (full.size, full.half_count) == (tf.size, tf.half_count)
    assert math.isclose(grid_signal.l2_norm(tf), grid_signal.l2_norm(full),
                        rel_tol=1e-13)
    # 0.02 phi0_hat is below eps^beta everywhere, so no term is empty
    halves = error_decomposition(
        tf, TransformSamples(0.01, 0.02 * tf.values, True), indicator_plan)
    wholes = error_decomposition(
        full, TransformSamples(0.01, 0.02 * full.values), indicator_plan)
    assert halves[0] > 0.0 and halves[1] > 0.0
    assert math.isclose(halves[0], wholes[0], rel_tol=1e-13)
    assert math.isclose(halves[1], wholes[1], rel_tol=1e-13)


def test_decomposition_record_validation(indicator_plan):
    plan = indicator_plan
    with pytest.raises(ValidationError):
        ErrorDecomposition(plan, -1.0, 0.0, 0.0, 0.0, 1)
    with pytest.raises(ValidationError):
        ErrorDecomposition(plan, 0.0, -1.0, 0.0, 0.0, 1)
    # the bound is the plan's data term alone, 3 data_term < 1
    assert 3.0 * plan.data_term < 1.0
    assert not ErrorDecomposition(plan, 0.0, 0.0, 1.0, 0.0, 1).holds


def test_the_check_is_not_looser_than_a_tiny_bound(gaussian_kernel,
                                                   gaussian_profile):
    # at q = 10, beta = 0.05 and eps 1e-12 the whole bound is 1.9e-9, far
    # below an absolute slack of 1e-6; the derived slack is relative, so
    # twice the bound as achieved error fails the check
    instance = SweepInstance(kernel=gaussian_kernel, profile=gaussian_profile,
                             q=10.0, beta=0.05,
                             grids=GridSpec(t_extent=30.0, t_step=0.01,
                                            freq_extent_factor=60.0,
                                            freq_step=0.01),
                             base_seed=7)
    dec = run_single(instance, 1e-12).decomposition
    assert dec.holds
    assert 1e-9 < dec.total_bound < 1e-8
    violated = dataclasses.replace(
        dec, achieved_error=math.sqrt(2.0 * dec.total_bound))
    assert violated.achieved_sq_error > 1.99 * dec.total_bound
    assert not violated.holds


def _gamma(count):
    """Higham's gamma_{count-1}: the relative error bound of a computed sum
    of count nonnegative floats, in any order."""
    k = max(count - 1, 0) * 2.0 ** -53
    return k / (1.0 - k)


def test_each_sum_stays_within_its_share_of_the_rounding_bound(
        gaussian_instance):
    # the vectors behind a shipped row's three sums (gaussian's last eps,
    # the row closest to its bound), then adversarial nonnegative vectors
    # of the same lengths: np.sum against the exactly rounded math.fsum
    inst = gaussian_instance
    res = run_single(inst, 1e-10)
    f0_hat, dec = res.f0_hat, res.decomposition
    plan = dec.plan
    step, half = inst.grids.freq_step, f0_hat.half_count
    phi0_hat = grid_signal.fourier_grid(inst.kernel, step, half)
    # the hermitian halves, summed with the trapezoid weights folded onto
    # x >= 0; n still counts the whole grid, whose share the folded sums
    # of half + 1 terms stay inside
    lam = _symmetric_grid(step, half, True)
    assert f0_hat.hermitian and lam.size == half + 1
    wf2 = f0_hat.weights * (f0_hat.values.real ** 2 + f0_hat.values.imag ** 2)
    below = np.abs(phi0_hat.values) < plan.eps ** plan.beta
    diff = res.f0.values - res.f_eps.values
    t_step = inst.time_grid()[1]
    sums = {
        "outer": wf2[below & (np.abs(lam) > plan.r_eps)],
        "inner": wf2[below & (np.abs(lam) < plan.r_eps)],
        "achieved": (grid_signal.trapezoid_weights(diff.size, t_step)
                     * (diff.real ** 2 + diff.imag ** 2)),
    }
    assert float(np.sum(sums["outer"])) == dec.outer_term
    assert float(np.sum(sums["inner"])) == dec.inner_term
    assert dec.n == max(2 * half + 1, diff.size)
    assert dec.holds
    rng = np.random.default_rng(31)
    for length in (lam.size, diff.size, sums["outer"].size):
        spread = rng.lognormal(0.0, 30.0, length)
        sums[f"spread {length}"] = spread
        sums[f"sorted {length}"] = np.sort(spread)[::-1]
        sums[f"low bits {length}"] = (1.0 + 2.0 ** -52
                                      * rng.integers(0, 4, length))
        sums[f"one big {length}"] = np.r_[1.0,
                                          np.full(length - 1, 2.0 ** -53)]
    for name, x in sums.items():
        exact = math.fsum(x)
        assert abs(float(np.sum(x)) - exact) <= _gamma(x.size) * exact, name
