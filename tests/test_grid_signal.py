import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import direct_sums, gauss_hat, indicator_hat, two_sided_exp_hat
from deconv import grid_signal
from deconv.errors import ValidationError
from deconv.grid_signal import (SampledSignal, TransformSamples, _Fresh,
                                _chirp_apply,
                                _chirp_setup, _chirp_sums, _mirror,
                                _progression,
                                _smooth_length, _symmetric_grid, fourier_at,
                                fourier_grid,
                                inverse_fourier, l1_norm, l2_norm,
                                laplace_parts, read_signal_csv,
                                trapezoid_weights, write_signal_csv)
from deconv.kernels import make_gaussian, make_indicator, make_two_sided_exp
from deconv.noise import inject_noise, noise_components

# worst relative Parseval gap over 300 random wave packets: 3.2e-15
PARSEVAL_RTOL = 1e-13


def test_trapezoid_weights_sum_to_span():
    w = trapezoid_weights(11, 0.1)
    assert w[0] == w[-1] == 0.05
    assert np.allclose(w[1:-1], 0.1)
    assert math.isclose(float(np.sum(w)), 1.0, rel_tol=1e-15)


def test_norms_match_closed_forms(gaussian_kernel):
    # integral of e^{-t^2} is sqrt(pi); of e^{-2t^2} is sqrt(pi/2)
    assert math.isclose(l1_norm(gaussian_kernel), math.sqrt(math.pi),
                        rel_tol=2e-12)
    assert math.isclose(l2_norm(gaussian_kernel), (math.pi / 2.0) ** 0.25,
                        rel_tol=2e-12)


def test_fourier_matches_gaussian_closed_form(gaussian_kernel):
    lam = np.array([0.0, 0.5, 1.0, 3.7])
    got = fourier_at(gaussian_kernel, lam)
    want = gauss_hat(lam)
    assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))


def test_fourier_matches_exp_closed_form(exp_kernel):
    lam = np.array([0.0, 1.0, 2.5])
    got = fourier_at(exp_kernel, lam)
    want = two_sided_exp_hat(lam)
    # trapezoid on the |t| kink converges at h^2 only
    assert np.max(np.abs(got - want)) <= 1e-4


def test_fourier_matches_indicator_closed_form(indicator_kernel):
    lam = np.array([0.1, 1.0, 17.3])
    got = fourier_at(indicator_kernel, lam)
    want = indicator_hat(lam)
    # trapezoid endpoint error grows like (h lam)^2 on a jump kernel
    assert np.all(np.abs(got - want) <= np.array([1e-7, 1e-5, 1e-3]))


def test_indicator_transform_vanishes_on_lattice(indicator_kernel):
    # the sampled transform factors so the analytic zeros 2 pi k survive
    # discretization exactly
    lam = 2.0 * math.pi * np.array([1.0, 2.0, 7.0, 15.0])
    assert np.max(np.abs(fourier_at(indicator_kernel, lam))) < 1e-10


def test_fourier_grid_mirrors_real_signal(indicator_kernel):
    # the hermitian half, mirrored, is the transform on the whole grid
    tf = fourier_grid(indicator_kernel, 0.01, 500)
    assert tf.hermitian and tf.size == 1001 and tf.values.size == 501
    full = _symmetric_grid(0.01, 500)
    direct = fourier_at(indicator_kernel, full)
    assert np.max(np.abs(_mirror(tf.values, tf.size) - direct)) <= 1e-12
    assert np.array_equal(_symmetric_grid(tf.spacing, tf.half_count, True),
                          full[500:])
    assert np.max(np.abs(direct[:500] - np.conj(direct[:500:-1]))) <= 1e-14


@pytest.mark.parametrize("step, half", [(0.004, 3000), (0.05, 7), (0.3, 1)])
def test_a_real_transform_is_the_upper_half_bit_for_bit(step, half,
                                                        gaussian_kernel,
                                                        indicator_kernel):
    # the values at spacing * (0 .. half), stored as complex128: the sums
    # fourier_at makes there, for the float64 samples and for the same
    # samples cast to complex128; the full grid's own chirp-z sums agree
    for kernel in (gaussian_kernel, indicator_kernel):
        twin = SampledSignal(kernel.t_min, kernel.spacing,
                             kernel.values.astype(np.complex128))
        tf = fourier_grid(kernel, step, half)
        assert tf.values.dtype == np.complex128 and tf.hermitian
        assert (tf.size, tf.half_count) == (2 * half + 1, half)
        upper = _symmetric_grid(step, half)[half:]
        for want in (fourier_at(kernel, upper), fourier_at(twin, upper),
                     fourier_grid(twin, step, half).values):
            assert tf.values.tobytes() == want.tobytes()
        weighted = trapezoid_weights(kernel.size, kernel.spacing) * twin.values
        full = _chirp_sums(-step * half, step, 2 * half + 1, -1.0,
                           kernel.t_min, kernel.spacing, weighted)
        assert (np.max(np.abs(full[half:] - tf.values))
                <= 1e-12 * l1_norm(kernel))


def test_a_hermitian_inverse_matches_the_direct_sum(gaussian_kernel):
    # (1/2 pi) sum_k w_k F_k e^{i lambda_k t} over the whole grid, with
    # F(-x) = conj F(x): a real result, as float64
    step, half = 0.05, 200
    tf = fourier_grid(gaussian_kernel, step, half)
    back = inverse_fourier(tf, -3.0, 0.03, 201)
    assert back.values.dtype == np.float64
    wf = trapezoid_weights(tf.size, step) * _mirror(tf.values, tf.size)
    want = direct_sums(back.grid(), 1.0, -step * half, step, wf) / (2.0 * math.pi)
    assert (np.max(np.abs(back.values - want))
            <= 1e-13 * float(np.sum(np.abs(wf))))


def test_roundtrip_through_transform(gaussian_kernel):
    tf = fourier_grid(gaussian_kernel, 0.01, 3000)
    back = inverse_fourier(tf, gaussian_kernel.t_min, gaussian_kernel.spacing,
                           gaussian_kernel.size)
    assert np.max(np.abs(back.values - gaussian_kernel.values)) <= 1e-8


def test_symmetric_grid_and_its_validation(gaussian_kernel):
    grid = _symmetric_grid(0.5, 4)
    assert grid.size == 9 and grid[-1] == 2.0
    assert np.array_equal(grid, -grid[::-1])
    with pytest.raises(ValidationError):
        fourier_grid(gaussian_kernel, 0.0, 4)
    with pytest.raises(ValidationError):
        fourier_grid(gaussian_kernel, 0.5, 0)


def test_inverse_hermitian_fast_path_is_real(gaussian_kernel):
    tf = fourier_grid(gaussian_kernel, 0.01, 2000)
    back = inverse_fourier(tf, -5.0, 0.01, 1001)
    assert np.all(back.values.imag == 0.0)
    # compare against the complex evaluation of the same data
    slow = inverse_fourier(TransformSamples(tf.spacing,
                                            _mirror(tf.values, tf.size)),
                           -5.0, 0.01, 1001)
    assert np.max(np.abs(back.values - slow.values)) <= 1e-11


def test_inverse_keeps_a_small_imaginary_part(gaussian_kernel):
    # a 1e-12 imaginary bump is far inside any tolerance a symmetry test
    # on the transform values could use; only the caller knows it is there
    t = gaussian_kernel.grid()
    bump = np.exp(-4.0 * (t - 8.0) ** 2)
    signal = SampledSignal(gaussian_kernel.t_min, gaussian_kernel.spacing,
                           gaussian_kernel.values + 1e-12j * bump)
    tf = fourier_grid(signal, 0.01, 3000)
    back = inverse_fourier(tf, signal.t_min, signal.spacing, signal.size)
    # away from the gaussian's own rounding (about 3e-12 near t = 0)
    near = np.abs(t - 8.0) <= 2.0
    assert np.max(np.abs(back.values.imag - 1e-12 * bump)[near]) <= 1e-14


def test_progression_accepts_program_grids_only():
    # the grids the pipeline builds all fit a progression to a few ulp
    for grid in (0.004 * np.arange(-12540, 12541),
                 -30.0 + 0.005 * np.arange(12001),
                 np.linspace(-20.0, 20.0, 40001)):
        x0, dx = _progression(grid)
        assert x0 == grid[0] and math.isclose(dx, grid[1] - grid[0],
                                              rel_tol=1e-9)
    grid = np.linspace(-1.0, 1.0, 101)
    assert _progression(grid[:1]) is None
    assert _progression(grid[::-1]) is None
    bumped = grid.copy()
    bumped[50] += 8.0 * np.spacing(1.0)
    assert _progression(bumped) is None
    assert _progression(np.array([0.0, 1.0, 3.0])) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(2, 64), m=st.integers(2, 64),
       x0=st.floats(-20.0, 20.0), dx=st.floats(1e-3, 0.5),
       t_min=st.floats(-20.0, 20.0), h=st.floats(1e-3, 0.1),
       sign=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_chirp_matches_direct_sums(n, m, x0, dx, t_min, h, sign, seed):
    rng = np.random.default_rng(seed)
    w = h * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    pts = x0 + dx * np.arange(m)
    assert _progression(pts) is not None
    # reversed, the same points are no progression
    assert _progression(pts[::-1]) is None
    fast = _chirp_sums(*_progression(pts), m, sign, t_min, h, w)
    slow = direct_sums(pts, sign, t_min, h, w)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.sum(np.abs(w))


def test_chirp_matches_direct_sums_at_pipeline_sizes(gaussian_kernel):
    rng = np.random.default_rng(11)
    # forward half grid of a gaussian run at eps = 1e-6: 12001 samples on
    # the time grid, 12541 nonnegative frequencies
    t_min, h, n = -30.0, 0.005, 12001
    data = SampledSignal(t_min, h, rng.standard_normal(n)
                         + 1j * rng.standard_normal(n))
    lam = 0.004 * np.arange(12541)
    # the 4x-finer frequency grid of criterion 1, on the kernel itself
    lam4 = 0.001 * np.arange(-50160, 50161)
    for signal, pts, picks in ((data, lam, 512), (gaussian_kernel, lam4, 64)):
        t0, step = signal.t_min, signal.spacing
        weights = trapezoid_weights(signal.size, step) * signal.values
        fast = _chirp_sums(*_progression(pts), pts.size, -1.0, t0, step,
                           weights)
        # a sorted random subset is no progression: fourier_at sends it
        # to laplace_parts
        idx = np.sort(rng.choice(pts.size, picks, replace=False))
        assert _progression(pts[idx]) is None
        slow = direct_sums(pts[idx], -1.0, t0, step, weights)
        total = np.sum(np.abs(weights))
        assert np.max(np.abs(fast[idx] - slow)) <= 1e-12 * total
        assert (np.max(np.abs(fourier_at(signal, pts[idx]) - slow))
                <= 1e-13 * total)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(count=st.sampled_from([1, 2, 10, 100]), n=st.integers(2, 3000),
       t_min=st.floats(-20.0, 20.0), h=st.floats(1e-3, 0.1),
       reach=st.floats(0.0, 3.0),
       kind=st.sampled_from(["real", "complex", "palindromic"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fourier_at_arbitrary_points_matches_direct_sums(count, n, t_min, h,
                                                         reach, kind, seed):
    # up to 3 radians per sample step and 400 over the grid: the rounding
    # of lambda*t in either sum is about eps*|lambda*t| of sum|w|, and at
    # 1838 radians it alone passed 1e-13.  Both signs of lambda (z =
    # -i*lambda has real part +0.0 either way, so every point walks from
    # the last sample), real, complex and palindromic samples
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    if kind == "complex":
        values = values + 1j * rng.standard_normal(n)
    elif kind == "palindromic":
        values = values + values[::-1]
    signal = SampledSignal(t_min, h, values)
    t_reach = max(abs(t_min), abs(signal.t_max))
    lam = min(reach / h, 400.0 / t_reach) * rng.uniform(-1.0, 1.0, count)
    lam[0] = -abs(lam[0])
    assert count < 3 or _progression(lam) is None
    w = trapezoid_weights(n, h) * signal.values
    got = fourier_at(signal, lam)
    assert got.shape == lam.shape
    assert (np.max(np.abs(got - direct_sums(lam, -1.0, t_min, h, w)))
            <= 1e-13 * np.sum(np.abs(w)))


def _counting_setups(monkeypatch) -> list:
    """The point counts m of every chirp-z setup built from now on."""
    built, real_setup = [], grid_signal._chirp_setup

    def counting(x0, dx, m, *rest):
        built.append(m)
        return real_setup(x0, dx, m, *rest)
    monkeypatch.setattr(grid_signal, "_chirp_setup", counting)
    return built


@pytest.mark.parametrize("count", [2001, 2000])
def test_a_real_symmetric_scan_sums_half_the_grid(gaussian_kernel,
                                                  monkeypatch, count):
    k = gaussian_kernel
    t = k.grid()
    odd = SampledSignal(k.t_min, k.spacing, t * np.exp(-t * t))
    lam = np.linspace(-20.0, 20.0, count)
    built = _counting_setups(monkeypatch)
    mirrored = fourier_at(odd, lam)
    assert built == [(count + 1) // 2]
    weighted = trapezoid_weights(odd.size, odd.spacing) * odd.values
    full = _chirp_sums(*_progression(lam), count, -1.0, odd.t_min,
                       odd.spacing, weighted)
    assert built[1:] == [count]
    # measured 4.9e-15 of the peak
    assert (np.max(np.abs(mirrored - full))
            <= 1e-13 * np.max(np.abs(full)))
    half = count // 2
    assert np.array_equal(mirrored[:half], np.conj(mirrored[::-1][:half]))
    built.clear()
    complex_kernel = SampledSignal(k.t_min, k.spacing, k.values * (1.0 + 0.5j))
    fourier_at(complex_kernel, lam)
    assert built == [count]
    built.clear()
    fourier_at(odd, np.linspace(0.0, 20.0, count))  # not centred on 0
    assert built == [count]


def test_one_or_two_points_take_laplace_parts(gaussian_kernel, monkeypatch):
    # any two points fit a progression, but only three or more take the
    # chirp-z transform; the rows of a batch equal the one-point calls bit
    # for bit, also past laplace_parts' chunk of 24 points on this kernel,
    # where the 25th point is a chunk of its own
    built = _counting_setups(monkeypatch)
    pair = np.array([-1.3, 1.3])
    batch = np.array([-2.5, -1.3, 0.2, 1.3, 7.0])
    chunked = np.sort(np.random.default_rng(2).uniform(-20.0, 20.0, 25))
    assert _progression(pair) is not None and _progression(batch) is None
    assert _progression(chunked) is None
    k = gaussian_kernel
    w = trapezoid_weights(k.size, k.spacing) * k.values
    for pts in (pair, batch, chunked):
        together = fourier_at(k, pts)
        alone = [fourier_at(k, pts[i:i + 1])[0] for i in range(pts.size)]
        assert np.array_equal(together, alone)
        assert np.array_equal(together, laplace_parts(k, -1j * pts)[1])
        assert (np.max(np.abs(together
                              - direct_sums(pts, -1.0, k.t_min, k.spacing, w)))
                <= 1e-13 * np.sum(np.abs(w)))
    assert built == []


def _is_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_smooth_length_is_the_least_smooth_length():
    smooth = [k for k in range(1, 8193) if _is_smooth(k)]
    for k in range(1, 5001):
        assert _smooth_length(k) == next(s for s in smooth if s >= k)
    # the pipeline's sizes: the gaussian and indicator forward transforms
    assert _smooth_length(24775) == 25000
    assert _smooth_length(35108) == 36000
    assert _smooth_length(2 ** 15 + 1) == 32805  # 3^8 * 5, not 2^16


def test_chirp_matches_direct_sums_far_below_the_power_of_two():
    # n + m - 1 = 2^15 + 1: the FFT is 32805 long where a power of two
    # would be 65536
    rng = np.random.default_rng(5)
    n, m, t_min, h, x0, dx = 769, 32001, -3.0, 0.0078, -40.0, 0.0025
    w = h * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    fast = _chirp_sums(x0, dx, m, -1.0, t_min, h, w)
    idx = np.sort(rng.choice(m, 256, replace=False))
    t = t_min + h * np.arange(n)
    slow = np.array([np.sum(w * np.exp(-1j * (x0 + dx * i) * t))
                     for i in idx])
    assert np.max(np.abs(fast[idx] - slow)) <= 1e-12 * np.sum(np.abs(w))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=st.floats(-10.0, 10.0), b=st.floats(-10.0, 10.0),
       n=st.integers(2, 200), half=st.integers(1, 300),
       step=st.floats(1e-3, 0.2), seed=st.integers(0, 2 ** 32 - 1))
def test_fourier_grid_is_linear(a, b, n, half, step, seed):
    rng = np.random.default_rng(seed)
    f = SampledSignal(-1.0, 0.01, rng.standard_normal(n)
                      + 1j * rng.standard_normal(n))
    g = SampledSignal(-1.0, 0.01, rng.standard_normal(n))
    combo = SampledSignal(-1.0, 0.01, a * f.values + b * g.values)

    def full(signal):  # the values on the whole grid, for either layout
        tf = fourier_grid(signal, step, half)
        return _mirror(tf.values, tf.size) if tf.hermitian else tf.values

    got = full(combo)
    want = a * full(f) + b * full(g)
    scale = abs(a) * l1_norm(f) + abs(b) * l1_norm(g)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale + 1e-300


@settings(max_examples=30, deadline=None, derandomize=True)
@given(scale=st.floats(0.5, 2.0), center=st.floats(-2.0, 2.0))
def test_real_inverse_round_trips_a_gaussian(scale, center):
    # the transform is negligible past 40/scale and the gaussian past
    # 6 scale, so both truncations sit far below the tolerance
    h = 0.01
    t_min = center - 12.0 * scale
    count = int(round(24.0 * scale / h)) + 1
    t = t_min + h * np.arange(count)
    signal = SampledSignal(t_min, h, np.exp(-((t - center) / scale) ** 2))
    tf = fourier_grid(signal, 0.01, int(round(40.0 / scale / 0.01)))
    back = inverse_fourier(tf, t_min, h, count)
    assert back.values.dtype == np.float64
    assert np.max(np.abs(back.values - signal.values)) <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scale=st.floats(0.5, 2.0), center=st.floats(-2.0, 2.0),
       shift=st.floats(-5.0, 5.0), real=st.booleans())
def test_fourier_grid_keeps_the_l2_norm(scale, center, shift, real):
    # Parseval for a gaussian wave packet: both sides are trapezoid sums of
    # smooth integrands whose truncated tails are below e^-100
    h = 0.01
    t_min = center - 12.0 * scale
    count = int(round(24.0 * scale / h)) + 1
    t = t_min + h * np.arange(count)
    wave = np.cos(shift * t) if real else np.exp(1j * shift * t)
    signal = SampledSignal(t_min, h, np.exp(-((t - center) / scale) ** 2)
                           * wave)
    spacing = 0.01
    tf = fourier_grid(signal, spacing, int(round((40.0 / scale + 5.0)
                                                  / spacing)))
    # a real signal's weights fold the grid onto x >= 0
    assert tf.hermitian == signal.is_real()
    freq_side = (float(np.sum(tf.weights * np.abs(tf.values) ** 2))
                 / (2.0 * math.pi))
    time_side = l2_norm(signal) ** 2
    assert abs(freq_side - time_side) <= PARSEVAL_RTOL * time_side


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 120), m=st.integers(2, 160),
       sign=st.sampled_from([-1.0, 1.0]), x0=st.floats(-50.0, 50.0),
       dx=st.floats(1e-3, 0.5), t_min=st.floats(-5.0, 5.0),
       h=st.floats(1e-3, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_a_shared_chirp_setup_gives_each_weight_vector_its_own_sums(
        n, m, sign, x0, dx, t_min, h, seed):
    rng = np.random.default_rng(seed)
    setup = _chirp_setup(x0, dx, m, sign, t_min, h, n)
    t = t_min + h * np.arange(n)
    for _ in range(2):
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        shared = _chirp_apply(setup, w)
        assert np.array_equal(shared, _chirp_sums(x0, dx, m, sign, t_min, h, w))
        direct = np.array([np.sum(w * np.exp(sign * 1j * (x0 + dx * i) * t))
                           for i in range(m)])
        assert np.max(np.abs(shared - direct)) <= 1e-12 * np.sum(np.abs(w))


@pytest.mark.parametrize("step", [0.003, 0.007])
def test_a_progression_from_zero_reads_its_step_exactly(step, monkeypatch):
    # (step * k) / k misses step for these half counts, so a step read back
    # from the last point would keep a real signal's forward transform off
    # the inverse's setup, whose adjoint it is
    halves = [k for k in range(1000, 3000) if (step * k) / k != step]
    assert len(halves) > 200
    for k in halves:
        assert _progression(_symmetric_grid(step, k)[k:]) == (0.0, step)
    setups = []
    original = grid_signal._chirp_setup

    def counting(*args):
        setups.append(args)
        return original(*args)

    monkeypatch.setattr(grid_signal, "_chirp_setup", counting)
    signal = SampledSignal(-1.0, 0.05,
                           np.exp(-np.linspace(-1.0, 1.0, 41) ** 2))
    for k in halves[::40]:
        setups.clear()
        with grid_signal._row_scope():
            inverse_fourier(TransformSamples(step, np.ones(k + 1), True),
                            signal.t_min, signal.spacing, signal.size)
            fourier_grid(signal, step, k)
        assert len(setups) == 1, k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_half=st.integers(1, 60), n_odd=st.booleans(),
       m_half=st.integers(1, 80), m_odd=st.booleans(),
       sign=st.sampled_from([-1.0, 1.0]), x0=st.floats(-50.0, 50.0),
       dx=st.floats(1e-3, 0.5), t_min=st.floats(-5.0, 5.0),
       h=st.floats(1e-3, 0.1), seed=st.integers(0, 2 ** 32 - 1))
def test_a_chirp_setup_serves_its_adjoint(n_half, n_odd, m_half, m_odd, sign,
                                          x0, dx, t_min, h, seed):
    # the sums over the m points at the n samples with the sign flipped
    # are conj(K^T conj(w)), K^T being the reversed setup, for n and m of
    # either parity
    n, m = 2 * n_half + n_odd, 2 * m_half + m_odd
    rng = np.random.default_rng(seed)
    setup = _chirp_setup(x0, dx, m, sign, t_min, h, n)
    x = x0 + dx * np.arange(m)
    t = t_min + h * np.arange(n)
    w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    adjoint = np.conj(_chirp_apply(setup[::-1], np.conj(w)))
    direct = np.array([np.sum(w * np.exp(-sign * 1j * x * tj)) for tj in t])
    assert np.max(np.abs(adjoint - direct)) <= 1e-12 * np.sum(np.abs(w))
    # inside a row scope _chirp_sums takes that route, building nothing
    with grid_signal._row_scope():
        _chirp_sums(x0, dx, m, sign, t_min, h, np.ones(n))
        held = grid_signal._ROW_SETUPS.get()
        assert np.array_equal(
            _chirp_sums(t_min, h, n, -sign, x0, dx, w),
            np.conj(_chirp_apply(held[(x0, dx, m, sign, t_min, h, n)][::-1],
                                 np.conj(w))))
        assert len(held) == 1


@pytest.mark.parametrize("dx, m, bound", [
    (40.0 / 40000, 20001, 1.5e-15),  # the small-set scan's half at r = 20
    (0.004, 30284, 1e-14),  # the indicator sweep's last row, eps 1e-14
])
def test_blocked_sums_meet_the_direct_sums_at_the_indicator_sizes(
        indicator_kernel, dx, m, bound):
    # one chirp over all m points left 1.6e-14 and 2.2e-13 of sum |w|
    # against the direct sums here; the blocks' short chirp leaves 1.1e-15
    # and 1.2e-15
    k = indicator_kernel
    assert k.size == 201
    lead = _chirp_setup(0.0, dx, m, -1.0, k.t_min, k.spacing, k.size)[0]
    assert lead.ndim == 2 and lead.shape[0] >= 10
    w = trapezoid_weights(k.size, k.spacing) * k.values
    got = _chirp_sums(0.0, dx, m, -1.0, k.t_min, k.spacing, w)
    want = direct_sums(dx * np.arange(m), -1.0, k.t_min, k.spacing, w)
    assert np.max(np.abs(got - want)) <= bound * np.sum(np.abs(w))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 80), blocks=st.integers(2, 6), odd=st.booleans(),
       short=st.integers(1, 5), sign=st.sampled_from([-1.0, 1.0]),
       x0=st.one_of(st.floats(-50.0, -0.1), st.floats(0.1, 50.0)),
       dx=st.floats(1e-3, 0.05), t_min=st.floats(-5.0, 5.0),
       h=st.floats(1e-3, 0.01), real=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_sums_match_the_direct_sums(n, blocks, odd, short, sign, x0,
                                            dx, t_min, h, real, seed):
    # for n <= 80 a row is 1024 points long and holds up to 1024 - n
    # points; m = J b - s, 0 < s < J, runs in J blocks of b points, the
    # last one s short
    b = 1024 - n - ((1024 - n) % 2 != odd)
    m = blocks * b - 1 - short % (blocks - 1)
    assert _chirp_setup(x0, dx, m, sign, t_min, h, n)[0].shape == (blocks, n)
    assert -(-m // blocks) == b and b % 2 == odd
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) + (0.0 if real else
                                  1j * rng.standard_normal(n))
    got = _chirp_sums(x0, dx, m, sign, t_min, h, w)
    want = direct_sums(x0 + dx * np.arange(m), sign, t_min, h, w)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(w))


@pytest.mark.parametrize("half", [500, 30283])  # one block; 17 or 33
def test_a_record_keeps_the_sums_array_itself(indicator_kernel, half,
                                              monkeypatch):
    made, real_sums = [], grid_signal._chirp_sums

    def keeping(*args, **kwargs):
        made.append(real_sums(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(grid_signal, "_chirp_sums", keeping)
    k = indicator_kernel
    for signal in (k, SampledSignal(k.t_min, k.spacing, 1j * k.values)):
        tf = fourier_grid(signal, 0.004, half)
        assert tf.values is made[-1] and tf.values.flags.owndata
        assert tf.values.size == (half + 1 if tf.hermitian else 2 * half + 1)


def test_a_blocked_setup_serves_no_adjoint(monkeypatch):
    # 5000 points over 16 samples run in 5 blocks; the swapped grids build
    # their own setup, of one block, inside the scope
    n, m, dx, t_min, h = 16, 5000, 0.01, -0.3, 0.02
    built = _counting_setups(monkeypatch)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    with grid_signal._row_scope():
        _chirp_sums(0.5, dx, m, -1.0, t_min, h, np.ones(n))
        held = grid_signal._ROW_SETUPS.get()
        assert held[(0.5, dx, m, -1.0, t_min, h, n)][0].shape == (5, n)
        got = _chirp_sums(t_min, h, n, +1.0, 0.5, dx, w)
        assert built == [m, n] and len(held) == 2
        assert held[(t_min, h, n, +1.0, 0.5, dx, m)][0].ndim == 1
    want = direct_sums(t_min + h * np.arange(n), +1.0, 0.5, dx, w)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.sum(np.abs(w))


def test_chirp_rejects_sizes_past_exact_squares():
    # d^2 stays an exact float64 integer only while n + m < 2^26; the
    # check fires before anything of that size is allocated
    with pytest.raises(ValidationError):
        _chirp_sums(0.0, 1.0, (1 << 26) - 1, -1.0, 0.0, 1.0,
                    np.ones(1, dtype=np.complex128))


def _old_upper_weights(transform: TransformSamples) -> np.ndarray:
    """The real inverse's weights as formed from all M trapezoid weights of
    a full-layout record."""
    mid = transform.half_count
    weighted = (trapezoid_weights(transform.size, transform.spacing)[mid:]
                * transform.values[mid:])
    weighted[0] *= 0.5
    return weighted


def test_real_inverse_weights_match_the_full_grid_formula(monkeypatch):
    # trapezoid_weights(mid + 1, h) on the hermitian half gives the old
    # w[mid:] * v[mid:] with its first entry halved, bit for bit; the one
    # exception is a zero-frequency value -0 - 0j, whose imaginary zero the
    # old complex halving turned positive
    seen, real_sums = [], grid_signal._chirp_sums

    def recording(*args):
        seen.append(args[-1])
        return real_sums(*args)

    monkeypatch.setattr(grid_signal, "_chirp_sums", recording)
    rng = np.random.default_rng(17)
    for _ in range(300):
        mid = int(rng.integers(1, 40))
        parts = (rng.standard_normal((2, 2 * mid + 1))
                 * 10.0 ** rng.integers(-100, 100, (2, 2 * mid + 1)))
        parts[rng.random(parts.shape) < 0.1] = 0.0
        parts[rng.random(parts.shape) < 0.1] = -0.0
        values = np.empty(2 * mid + 1, dtype=np.complex128)
        values.real, values.imag = parts
        spacing = float(rng.uniform(1e-4, 2.0))
        inverse_fourier(TransformSamples(spacing, values[mid:], True),
                        -1.0, 0.1, 5)
        old = _old_upper_weights(TransformSamples(spacing, values))
        if np.all(np.signbit(parts[:, mid]) & (parts[:, mid] == 0.0)):
            old[0] = complex(0.0, -0.0)
        assert seen[-1].tobytes() == old.tobytes()
    values = np.full(3, complex(-0.0, -0.0))
    inverse_fourier(TransformSamples(0.5, values[1:], True), -1.0, 0.1, 5)
    old = _old_upper_weights(TransformSamples(0.5, values))
    assert np.signbit(seen[-1][0].imag) and not np.signbit(old[0].imag)
    assert seen[-1][1:].tobytes() == old[1:].tobytes()


def test_laplace_matches_windowed_closed_form():
    # phi = e^{-t^2} on [-10, 10]; the window matters once the integrand
    # peak e^{zt - t^2} at t = z/2 approaches the edge
    t0, h, n = -10.0, 0.005, 4001
    t = t0 + h * np.arange(n)
    sig = SampledSignal(t0, h, np.exp(-t * t).astype(np.complex128))
    zs = np.array([1.5, -3.0, 12.0], dtype=np.complex128)
    log_scale, reduced = laplace_parts(sig, zs)
    got = reduced * np.exp(log_scale)
    want = np.array([
        math.sqrt(math.pi) * math.exp(z.real ** 2 / 4.0) * 0.5
        * (math.erf(10.0 - z.real / 2.0) + math.erf(10.0 + z.real / 2.0))
        for z in zs])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8


def _direct_laplace(signal, zs):
    """(log_scale, reduced) with one exp per contour point and sample."""
    t = signal.t_min + signal.spacing * np.arange(signal.size)
    wf = trapezoid_weights(signal.size, signal.spacing) * signal.values
    log_scale = np.maximum(zs.real * t[0], zs.real * t[-1])
    reduced = np.array([np.sum(wf * np.exp(z * t - ls))
                        for z, ls in zip(zs, log_scale)])
    return log_scale, reduced, float(np.sum(np.abs(wf)))


def _unaligned_copy(zs):
    """zs in a strided view that starts one byte into its buffer."""
    raw = np.zeros(2 * zs.nbytes + 1, dtype=np.uint8)
    view = raw[1:].view(np.complex128)[::2]
    view[:] = zs
    assert not view.flags.aligned and not view.flags.contiguous
    return view


@pytest.mark.parametrize("n", [2, 15, 16, 17, 201, 2001, 10641])
@pytest.mark.parametrize("radius", [0.5, 5.0, 50.0, 300.0])
def test_laplace_matches_direct_sums(n, radius):
    # block lengths of 16 around the block edges, runs of 8 blocks between
    # direct block starts, and the gaussian kernel's 10641 samples, on
    # circles and on both real half-axes, for complex and real signals
    rng = np.random.default_rng(n * 1000 + int(radius))
    zs = np.concatenate([
        radius * np.exp(2j * math.pi * np.arange(64) / 64),
        np.linspace(-radius, radius, 33).astype(np.complex128)])
    for draw in range(10):
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sig = SampledSignal(rng.uniform(-1.0, 1.0), rng.uniform(1e-3, 1e-2),
                            values.real if draw % 2 else values)
        log_scale, reduced = laplace_parts(sig, zs)
        want_scale, want, total = _direct_laplace(sig, zs)
        assert np.array_equal(log_scale, want_scale)
        assert np.max(np.abs(reduced - want)) <= 1e-13 * total
        # the summation order does not depend on how the points are laid out
        again_scale, again = laplace_parts(sig, _unaligned_copy(zs))
        assert again_scale.tobytes() == log_scale.tobytes()
        assert again.tobytes() == reduced.tobytes()


def test_laplace_rounding_compounds_over_a_few_steps():
    # one unit sample at a time on the gaussian kernel's length; with
    # spacing 2^-7, t = 0 .. 83 and these z, every z*t is exact, so each
    # exp below is the term to within an ulp.  A sample d <= 127 samples
    # past its block run's direct start carries d times the error of w
    # plus at most 16 + 7 rounded products: 152 eps bounds it, where one
    # direct start for the whole walk would reach thousands of eps
    n, h = 10641, 2.0 ** -7
    zs = np.array([300j, -300j, complex(-2.0 ** -10, 300.0),
                   complex(2.0 ** -10, -300.0), complex(-0.5, 37.0)])
    t = h * np.arange(n)
    w = trapezoid_weights(n, h)
    worst = 0.0
    for j in [*range(0, n, 29), n - 2, n - 1]:
        values = np.zeros(n)
        values[j] = 1.0
        log_scale, reduced = laplace_parts(SampledSignal(0.0, h, values), zs)
        want = w[j] * np.exp(zs * t[j] - log_scale)
        worst = max(worst, np.max(np.abs(reduced - want) / np.abs(want)))
    assert worst <= 152 * np.finfo(np.float64).eps


@pytest.mark.parametrize("step", [0.005, 0.05])
def test_laplace_stays_finite_at_large_radius(step):
    # at step 0.05 one block spans Re(z)*t = 3750 here, so a recurrence
    # walking toward larger Re(z)*t would overflow
    kernel = SampledSignal(0.0, step, np.ones(int(round(1.0 / step)) + 1))
    zs = 5000.0 * np.exp(2j * math.pi * np.arange(256) / 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_scale, reduced = laplace_parts(kernel, zs)
        log_abs = log_scale + np.log(np.abs(reduced))
    assert np.all(np.isfinite(log_abs))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["steps", "gaussians"]),
       parts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0)), min_size=1, max_size=4),
       r=st.sampled_from([0.01, 0.1, 0.5, 2.0, 8.0]))
def test_transform_floor_is_below_the_transform(kind, parts, r):
    # compact kernels of 1-4 signed steps on [0, 1], and sums of 1-3
    # gaussians with positive weights, scales 0.3-2 and centres in [-3, 3],
    # whose floor clears 0 at the smaller radii
    if kind == "steps":
        t = 0.01 * np.arange(101)
        values = sum(height * ((t >= min(a, b)) & (t <= max(a, b)))
                     for height, a, b in parts)
        signal = SampledSignal(0.0, 0.01, values)
    else:
        t = -10.0 + 0.05 * np.arange(401)
        values = sum((0.2 + abs(weight)) * np.exp(-((t - 6.0 * a + 3.0)
                                                    / (0.3 + 1.7 * b)) ** 2)
                     for weight, a, b in parts[:3])
        signal = SampledSignal(-10.0, 0.05, values)
    w = trapezoid_weights(signal.size, signal.spacing) * signal.values
    lam = np.linspace(-r, r, 1001)
    least = np.min(np.abs(direct_sums(lam, -1.0, signal.t_min,
                                      signal.spacing, w)))
    assert grid_signal._transform_floor(signal, r) <= least


def test_signal_csv_roundtrips_exactly(tmp_path, indicator_kernel):
    path = str(tmp_path / "sig.csv")
    write_signal_csv(path, indicator_kernel)
    back = read_signal_csv(path)
    assert back.t_min == indicator_kernel.t_min
    # spacing is re-inferred from the written grid, exact only to rounding
    assert math.isclose(back.spacing, indicator_kernel.spacing,
                        rel_tol=1e-12)
    assert np.array_equal(back.values, indicator_kernel.values)


def test_signal_csv_roundtrips_every_magnitude_bit_for_bit(tmp_path):
    # 1e-300 .. 1e300 crosses the writer's numpy range (1e-29 .. 1e17) and
    # the `%` fallback on both sides; signed zeros must keep their sign
    magnitudes = np.logspace(-300, 300, 1201)
    re = magnitudes * np.where(np.arange(1201) % 2, -1.0, 1.0)
    im = -magnitudes[::-1]
    re[[5, 600]] = -0.0
    im[[7, 600]] = [0.0, -0.0]
    values = np.empty(re.size, dtype=np.complex128)
    values.real, values.imag = re, im   # re + 1j * im loses the -0.0 parts
    signal = SampledSignal(-3.0, 0.25, values)
    path = str(tmp_path / "sig.csv")
    write_signal_csv(path, signal)
    back = read_signal_csv(path)
    assert (back.t_min, back.spacing) == (-3.0, 0.25)
    bits = back.values.view(np.float64).view(np.int64)
    assert np.array_equal(bits, signal.values.view(np.float64).view(np.int64))


def test_signal_validation_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        SampledSignal(0.0, 0.0, np.ones(4, dtype=np.complex128))
    with pytest.raises(ValidationError):
        SampledSignal(0.0, 0.1, np.ones(1, dtype=np.complex128))
    with pytest.raises(ValidationError):
        SampledSignal(0.0, 0.1, np.array([1.0, np.nan], dtype=np.complex128))
    # a transform lives on spacing * (-h .. h): odd size >= 3, spacing > 0
    for values in (np.zeros(4), np.zeros(1), np.zeros((3, 3))):
        with pytest.raises(ValidationError):
            TransformSamples(0.1, values)
    for spacing in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            TransformSamples(spacing, np.zeros(3))


def test_signal_values_are_read_only(indicator_kernel):
    with pytest.raises(ValueError):
        indicator_kernel.values[0] = 0.0


def test_fresh_values_are_kept_uncopied_unless_a_view():
    # a record copies what a caller passes in, keeps a fresh array that
    # owns its data as it is, and copies a fresh view rather than pin its
    # base; each ends read-only, and the checks still run
    for make in (lambda v: SampledSignal(0.0, 0.1, v),
                 lambda v: TransformSamples(0.1, v)):
        base = np.arange(5, dtype=np.complex128)
        for values, kept in ((base, False), (_Fresh(base[1:4]), False),
                             (_Fresh(base), True)):
            record = make(values)
            arr = values.array if isinstance(values, _Fresh) else values
            assert (record.values is arr) == kept
            assert np.array_equal(record.values, arr)
            assert not record.values.flags.writeable
    with pytest.raises(ValidationError):
        SampledSignal(0.0, 0.1, _Fresh(np.array([1.0, np.nan])))
    with pytest.raises(ValidationError):
        TransformSamples(0.1, _Fresh(np.zeros(4)))
    with pytest.raises(ValidationError):
        TransformSamples(0.0, _Fresh(np.zeros(3)))


def bits(values):
    """The bytes of an array, as int64 words: -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values).view(np.int64)


def test_real_samples_stay_float64(gaussian_kernel, indicator_kernel,
                                   exp_kernel):
    # real input is stored as float64, complex input as complex128
    for kernel in (gaussian_kernel, indicator_kernel, exp_kernel):
        assert kernel.values.dtype == np.float64 and kernel.is_real()
    phi_eps, g_eps = inject_noise(indicator_kernel, gaussian_kernel, 1e-6, 3)
    assert phi_eps.values.dtype == g_eps.values.dtype == np.float64
    for part in noise_components(indicator_kernel, gaussian_kernel, 1e-6, 3):
        assert part.values.dtype == np.float64
    tf = fourier_grid(gaussian_kernel, 0.01, 500)
    assert tf.values.dtype == np.complex128
    back = inverse_fourier(tf, -5.0, 0.01, 1001)
    assert back.values.dtype == np.float64 and back.is_real()
    full = TransformSamples(tf.spacing, _mirror(tf.values, tf.size))
    assert inverse_fourier(full, -5.0, 0.01, 1001).values.dtype == np.complex128
    for values in ([1, 2, 3], np.arange(3), np.ones(3, dtype=np.float32)):
        assert SampledSignal(0.0, 0.1, values).values.dtype == np.float64
    for values in ([1j, 2, 3], np.ones(3, dtype=np.complex64)):
        assert SampledSignal(0.0, 0.1, values).values.dtype == np.complex128


@pytest.mark.parametrize("name", ["gaussian_kernel", "indicator_kernel",
                                  "exp_kernel"])
def test_a_complex_twin_transforms_bit_for_bit(request, name):
    # a real signal and its complex128 copy with +0.0 imaginary parts take
    # the same paths and give the same bits; so does an imaginary -0.0
    real = request.getfixturevalue(name)
    for imag in (0.0, -0.0):
        values = np.empty(real.size, dtype=np.complex128)
        values.real, values.imag = real.values, imag
        twin = SampledSignal(real.t_min, real.spacing, values)
        assert twin.values.dtype == np.complex128 and twin.is_real()
        for step, half in ((0.004, 3000), (0.05, 7)):
            assert np.array_equal(
                bits(fourier_grid(real, step, half).values),
                bits(fourier_grid(twin, step, half).values))
        zs = np.array([0.0, 2.5, -7.0 + 3.0j, 40.0j, -1.0 - 90.0j, 0.3])
        for got, want in zip(laplace_parts(real, zs), laplace_parts(twin, zs)):
            assert np.array_equal(bits(got), bits(want))
        lam = np.array([0.0, 0.7, 13.1])  # arbitrary points
        assert np.array_equal(bits(fourier_at(real, lam)),
                              bits(fourier_at(twin, lam)))
        assert l2_norm(real) == l2_norm(twin)
        assert l1_norm(real) == l1_norm(twin)


def test_a_real_signal_csv_reads_back_float64(tmp_path, gaussian_kernel):
    path = tmp_path / "real.csv"
    write_signal_csv(str(path), gaussian_kernel)
    lines = path.read_bytes().split(b"\n")
    assert all(line.endswith(b",0") for line in lines[1:-1])
    back = read_signal_csv(str(path))
    assert back.values.dtype == np.float64
    assert np.array_equal(bits(back.values), bits(gaussian_kernel.values))
    assert back.t_min == gaussian_kernel.t_min


@pytest.mark.parametrize("make", [
    lambda: make_gaussian(1.0, 0.005), lambda: make_two_sided_exp(1.0, 0.005),
    lambda: make_indicator(3.8, 43.3, 0.1)],
    ids=["gaussian", "two_sided_exp", "indicator"])
def test_a_written_kernel_reads_back_on_its_own_grid(tmp_path, make):
    # the spacing comes from the whole t column: t[1] - t[0] read the
    # gaussian's 0.005 back as 0.004999999999999005, and its rewrite moved
    kernel = make()
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_signal_csv(str(first), kernel)
    back = read_signal_csv(str(first))
    assert (back.t_min, back.spacing) == (kernel.t_min, kernel.spacing)
    write_signal_csv(str(second), back)
    assert second.read_bytes() == first.read_bytes()


def test_a_negative_zero_imaginary_column_stays_complex(tmp_path):
    values = np.empty(4, dtype=np.complex128)
    values.real, values.imag = [1.0, -2.0, 0.0, 3.5], -0.0
    path = tmp_path / "negative.csv"
    write_signal_csv(str(path), SampledSignal(0.0, 0.5, values))
    assert path.read_bytes() == (b"t,re,im\n0,1,-0\n0.5,-2,-0\n1,0,-0\n"
                                 b"1.5,3.5,-0\n")
    back = read_signal_csv(str(path))
    assert back.values.dtype == np.complex128 and back.is_real()
    assert np.array_equal(bits(back.values.imag), bits(values.imag))
    # one -0.0 among +0.0 parts is enough
    values.imag = [0.0, 0.0, -0.0, 0.0]
    write_signal_csv(str(path), SampledSignal(0.0, 0.5, values))
    assert read_signal_csv(str(path)).values.dtype == np.complex128
