"""Perturbation model: exact budgets, seeded replay, generator identity."""

import math

import numpy as np
import pytest

from deconv.errors import ValidationError
from deconv.grid_signal import SampledSignal, l1_norm, l2_norm
from deconv.noise import inject_noise, noise_components, splitmix64_stream

from _oracles import noise_wave_reference, splitmix64_reference


@pytest.fixture(scope="module")
def data_signal():
    t = -10.0 + 0.005 * np.arange(4001)
    return SampledSignal(-10.0, 0.005, np.exp(-0.5 * t * t) * np.cos(t))


def test_splitmix64_matches_reference_recurrence():
    for seed in (0, 1, 20240817, 0xFFFFFFFFFFFFFFFF):
        got = splitmix64_stream(seed, 16)
        want = splitmix64_reference(seed, 16)
        assert got.tolist() == want.tolist()


def test_splitmix64_range_and_determinism():
    u = splitmix64_stream(42, 4096)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, splitmix64_stream(42, 4096))
    assert splitmix64_stream(42, 0).size == 0
    with pytest.raises(ValidationError):
        splitmix64_stream(42, -1)


@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10])
def test_component_norms_are_exact(gaussian_kernel, data_signal, eps):
    bump, wave = noise_components(gaussian_kernel, data_signal, eps, seed=11)
    assert math.isclose(l1_norm(bump), 0.5 * eps, rel_tol=1e-12)
    assert math.isclose(l2_norm(wave), 0.5 * eps, rel_tol=1e-12)


@pytest.mark.parametrize("seed", [1, 11, 20240817])
def test_wave_matches_the_cosine_sum(data_signal, seed):
    # the wave is rescaled to L2 norm eps/2; the oracle's own trapezoid
    # norm undoes that scaling
    eps = 1e-6
    _, wave = noise_components(data_signal, data_signal, eps, seed)
    want = noise_wave_reference(seed, data_signal.grid())
    w = np.full(want.size, data_signal.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    raw_l2 = math.sqrt(float(np.sum(w * want * want)))
    got = wave.values.real * (raw_l2 / (0.5 * eps))
    assert np.all(wave.values.imag == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_injected_pair_deviates_by_the_budget(gaussian_kernel, data_signal):
    # at eps far above machine noise the round trip through the sum is clean
    eps = 1e-2
    phi_eps, g_eps = inject_noise(gaussian_kernel, data_signal, eps, seed=11)
    d_phi = SampledSignal(phi_eps.t_min, phi_eps.spacing,
                          phi_eps.values - gaussian_kernel.values)
    d_g = SampledSignal(g_eps.t_min, g_eps.spacing,
                        g_eps.values - data_signal.values)
    assert math.isclose(l1_norm(d_phi), 0.5 * eps, rel_tol=1e-12)
    assert math.isclose(l2_norm(d_g), 0.5 * eps, rel_tol=1e-12)
    assert phi_eps.truncation_tail == gaussian_kernel.truncation_tail


def test_zero_eps_returns_inputs_untouched(gaussian_kernel, data_signal):
    phi_eps, g_eps = inject_noise(gaussian_kernel, data_signal, 0.0, seed=11)
    assert phi_eps is gaussian_kernel
    assert g_eps is data_signal


def test_seeds_change_the_wave_but_not_its_norm(gaussian_kernel, data_signal):
    _, wave_a = noise_components(gaussian_kernel, data_signal, 1e-4, seed=1)
    _, wave_b = noise_components(gaussian_kernel, data_signal, 1e-4, seed=2)
    assert not np.array_equal(wave_a.values, wave_b.values)
    assert math.isclose(l2_norm(wave_a), l2_norm(wave_b), rel_tol=1e-12)
    _, wave_a2 = noise_components(gaussian_kernel, data_signal, 1e-4, seed=1)
    assert np.array_equal(wave_a.values, wave_a2.values)


def test_negative_eps_rejected(gaussian_kernel, data_signal):
    with pytest.raises(ValidationError):
        noise_components(gaussian_kernel, data_signal, -1e-6, seed=0)
