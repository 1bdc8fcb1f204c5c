"""Controlled perturbation of a (kernel, data) pair.

The error model allows the measured kernel and data to differ from the truth
by eps in L1 and L2 respectively.  We split the budget evenly: the kernel
gets a fixed-shape bump with L1 norm exactly eps/2, the data a seeded
band-limited wave with L2 norm exactly eps/2, so the model bound holds with
equality margin 2 and every sweep row is reproducible from its seed.  The
wave sum_k a_k cos(k t/32 + phi_k), k = 1..64, is summed as the real part
of one chirp-z transform (no BLAS).

The generator is splitmix64, written out below so any language can replay
the stream bit for bit:

    state += 0x9E3779B97F4A7C15                 (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9    (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB    (mod 2^64)
    z = z ^ (z >> 31)
    output float = (z >> 11) / 2^53             (uniform in [0, 1))

Norm caveat: the perturbation COMPONENTS carry their norms exactly (to a few
ulp).  Re-measuring || (phi0 + bump) - phi0 || instead loses low bits of the
bump wherever phi0 dominates it, so for eps near machine epsilon times the
signal scale that round trip cannot reproduce eps/2 to 1e-12; tests that
want the exact norm measure the components.
"""

from __future__ import annotations

import numpy as np

from .errors import ComputationError, ValidationError
from .grid_signal import SampledSignal, _chirp_sums, _Fresh, l1_norm, l2_norm

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

WAVE_COUNT = 64
WAVE_MAX_FREQ = 2.0


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """`count` uniform floats in [0, 1) from the splitmix64 sequence."""
    if count < 0:
        raise ValidationError("count must be nonnegative",
                              module="noise", operation="splitmix64_stream")
    state = int(seed) & _MASK
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        state = (state + _GAMMA) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z = z ^ (z >> 31)
        out[i] = (z >> 11) * 2.0 ** -53
    return out


def noise_components(phi0: SampledSignal, g0: SampledSignal, eps: float,
                     seed: int) -> tuple[SampledSignal, SampledSignal]:
    """The two perturbation signals, scaled to L1 and L2 norm exactly eps/2.

    The kernel bump is a fixed Gaussian hump at the middle of the kernel
    grid; only the data wave depends on the seed.
    """
    if eps < 0.0:
        raise ValidationError("eps must be nonnegative",
                              module="noise", operation="noise_components")
    t = phi0.grid()
    center = 0.5 * (phi0.t_min + phi0.t_max)
    width = (phi0.t_max - phi0.t_min) / 8.0
    bump = np.exp(-(((t - center) / width) ** 2))
    raw_l1 = l1_norm(SampledSignal(phi0.t_min, phi0.spacing, bump))
    bump_signal = SampledSignal(phi0.t_min, phi0.spacing,
                                bump * ((0.5 * eps) / raw_l1))

    u = splitmix64_stream(seed, 2 * WAVE_COUNT)
    amplitudes = 2.0 * u[0::2] - 1.0
    phases = 2.0 * np.pi * u[1::2]
    step = WAVE_MAX_FREQ / WAVE_COUNT
    # a row sums its wave once: holding the setup would only raise its peak
    wave = _chirp_sums(g0.t_min, g0.spacing, g0.size, +1.0, step, step,
                       amplitudes * np.exp(1j * phases), hold=False).real
    raw_l2 = l2_norm(SampledSignal(g0.t_min, g0.spacing, wave))
    if raw_l2 < 1e-12:
        raise ComputationError("degenerate noise draw (all amplitudes cancel)",
                               module="noise", operation="noise_components")
    wave_signal = SampledSignal(g0.t_min, g0.spacing,
                                wave * ((0.5 * eps) / raw_l2))
    return bump_signal, wave_signal


def inject_noise(phi0: SampledSignal, g0: SampledSignal, eps: float,
                 seed: int) -> tuple[SampledSignal, SampledSignal]:
    """Perturbed pair (phi_eps, g_eps); eps=0 returns the inputs untouched."""
    if eps == 0.0:
        return phi0, g0
    bump, wave = noise_components(phi0, g0, eps, seed)
    phi_eps = SampledSignal(phi0.t_min, phi0.spacing,
                            _Fresh(phi0.values + bump.values),
                            phi0.truncation_tail)
    g_eps = SampledSignal(g0.t_min, g0.spacing,
                          _Fresh(g0.values + wave.values), g0.truncation_tail)
    return phi_eps, g_eps
