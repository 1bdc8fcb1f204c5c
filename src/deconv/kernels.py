"""Fixture kernels.

Three shapes cover the hypothesis branches the experiments care about:
indicator (compact support, transform with a known zero lattice), gaussian
(superlinear tail profile, nonvanishing transform) and two-sided exponential
(linear tail profile, the negative control for the superlinearity detector).

Grids are aligned so that kernel endpoints and profile nodes coincide with
exact multiples of the step; the indicator keeps its exact l1 mass and the
exact tail values that the profile examples rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .grid_signal import _CHIRP_LIMIT, SampledSignal

# e^{-t^2} at |t| = 26.6 sits at ~1e-308, the edge of the normal float
# range: sampling further adds nothing measurable
GAUSSIAN_HALF_WIDTH = 26.6

# e^{-|t|} tail beyond 28 is ~1.4e-12; recorded, not dropped silently
TWO_SIDED_EXP_HALF_WIDTH = 28.0


def _cells(span: float, step: float, what: str, operation: str) -> float:
    """span / step, refused while still a float once the 1 + span/step
    samples reach the chirp-z limit: no int() or allocation sees them."""
    cells = span / step
    if not cells + 1.0 < _CHIRP_LIMIT:
        raise ValidationError(f"{what} at step {step!r} asks for {cells + 1.0:.3g}"
                              " samples, past the chirp-z limit 2^26",
                              module="kernels", operation=operation)
    return cells


def make_indicator(a: float, b: float, step: float) -> SampledSignal:
    """Indicator of [a, b] sampled on exactly that interval.

    The grid must tile [a, b]: padding with outside zeros would smear the
    support edge by a trapezoid half-cell and shift every tail value.
    """
    if not (b > a and step > 0.0):
        raise ValidationError("need b > a and step > 0",
                              module="kernels", operation="make_indicator")
    count = round(_cells(b - a, step, f"[{a!r}, {b!r}]", "make_indicator"))
    if count < 2 or abs(count * step - (b - a)) > 1e-9 * step:
        raise ValidationError("step must tile the interval [a, b] exactly",
                              module="kernels", operation="make_indicator")
    return SampledSignal(a, step, np.ones(count + 1))


def make_gaussian(scale: float = 1.0, step: float = 0.005) -> SampledSignal:
    if not (scale > 0.0 and step > 0.0):
        raise ValidationError("need scale > 0 and step > 0",
                              module="kernels", operation="make_gaussian")
    half = int(math.ceil(_cells(2.0 * GAUSSIAN_HALF_WIDTH * scale, step,
                                f"scale {scale!r}", "make_gaussian") / 2.0))
    t = step * np.arange(-half, half + 1, dtype=np.float64)
    values = np.exp(-((t / scale) ** 2))
    tail = scale * math.sqrt(math.pi) * math.erfc(half * step / scale)
    return SampledSignal(t[0], step, values, truncation_tail=tail)


def make_two_sided_exp(rate: float = 1.0, step: float = 0.005) -> SampledSignal:
    if not (rate > 0.0 and step > 0.0):
        raise ValidationError("need rate > 0 and step > 0",
                              module="kernels", operation="make_two_sided_exp")
    half = int(math.ceil(_cells(2.0 * TWO_SIDED_EXP_HALF_WIDTH / rate, step,
                                f"rate {rate!r}", "make_two_sided_exp") / 2.0))
    t = step * np.arange(-half, half + 1, dtype=np.float64)
    values = np.exp(-rate * np.abs(t))
    tail = 2.0 * math.exp(-rate * half * step) / rate
    return SampledSignal(t[0], step, values, truncation_tail=tail)


def default_profile_grid(kernel: SampledSignal) -> np.ndarray:
    """s nodes 0, h, 2h, ... out to the kernel's reach, h = kernel step."""
    extent = max(abs(kernel.t_min), abs(kernel.t_max))
    return kernel.spacing * np.arange(int(round(extent / kernel.spacing)) + 1)
