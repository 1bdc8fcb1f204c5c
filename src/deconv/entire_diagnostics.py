"""Growth exponents and zero counts for transforms of compact-support kernels.

A kernel supported in [mu, sigma] subset [0, 1] has an entire Laplace
transform Phi(z) = integral of phi(t) e^{zt}; its real-axis growth recovers
the support edges,

    log |Phi(R)| / R  -> sigma,      log |Phi(-R)| / R -> -mu,

and its zeros have linear density (sigma - mu)/pi along radii.  Everything
here is evaluated in the log domain, so there is no overflow ceiling on the
radii.  Zeros are counted by the argument principle on circles; a real
kernel's transform is conjugate-symmetric, Phi(conj z) = conj Phi(z), so
its contour sum runs over the upper half-circle, and over a quarter for a
kernel symmetric about its centre c: Phi(z) = e^{2cz} conj Phi(-conj z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, PhaseTrackingError, ValidationError
from .grid_signal import SampledSignal, laplace_parts

_CONTOUR_ZERO_REL = 1e-13   # |Phi| under this times its larger neighbour => nudge
_NUDGE_FACTOR = 0.37        # irrational-flavored step, avoids zero lattices
_MAX_NUDGES = 8


def _require_compact(kernel: SampledSignal, operation: str) -> None:
    if kernel.truncation_tail != 0.0:
        raise ValidationError("kernel carries off-grid mass: transform is "
                              "not entire-evaluable from these samples",
                              module="entire_diagnostics", operation=operation)


def supported_in_unit_interval(kernel: SampledSignal) -> bool:
    """Nonzero, no off-grid mass, and every nonzero sample inside [0, 1]."""
    if kernel.truncation_tail != 0.0:
        return False
    t = kernel.grid()
    support = t[np.abs(kernel.values) > 0.0]
    return bool(support.size > 0 and support[0] >= -1e-9
                and support[-1] <= 1.0 + 1e-9)


def _log_abs_transform(kernel: SampledSignal, zs: np.ndarray) -> np.ndarray:
    """log |Phi(z)| per sample, with -inf where the reduced sum underflows."""
    log_scale, reduced = laplace_parts(kernel, zs)
    mag = np.abs(reduced)
    out = np.full(zs.shape, -np.inf)
    ok = mag > 0.0
    out[ok] = log_scale[ok] + np.log(mag[ok])
    return out


@dataclass(frozen=True)
class GrowthEstimate:
    """Real-axis growth ratios and their tail-window exponents.

    sigma_hat is the max of log_ratio_pos over the last third of the radii,
    the declared finite-R stand-in for a limsup; mu_hat analogously from the
    negative axis.  Radii where the transform lands near a zero crossing
    (underflow of the reduced sum) are flagged and excluded from the max.
    """

    radii: np.ndarray
    log_ratio_pos: np.ndarray
    log_ratio_neg: np.ndarray
    sigma_hat: float
    mu_hat: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma_hat) and math.isfinite(self.mu_hat)):
            raise ValidationError("growth exponents must be finite",
                                  module="entire_diagnostics",
                                  operation="GrowthEstimate")

    @property
    def excluded_pos(self) -> np.ndarray:
        return ~np.isfinite(self.log_ratio_pos)

    @property
    def excluded_neg(self) -> np.ndarray:
        return ~np.isfinite(self.log_ratio_neg)


def growth_profile(kernel: SampledSignal, radii) -> GrowthEstimate:
    """Evaluate log|Phi(+/-R)|/R on the given radii, estimate sigma and mu.

    The kernel must be compactly supported inside [0, 1]: that pins
    0 <= mu <= sigma <= 1 and makes the two tail maxima direct estimates of
    the support edges.
    """
    if not supported_in_unit_interval(kernel):
        raise ValidationError("kernel must be nonzero with no off-grid mass "
                              "and support inside [0, 1]",
                              module="entire_diagnostics", operation="growth_profile")
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or r.size < 3 or np.any(np.diff(r) <= 0.0) or r[0] <= 0.0:
        raise ValidationError("radii must be at least 3 increasing positives",
                              module="entire_diagnostics", operation="growth_profile")

    log_pos = _log_abs_transform(kernel, r.astype(np.complex128))
    log_neg = _log_abs_transform(kernel, (-r).astype(np.complex128))
    ratio_pos = log_pos / r
    ratio_neg = log_neg / r
    tail = slice(2 * r.size // 3, r.size)

    def tail_max(ratios, which):
        vals = ratios[tail][np.isfinite(ratios[tail])]
        if vals.size == 0:
            raise ComputationError(f"every {which}-axis radius in the tail "
                                   "window sits on a near-zero of the transform",
                                   module="entire_diagnostics",
                                   operation="growth_profile")
        return float(np.max(vals))

    sigma_hat = tail_max(ratio_pos, "positive")
    mu_hat = -tail_max(ratio_neg, "negative")
    return GrowthEstimate(r, ratio_pos, ratio_neg, sigma_hat, mu_hat)


def _winding_attempt(kernel: SampledSignal, r: float, n: int):
    """One argument-principle pass: (winding, max wrapped phase step).

    The contour samples are z_k = r * exp(2 pi i k / n), k = 0 .. n-1, with
    n even.  A complex kernel sums the whole circle.  A real kernel has
    Phi(conj z) = conj Phi(z), so the lower half retraces the upper half's
    phase steps: the winding is twice the step sum over k = 0 .. n/2, whose
    ends neighbour their mirror images.  A palindrome centred at c also has
    Phi(z) = e^{2cz} conj Phi(-conj z) and -conj z_k = z_{n/2-k}, so
    k = 0 .. n//4 are summed and the rest of the half reflected.
    """
    real = kernel.is_real()
    quarter = real and np.array_equal(kernel.values, kernel.values[::-1])
    count = n // 4 + 1 if quarter else n // 2 + 1 if real else n
    zs = r * np.exp(2j * math.pi * np.arange(count) / n)
    log_scale, reduced = laplace_parts(kernel, zs)
    if quarter:  # k = count .. n/2 from their reflections n/2-k
        src = slice(n // 2 - count, None, -1)
        c = 0.5 * (kernel.t_min + kernel.t_max)
        reduced = np.concatenate(
            [reduced, np.conj(reduced[src]) * np.exp(2j * c * zs.imag[src])])
        log_scale = np.concatenate([log_scale,
                                    log_scale[src] - 2.0 * c * zs.real[src]])
    mag = np.abs(reduced)
    if np.min(mag) == 0.0:
        return None  # dead sample: treat as contour-on-zero, caller nudges
    log_abs = log_scale + np.log(mag)
    # a sample sitting on a zero collapses relative to its neighbors; the
    # contour-wide max is useless here, |Phi| spans hundreds of e-folds
    # around one circle when r is large
    if real:  # samples 1 and n/2-1 mirror to the ends' outer neighbours
        ring = np.concatenate([log_abs[1:2], log_abs, log_abs[-2:-1]])
        after, before, laps = reduced[1:], reduced[:-1], 2.0
    else:
        ring = np.concatenate([log_abs[-1:], log_abs, log_abs[:1]])
        after, before, laps = reduced, np.roll(reduced, 1), 1.0
    if np.min(log_abs - np.maximum(ring[:-2], ring[2:])) < math.log(_CONTOUR_ZERO_REL):
        return None
    steps = np.angle(after * np.conj(before))  # wrapped, from each predecessor
    return (float(laps * np.sum(steps) / (2.0 * math.pi)),
            float(np.max(np.abs(steps))))


def count_zeros(kernel: SampledSignal, r: float) -> int:
    """Zeros of the transform inside |z| <= r by contour phase tracking.

    The winding number of Phi around the circle equals the enclosed zero
    count.  The circle gets n = 2 * ceil(32 r) samples, 64 per unit radius
    rounded up to an even count; a real kernel's transform is evaluated on
    the upper half-circle, a palindrome's on the first quadrant (see
    `_winding_attempt`).  A contour sample landing on a near-zero (|Phi|
    under 1e-13 of its larger neighbour) nudges the radius outward by
    0.37 * (2 pi / n) * r and retries; a wrapped phase step above pi/2, or a
    winding off an integer by more than 0.02, retries once at 4n points and
    then fails hard.
    """
    _require_compact(kernel, "count_zeros")
    if not (r > 0.0 and np.isfinite(r)):
        raise ValidationError("r must be positive and finite",
                              module="entire_diagnostics", operation="count_zeros")

    n = 2 * math.ceil(32.0 * r)
    for points in (n, 4 * n):
        radius = r
        attempt = _winding_attempt(kernel, radius, points)
        nudges = 0
        while attempt is None:
            nudges += 1
            if nudges > _MAX_NUDGES:
                raise ComputationError("contour keeps landing on zeros after "
                                       f"{_MAX_NUDGES} radius nudges",
                                       module="entire_diagnostics",
                                       operation="count_zeros")
            radius += _NUDGE_FACTOR * (2.0 * math.pi / points) * r
            attempt = _winding_attempt(kernel, radius, points)
        winding, max_step = attempt
        nearest = round(winding)
        if max_step <= math.pi / 2.0 and abs(winding - nearest) <= 0.02:
            if nearest < 0:
                raise ComputationError("negative winding for an entire "
                                       "function: evaluation is unreliable",
                                       module="entire_diagnostics",
                                       operation="count_zeros")
            return int(nearest)

    raise PhaseTrackingError(
        f"phase tracking failed at radius {r}: step {max_step:.3f} rad, "
        f"winding {winding:.4f} (4x refinement exhausted)",
        module="entire_diagnostics", operation="count_zeros")


@dataclass(frozen=True)
class ZeroCountReport:
    """Zero counts along radii; the densities and d_hat derive from them."""

    radii: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.counts) < 0):
            raise ValidationError("zero counts must be nondecreasing in r",
                                  module="entire_diagnostics",
                                  operation="ZeroCountReport")

    @property
    def densities(self) -> np.ndarray:
        return self.counts / self.radii

    @property
    def d_hat(self) -> float:
        """pi times the density at the last radius."""
        return math.pi * float(self.densities[-1])


def zero_density(kernel: SampledSignal, radii) -> ZeroCountReport:
    """n(R)/R table with d_hat = pi * final density.

    Each radius is counted by `count_zeros` on its n = 2 * ceil(32 R)
    contour samples; a real kernel evaluates the transform at the n/2 + 1
    on the upper half-circle, a palindrome at the n/4 + 1 in the first
    quadrant.
    """
    r = np.asarray(radii, dtype=np.float64)
    if r.ndim != 1 or r.size < 2 or np.any(np.diff(r) <= 0.0) or r[0] <= 0.0:
        raise ValidationError("radii must be at least 2 increasing positives",
                              module="entire_diagnostics", operation="zero_density")
    counts = np.array([count_zeros(kernel, float(rr)) for rr in r],
                      dtype=np.int64)
    return ZeroCountReport(r, counts)
