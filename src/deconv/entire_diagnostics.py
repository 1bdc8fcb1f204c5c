"""Growth exponents and zero counts for transforms of compact-support kernels.

A kernel supported in [mu, sigma] subset [0, 1] has an entire Laplace
transform Phi(z) = integral of phi(t) e^{zt}; its real-axis growth recovers
the support edges,

    log |Phi(R)| / R  -> sigma,      log |Phi(-R)| / R -> -mu,

and its zeros have linear density (sigma - mu)/pi along radii.  Everything
here is evaluated in the log domain, so there is no overflow ceiling on the
radii.  Zeros are counted by the argument principle on circles whose every
phase step is proved from a bound on the derivative (Delves & Lyness 1967;
Ying & Katz 1988); see `zero_density`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, PhaseTrackingError, ValidationError
from .grid_signal import (SampledSignal, _laplace_error, _slope_signal,
                          laplace_parts)


def supported_in_unit_interval(kernel: SampledSignal) -> bool:
    """Nonzero, no off-grid mass, and every nonzero sample inside [0, 1]."""
    if kernel.truncation_tail != 0.0:
        return False
    t = kernel.grid()
    support = t[np.abs(kernel.values) > 0.0]
    return bool(support.size > 0 and support[0] >= -1e-9
                and support[-1] <= 1.0 + 1e-9)


def _radii(radii, least: int, operation: str) -> np.ndarray:
    """radii as a float array: at least `least` finite, increasing positives."""
    r = np.atleast_1d(np.asarray(radii, dtype=np.float64))
    if (r.ndim != 1 or r.size < least or not np.all(np.isfinite(r))
            or np.any(np.diff(r) <= 0.0) or r[0] <= 0.0):
        raise ValidationError(f"radii must be at least {least} finite, "
                              "increasing positives",
                              module="entire_diagnostics", operation=operation)
    return r


@dataclass(frozen=True)
class GrowthEstimate:
    """Real-axis growth ratios and their tail-window exponents.

    sigma_hat is the max of log_ratio_pos over the last third of the radii,
    the declared finite-R stand-in for a limsup; mu_hat analogously from the
    negative axis.  Radii where the transform lands near a zero crossing
    (underflow of the reduced sum) read -inf and are excluded from the max.
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
    r = _radii(radii, 3, "growth_profile")

    log_scale, reduced = laplace_parts(kernel, np.concatenate([r, -r]) + 0j)
    with np.errstate(divide="ignore"):  # -inf where the reduced sum is 0
        log_abs = log_scale + np.log(np.abs(reduced))
    ratio_pos = log_abs[:r.size] / r
    ratio_neg = log_abs[r.size:] / r
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


_TURNS = np.array([1.0, 1j, -1.0, -1j])  # i^k: exact quarter turns
_MAX_PIECES = 1024  # per arc and round: bounds a round's memory, not the count


def _certified_counts(kernel: SampledSignal, radii: np.ndarray) -> np.ndarray:
    """`zero_density`'s counts, all radii at once.

    Each quadrant starts as one arc.  A round cuts every failing arc of
    every radius into ceil(F) pieces, F = r dtheta B / (max |Psi| - E_a -
    E_b) (2 to _MAX_PIECES), with one `laplace_parts` call for the new
    samples and one, on |f| |t - c|, for their S.  An arc failing with
    max |Psi| <= 2 (E_a + E_b) raises; cuts at least halve r dtheta B, so
    rounds end.  |Psi|, E and S agree at mirror points (a real kernel's
    Psi(conj z) = conj Psi(z), a palindrome's also Psi(-conj z) =
    conj Psi(z)), so the upper half-circle or the first quadrant stands
    for the whole circle, its steps counted 2 or 4 times.
    """
    if kernel.truncation_tail != 0.0:
        raise ValidationError("kernel carries off-grid mass: transform is "
                              "not entire-evaluable from these samples",
                              module="entire_diagnostics", operation="zero_density")
    real = kernel.is_real()
    quarter = real and np.array_equal(kernel.values, kernel.values[::-1])
    laps = 4 if quarter else 2 if real else 1
    c = 0.5 * (kernel.t_min + kernel.t_max)
    slope = _slope_signal(kernel)
    with np.errstate(divide="ignore"):  # log 0 = -inf: a sample on a zero
        def sample(rid, q):  # q counts quadrants; z is exact on the axes
            turns = np.floor(q)
            z = (radii[rid] * np.exp(0.5j * math.pi * (q - turns))
                 * _TURNS[turns.astype(np.int64) % 4])
            log_scale, reduced = laplace_parts(kernel, z)
            _, slope_sum = laplace_parts(slope, z.real + 0j)  # same log_scale
            shift = log_scale - c * z.real
            return (rid, q, z, reduced, shift + np.log(np.abs(reduced)),
                    shift + np.log(_laplace_error(kernel, z)), shift
                    + np.log(slope_sum.real + _laplace_error(slope, z.real)))

        cols = sample(np.repeat(np.arange(radii.size), 4 // laps + 1),
                      np.tile(np.arange(4 // laps + 1.0), radii.size))
        while True:
            rid, q, z, reduced, log_abs, log_e, log_slope = cols
            a = np.flatnonzero(rid[1:] == rid[:-1])
            b = a + 1
            dq = q[b] - q[a]
            log_drift = (np.log(0.5 * math.pi * radii[rid[a]] * dq)
                         + np.maximum(log_slope[a], log_slope[b]))
            log_errs = np.logaddexp(log_e[a], log_e[b])
            top = np.maximum(log_abs[a], log_abs[b])
            fail = np.flatnonzero(np.logaddexp(log_drift, log_errs) >= top)
            if fail.size == 0:
                break
            stuck = fail[top[fail] <= log_errs[fail] + math.log(2.0)]
            if stuck.size:
                k = a[stuck[0]]
                raise PhaseTrackingError(f"|z| = {radii[rid[k]]} passes within "
                                         f"rounding of a zero near {z[k]:.6g}",
                                         module="entire_diagnostics",
                                         operation="zero_density")
            over = np.exp(log_drift[fail] - top[fail]
                          - np.log1p(-np.exp(log_errs[fail] - top[fail])))
            cuts = np.clip(np.ceil(over), 2, _MAX_PIECES).astype(np.int64) - 1
            first = np.repeat(a[fail], cuts)
            nth = np.arange(first.size) - np.repeat(np.cumsum(cuts) - cuts - 1, cuts)
            new = sample(rid[first], q[first]
                         + nth * np.repeat(dq[fail] / (cuts + 1), cuts))
            order = np.lexsort((np.concatenate([q, new[1]]),
                                np.concatenate([rid, new[0]])))
            cols = [np.concatenate(pair)[order] for pair in zip(cols, new)]

    steps = np.angle(reduced[b] * np.conj(reduced[a])
                     * np.exp(-1j * c * (z[b].imag - z[a].imag)))
    winding = laps * np.bincount(rid[a], steps, radii.size) / (2.0 * math.pi)
    return np.rint(winding).astype(np.int64)


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
    """Zeros of the transform inside |z| <= r at one radius or more, every
    phase step proved, as the n(R)/R table with d_hat = pi * final density.

    Psi(z) = e^{-cz} Phi(z), c the grid's centre, shares Phi's zeros.  On an
    arc of angle dtheta, |Psi'| <= B = max(S(Re z_a), S(Re z_b)), as
    S(x) = sum_j w_j |f_j| |t_j - c| e^{x (t_j - c)} is convex and Re z is
    monotone between the axes.  An arc with r dtheta B + E_a + E_b <
    max |Psi| at its ends, E e^{-cx} times the rounding bound `laplace_parts`
    states, lies with its ends' true and computed values in a disc about
    the larger computed end that misses 0.  So the steps' rounding cancels
    between neighbours, and once every arc passes they sum to the winding:
    each count is exact if `laplace_parts` keeps that bound.  A contour
    within that rounding of a zero raises PhaseTrackingError instead.
    """
    r = _radii(radii, 1, "zero_density")
    return ZeroCountReport(r, _certified_counts(kernel, r))
