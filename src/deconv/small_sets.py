"""Sub-threshold frequency sets and their Cartan ceiling.

The unrecoverable part of the reconstruction error lives on the set where
the kernel transform is small:

    B = { lambda : |phi_hat(lambda)| <= threshold, |lambda| <= r }.

measure_small_set estimates the Lebesgue measure of B on the real axis (the
quantity the error budget consumes) by dense scanning plus bisection of
all endpoints in lockstep.  cartan_bound supplies the theoretical ceiling
r^{-q+1/2}, which the plan also reports as its reference rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid_signal import _CHIRP_LIMIT
from .tail_profile import bisect


@dataclass(frozen=True)
class SmallSetReport:
    """Measured sub-threshold set: disjoint intervals inside [-r, r].

    Only what the scan measured; the noise level behind the threshold and
    the bounds on the measure are the caller's to report alongside `as_dict`.
    """

    threshold: float
    r: float
    measure_estimate: float
    interval_count: int
    intervals: tuple  # ((lo, hi), ...) with lo < hi

    def __post_init__(self):
        if self.measure_estimate < 0.0:
            raise ValidationError("measure must be nonnegative",
                                  module="small_sets", operation="SmallSetReport")
        if self.measure_estimate > 2.0 * self.r * (1.0 + 1e-12):
            raise ValidationError("measure exceeds the scanned interval",
                                  module="small_sets", operation="SmallSetReport")
        if self.interval_count != len(self.intervals):
            raise ValidationError("interval_count disagrees with the interval list",
                                  module="small_sets", operation="SmallSetReport")

    def as_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "r_eps": self.r,
            "measure_estimate": self.measure_estimate,
            "interval_count": self.interval_count,
            "intervals": [[lo, hi] for lo, hi in self.intervals],
        }


def cartan_bound(q: float, r_eps: float) -> float:
    """Theoretical measure ceiling r_eps^{-q+1/2}.

    Tighter than the trivial 2 r_eps only at large radii; at desk-scale
    radii, 1 and below, it exceeds 1, so callers report both.
    """
    if not (q > 0.5):
        raise ValidationError("q must exceed 1/2",
                              module="small_sets", operation="cartan_bound")
    if not (r_eps > 0.0):
        raise ValidationError("r_eps must be positive",
                              module="small_sets", operation="cartan_bound")
    return r_eps ** (-q + 0.5)


def _eval_abs(phi_hat_fn, lam) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    vals = np.asarray(phi_hat_fn(arr))
    if vals.shape != arr.shape:
        raise ValidationError("phi_hat_fn must map an array of frequencies "
                              "to an array of the same shape",
                              module="small_sets", operation="measure_small_set")
    return np.abs(vals)


def measure_small_set(phi_hat_fn, threshold: float, r: float,
                      resolution: float) -> SmallSetReport:
    """Scan |lambda| <= r for maximal intervals with |phi_hat| < threshold.

    Endpoints are refined by bisection to 1e-3 * resolution, so the measure
    is far more accurate than the scan step; all endpoints share each
    halving's phi_hat_fn call, so a scan costs one call plus about ten.
    An interval shorter than 4 * resolution triggers a warning: structure
    at that scale may have been missed entirely between samples.
    """
    if not (threshold > 0.0):
        raise ValidationError("threshold must be positive",
                              module="small_sets", operation="measure_small_set")
    if not (r > 0.0):
        raise ValidationError("r must be positive",
                              module="small_sets", operation="measure_small_set")
    if not (0.0 < resolution <= r / 1e4
            and 2.0 * r / resolution <= _CHIRP_LIMIT - 2):
        raise ValidationError("resolution must be positive, at most r/1e4 "
                              "and give fewer than 2^26 scan points",
                              module="small_sets", operation="measure_small_set")
    count = int(math.ceil(2.0 * r / resolution))
    lam = np.linspace(-r, r, count + 1)
    below = _eval_abs(phi_hat_fn, lam) < threshold

    # the edges alternate: a run's first index, then one past its last;
    # each one inside the scan brackets a crossing between two scan points
    padded = np.concatenate(([False], below, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, stops = edges[0::2], edges[1::2] - 1
    first, last = starts > 0, stops < below.size - 1
    inner = np.concatenate((starts[first], stops[last]))
    outer = np.concatenate((starts[first] - 1, stops[last] + 1))
    a, b = bisect(lambda x: _eval_abs(phi_hat_fn, x) < threshold,
                  lam[outer], lam[inner], atol=1e-3 * resolution)
    mids, k = 0.5 * (a + b), np.count_nonzero(first)
    lows = np.full(starts.size, lam[0])
    highs = np.full(stops.size, lam[-1])
    lows[first], highs[last] = mids[:k], mids[k:]
    intervals = [(float(x), float(y)) for x, y in zip(lows, highs) if y > x]

    short = [iv for iv in intervals if iv[1] - iv[0] < 4.0 * resolution]
    if short:
        warnings.warn(f"{len(short)} sub-threshold interval(s) shorter than "
                      "4x the scan resolution: decrease resolution to rule "
                      "out missed structure", RuntimeWarning, stacklevel=2)
    measure = float(sum(hi - lo for lo, hi in intervals))
    return SmallSetReport(threshold, r, measure, len(intervals),
                          tuple(intervals))

