"""Tail-mass profile of a kernel and its convex duality machinery.

For a kernel phi the profile is p(s) = -log of the absolute mass outside
[-s, s].  Everything downstream of the kernel reads this one function: the
noise cutoff, the frequency radius equation, the growth integral G and the
Young dual p* all consume a TailProfile rather than the kernel itself.
growth_check sets log G against p* and G against the exponential moment H
of the kernel's own samples: the abstract's terms p and p* side by side.

Tail integrals are accumulated from the grid edges inward, never by
subtracting from the total, so a tail of 1e-250 carries full relative
precision instead of dying at l1 * machine-epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid_signal import SampledSignal, l1_norm

# Grid tails at or below this (or below the kernel's recorded truncation
# mass, whichever is larger) are unmeasurable: p saturates to +inf there.
SATURATION_FLOOR = 1e-300

# growth_check's shifted ratio divides by p*(s + KAPPA).
KAPPA = 0.5


def _check_increasing(x: np.ndarray, what: str, operation: str) -> None:
    if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
        raise ValidationError("%s must be a strictly increasing 1-d grid" % what,
                              module="tail_profile", operation=operation)


@dataclass(frozen=True)
class TailProfile:
    """p sampled on a grid of s values; +inf entries are the saturated suffix."""

    s_grid: np.ndarray
    p_values: np.ndarray
    l1_total: float
    truncation_tail: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=np.float64)
        p = np.asarray(self.p_values, dtype=np.float64)
        _check_increasing(s, "s_grid", "TailProfile")
        if s[0] < 0.0:
            raise ValidationError("s_grid must be nonnegative",
                                  module="tail_profile", operation="TailProfile")
        if p.shape != s.shape or np.any(np.isnan(p)) or np.any(np.isneginf(p)):
            raise ValidationError("p_values must match s_grid and stay > -inf",
                                  module="tail_profile", operation="TailProfile")
        finite = np.isfinite(p)
        if not finite[0]:
            raise ValidationError("p must be finite at the first grid point",
                                  module="tail_profile", operation="TailProfile")
        k = int(np.sum(finite))
        if np.any(finite[k:]) or not np.all(finite[:k]):
            raise ValidationError("saturated entries must form a suffix",
                                  module="tail_profile", operation="TailProfile")
        slack = 1e-9 * max(1.0, float(np.max(np.abs(p[:k]))))
        if np.any(np.diff(p[:k]) < -slack):
            raise ValidationError("p must be nondecreasing (tails shrink)",
                                  module="tail_profile", operation="TailProfile")
        l1 = self.l1_total
        if not (l1 > 0.0 and np.isfinite(l1)):
            raise ValidationError("l1_total must be positive and finite",
                                  module="tail_profile", operation="TailProfile")
        if s[0] == 0.0:
            ref = max(1.0, abs(np.log(l1)))
            if abs(p[0] + np.log(l1)) > 1e-12 * ref:
                raise ValidationError("p(0) must equal -log(l1_total)",
                                      module="tail_profile", operation="TailProfile")
        if not (self.truncation_tail >= 0.0 and np.isfinite(self.truncation_tail)):
            raise ValidationError("truncation_tail must be finite and >= 0",
                                  module="tail_profile", operation="TailProfile")
        s = s.copy(); s.setflags(write=False)
        p = p.copy(); p.setflags(write=False)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "l1_total", float(l1))

    @property
    def finite_count(self) -> int:
        return int(np.sum(np.isfinite(self.p_values)))

    def finite_part(self) -> tuple[np.ndarray, np.ndarray]:
        k = self.finite_count
        return self.s_grid[:k], self.p_values[:k]

    def p_at(self, s) -> np.ndarray:
        """Piecewise-linear p; +inf beyond the last measurable grid point."""
        sf, pf = self.finite_part()
        return np.interp(s, sf, pf, left=pf[0], right=np.inf)

    def tail_at(self, s) -> np.ndarray:
        """Tail mass e^{-p}, linearly interpolated in mass between nodes."""
        tails = np.exp(-np.asarray(self.p_values, dtype=np.float64))
        return np.interp(s, self.s_grid, tails, left=tails[0], right=tails[-1])


@dataclass(frozen=True)
class DualProfile:
    """Convex conjugate p* sampled on a grid."""

    s_grid: np.ndarray
    dual_values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=np.float64)
        v = np.asarray(self.dual_values, dtype=np.float64)
        _check_increasing(s, "s_grid", "DualProfile")
        if v.shape != s.shape or not np.all(np.isfinite(v)):
            raise ValidationError("dual_values must be finite and match s_grid",
                                  module="tail_profile", operation="DualProfile")
        scale = max(1.0, float(np.max(np.abs(v))))
        slopes = np.diff(v) / np.diff(s)
        if np.any(np.diff(v) < -1e-9 * scale):
            raise ValidationError("conjugate must be nondecreasing",
                                  module="tail_profile", operation="DualProfile")
        # a slope is good to about 2 ulp of the largest value over its step
        rounding = 2.0 * np.spacing(scale) / np.diff(s)
        if slopes.size >= 2 and np.any(np.diff(slopes) < -(
                1e-9 * scale + rounding[:-1] + rounding[1:])):
            raise ValidationError("conjugate must be convex",
                                  module="tail_profile", operation="DualProfile")
        s = s.copy(); s.setflags(write=False)
        v = v.copy(); v.setflags(write=False)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "dual_values", v)

    def value_at(self, s) -> np.ndarray:
        # linear interpolation; extrapolating a conjugate silently would hide
        # an undersized grid, so out-of-range is a hard error
        s = np.asarray(s, dtype=np.float64)
        if np.any(s < self.s_grid[0]) or np.any(s > self.s_grid[-1]):
            raise ValidationError("requested point outside the conjugate grid",
                                  module="tail_profile", operation="DualProfile.value_at")
        return np.interp(s, self.s_grid, self.dual_values)


def _clean_count(profile: TailProfile) -> int:
    """Finite nodes whose tail still dwarfs the off-grid mass.

    Where the tail approaches the truncation level, the gridded profile is
    bent upward by the missing mass; asymptotic verdicts must not read
    that region.  Requiring tail >= 1e8 x truncation keeps the distortion
    of p below 1e-8.
    """
    sf, pf = profile.finite_part()
    if profile.truncation_tail <= 0.0:
        return sf.size
    limit = -np.log(1e8 * profile.truncation_tail)
    return max(2, int(np.searchsorted(pf, limit)))


def tail_mass_profile(kernel: SampledSignal, s_grid) -> TailProfile:
    """Tabulate p(s) = -log integral_{|t|>=s} |phi| on the given s grid.

    The two half-line tails are suffix and prefix sums of per-cell trapezoid
    masses, with linear interpolation inside the cell that s lands in.
    """
    s = np.asarray(s_grid, dtype=np.float64)
    _check_increasing(s, "s_grid", "tail_mass_profile")
    if s[0] < 0.0:
        raise ValidationError("s_grid must be nonnegative",
                              module="tail_profile", operation="tail_mass_profile")
    extent = max(abs(kernel.t_min), abs(kernel.t_max))
    if s[-1] > extent + kernel.spacing:
        raise ValidationError("s_grid reaches beyond the kernel grid",
                              module="tail_profile", operation="tail_mass_profile")
    total = l1_norm(kernel)
    floor = max(SATURATION_FLOOR, kernel.truncation_tail)
    if total <= floor:
        raise ValidationError("kernel mass is zero at working precision",
                              module="tail_profile", operation="tail_mass_profile")
    t = kernel.grid()
    a = np.abs(kernel.values)
    cells = 0.5 * kernel.spacing * (a[:-1] + a[1:])
    suffix = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
    prefix = np.concatenate([[0.0], np.cumsum(cells)])
    right = np.interp(s, t, suffix, left=suffix[0], right=0.0)
    left = np.interp(-s, t, prefix, left=0.0, right=prefix[-1])
    tails = right + left
    with np.errstate(divide="ignore"):
        p = np.where(tails > floor, -np.log(np.maximum(tails, 1e-308)), np.inf)
    return TailProfile(s, p, float(total), kernel.truncation_tail)


def bisect(inside, a, b, atol: float = 0.0, rtol: float = 0.0) -> tuple:
    """Halve the bracket [a, b] (either order) around the edge of a predicate.

    inside(x) is true at b and false at a; each midpoint replaces the end
    it agrees with, until |b - a| <= atol + rtol*|b|.  Returns the final
    (a, b), so callers choose between an end and the midpoint.

    a and b may also be 1-d arrays of brackets, halved in lockstep: inside
    then maps an array of midpoints to an array of truth values, and each
    bracket is frozen once it has converged, so it ends bit for bit where
    a scalar call on it would.
    """
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        while abs(b - a) > atol + rtol * abs(b):
            mid = 0.5 * (a + b)
            if inside(mid):
                b = mid
            else:
                a = mid
        return a, b
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    live = np.flatnonzero(np.abs(b - a) > atol + rtol * np.abs(b))
    while live.size:
        mid = 0.5 * (a[live] + b[live])
        hit = np.asarray(inside(mid), dtype=bool)
        b[live[hit]] = mid[hit]
        a[live[~hit]] = mid[~hit]
        live = live[np.abs(b[live] - a[live])
                    > atol + rtol * np.abs(b[live])]
    return a, b


def tail_cutoff(profile: TailProfile, eps: float) -> tuple[float, bool]:
    """Smallest s with tail mass <= eps, i.e. inf{s > 0 : e^{-p(s)} <= eps}.

    Returns (s, saturated).  When eps lies below the smallest measurable
    tail the cutoff cannot be located on this grid; the grid extent comes
    back with saturated=True and the caller decides whether that is fatal.
    """
    if not (0.0 < eps < profile.l1_total):
        raise ValidationError("need 0 < eps < l1 mass of the kernel",
                              module="tail_profile", operation="tail_cutoff")
    if eps <= max(SATURATION_FLOOR, profile.truncation_tail):
        return float(profile.s_grid[-1]), True
    target = -np.log(eps)
    sf, pf = profile.finite_part()
    if target > pf[-1]:
        # tail crosses eps between the last measurable node and the first
        # saturated one (compact support); beyond the whole grid it cannot
        # be located at all
        k = profile.finite_count
        if k == profile.s_grid.size:
            return float(profile.s_grid[-1]), True
        lo, hi = float(sf[-1]), float(profile.s_grid[k])
    else:
        k = int(np.searchsorted(pf, target, side="left"))
        if k == 0:
            return float(sf[0]), False
        lo, hi = float(sf[k - 1]), float(sf[k])
    # bisection on the interpolated tail mass between the bracketing nodes;
    # returning hi (not the midpoint) keeps tail_at(result) <= eps, as the
    # infimum in the definition requires
    _, hi = bisect(lambda s: profile.tail_at(s) <= eps, lo, hi,
                   atol=1e-3 * (hi - lo))
    return hi, False


def young_dual(profile: TailProfile, dual_grid) -> DualProfile:
    """Conjugate p*(sigma) = sup over the tabulated s of [sigma*s - p(s)].

    Saturated entries cannot contribute to the sup (they sit at -inf) and
    are excluded.  The sup is reached on the lower convex hull of the
    finite nodes.  Each pruning round drops, in one array pass, every
    interior vertex that does not turn left (collinear too) against its
    current neighbours; dropped nodes lie on or above the new polyline, and
    one with no such vertex is the hull.  A long near-flat stretch can need
    a round per node, so after ceil(log2 n) rounds the monotone chain
    finishes on the survivors.  Each sigma's vertex comes from a binary
    search on the hull's edge slopes (the linear-time Legendre transform,
    Lucet 1997); the max over it and its two neighbours rounds a slope tie
    as a full scan would.
    """
    sigma = np.asarray(dual_grid, dtype=np.float64)
    _check_increasing(sigma, "dual_grid", "young_dual")
    s, p = profile.finite_part()
    for _ in range((s.size - 1).bit_length()):
        drop = ((s[1:-1] - s[:-2]) * (p[2:] - p[:-2])
                <= (p[1:-1] - p[:-2]) * (s[2:] - s[:-2]))
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        s, p = s[keep], p[keep]
    else:  # the monotone chain (Andrew 1979) finishes on the survivors
        xs, ys, chain = s.tolist(), p.tolist(), [0]
        for j in range(1, len(xs)):
            while len(chain) >= 2:
                a, b = chain[-2], chain[-1]
                if (xs[b] - xs[a]) * (ys[j] - ys[a]) > (ys[b] - ys[a]) * (xs[j] - xs[a]):
                    break
                chain.pop()
            chain.append(j)
        s, p = s[chain], p[chain]
    vertex = np.searchsorted(np.diff(p) / np.diff(s), sigma)
    dual = sigma * s[vertex] - p[vertex]
    for near in (np.maximum(vertex - 1, 0), np.minimum(vertex + 1, s.size - 1)):
        np.maximum(dual, sigma * s[near] - p[near], out=dual)
    return DualProfile(sigma, dual)


def _log_trapz(expo: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log of the trapezoid integral of e^expo over x, row by row; each row
    is shifted by its max, so the log never overflows.  Shifted exponents
    below -700 are raised to it: exp takes a slow path for results near
    or below the smallest normal double, and next to the row's e^0 = 1 no
    term of 1e-304 or less moves the sum."""
    m = np.max(expo, axis=1)
    y = np.exp(np.maximum(expo - m[:, None], -700.0))
    return m + np.log(0.5 * np.sum(np.diff(x) * (y[:, :-1] + y[:, 1:]), axis=1))


@dataclass(frozen=True)
class GrowthCheck:
    """The abstract's growth-dual identities at each s: log G(s) against
    p*(s) and p*(s + KAPPA), and H(s) = ||phi||_1 + s G(s) for the exponential
    moment H(s) = integral e^{|t| s} |phi(t)| dt."""

    s: np.ndarray
    log_g: np.ndarray
    log_h: np.ndarray
    pstar: np.ndarray
    pstar_shifted: np.ndarray
    l1: float
    divergent: np.ndarray             # G's integrand rising at the last clean node
    truncation_dominated: np.ndarray  # off-grid mass could outweigh H

    @property
    def dual_ratio(self) -> np.ndarray:
        return self.log_g / self.pstar

    @property
    def shifted_ratio(self) -> np.ndarray:
        return self.log_g / self.pstar_shifted

    @property
    def moment_gap(self) -> np.ndarray:
        """(H - ||phi||_1 - s G) / H, from the logs so nothing overflows."""
        return (1.0 - np.exp(np.log(self.l1) - self.log_h)
                - self.s * np.exp(self.log_g - self.log_h))


def growth_check(kernel: SampledSignal, profile: TailProfile,
                 pstar: DualProfile, s_list) -> GrowthCheck:
    """G(s) over the profile's finite nodes, H(s) over the kernel's samples
    and p* at every s of s_list, one array pass each.  With no truncation
    mass G also takes the cell up to the first saturated node, where the
    tail (at most SATURATION_FLOOR) counts as 0: the support edge."""
    finite = profile.finite_count
    if finite < 2:
        raise ValidationError("profile needs two finite nodes for G(s)",
                              module="tail_profile", operation="growth_check")
    s = np.asarray(s_list, dtype=np.float64)
    pstar_s = pstar.value_at(s)
    if s.ndim != 1 or not np.all(pstar_s > 0.0):
        raise ValidationError("the ratios need a 1-d s_list with p*(s) > 0",
                              module="tail_profile", operation="growth_check")
    end = finite + (profile.truncation_tail == 0.0
                    and finite < profile.s_grid.size)
    x = profile.s_grid[:end]
    expo = s[:, None] * x - profile.p_values[:end]  # -inf at a saturated node
    k = _clean_count(profile)
    t = kernel.grid()
    with np.errstate(divide="ignore"):  # a zero sample or tail: log -inf
        log_phi = np.log(np.abs(kernel.values))
        log_tail = np.log(kernel.truncation_tail)
    log_h = _log_trapz(s[:, None] * np.abs(t) + log_phi, t)
    edge = max(abs(kernel.t_min), abs(kernel.t_max))
    # the off-grid mass, amplified by the edge weight, against H
    return GrowthCheck(s, _log_trapz(expo, x), log_h, pstar_s,
                       pstar.value_at(s + KAPPA), profile.l1_total,
                       expo[:, k - 1] > expo[:, k - 2],
                       s * edge + log_tail > np.log(1e-6) + log_h)


@dataclass(frozen=True)
class SuperlinearReport:
    decade_ratio: float
    strictly_increasing: bool

    @property
    def verdict(self) -> bool:
        return self.decade_ratio >= 2.0


def detect_superlinear(profile: TailProfile) -> SuperlinearReport:
    """Decide whether p grows faster than linearly.

    p(s)/s of a superlinear profile keeps growing across decades, while a
    kernel with a plain exponential tail pins it near a constant.  The
    verdict is rate(s_hi) >= 2 * rate(s_hi/10); both fixtures sit far from
    the boundary and the verdict is stable under grid refinement.
    """
    sf = profile.finite_part()[0]
    mask = sf > 0.0
    if not np.any(mask):
        raise ValidationError("profile has no positive s nodes",
                              module="tail_profile", operation="detect_superlinear")
    s_hi = float(sf[mask][-1])
    if s_hi / 100.0 < float(sf[mask][0]):
        raise ValidationError("grid must span two decades of s for the detector",
                              module="tail_profile", operation="detect_superlinear")
    probes = np.array([s_hi / 100.0, s_hi / 10.0, s_hi])
    r = profile.p_at(probes) / probes
    if r[1] > 0.0:
        ratio = float(r[2] / r[1])
    else:
        ratio = np.inf if r[2] > 0.0 else 0.0
    return SuperlinearReport(ratio, bool(r[0] < r[1] < r[2]))
