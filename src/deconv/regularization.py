"""Tikhonov deconvolution pipeline: parameter selection, filter, error budget.

Given a noise level eps the plan fixes every knob of the reconstruction:

  delta   = (C1/C2)^{1/4} * eps^{(1+3*beta)/2}, the filter damping,
            with C1 = 4(1 + |g0|_2^2 + |phi0|_1^2) and C2 = 1 + |g0|_2^2;
  s_eps   = the kernel tail cutoff at level eps;
  R_eps   = the root of
            [(q+1/2) log R + log(15 e^3)] [log |phi0|_1 + 2 e s_eps R]
              = -log(eps^beta + eps),
            the frequency radius that splits the error budget.

solve_dual_radius solves the radius equation of the small-set estimate
written with the Young dual p* instead.

The plan stores the measured norms |g0|_2, |phi0|_1 and the solved
(s_eps, R_eps); C1, C2, delta and the data term are derived from them.

The squared reconstruction error is then certified against three terms: the
spectral mass of the unknown where the kernel transform is small, split at
|lambda| = R_eps, plus a data term 2 sqrt(C1 C2) eps^{1-3 beta}.  A row's
one record, ErrorDecomposition, keeps its plan and derives the data term.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .config import SweepInstance
from .errors import (ComputationError, ConfigError, NoRootError,
                     SaturationError, ValidationError)
from .grid_signal import (_CHIRP_LIMIT, SampledSignal, TransformSamples,
                          _Fresh, _mirror, _row_scope, _symmetric_grid,
                          fourier_grid, inverse_fourier, l2_norm)
from .noise import inject_noise
from .small_sets import cartan_bound
from .tail_profile import DualProfile, TailProfile, bisect, tail_cutoff

LOG_15E3 = math.log(15.0) + 3.0
TWO_E = 2.0 * math.e


def _check_hypotheses(eps: float, beta: float, q: float, operation: str) -> None:
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError("eps must be positive and finite",
                              module="regularization", operation=operation)
    if not (0.0 < beta < 1.0 / 3.0):
        raise ValidationError("beta must lie strictly inside (0, 1/3)",
                              module="regularization", operation=operation)
    if not (q > 0.5):
        raise ValidationError("q must exceed 1/2",
                              module="regularization", operation=operation)


def _radius_residual(r: float, q: float, log_l1: float, s_eps: float,
                     rhs: float) -> float:
    """F(R) = [(q+1/2) log R + log(15e^3)] [log |phi0|_1 + 2e s_eps R] + rhs,
    with rhs = log(eps^beta + eps); R_eps is its root."""
    return (((q + 0.5) * math.log(r) + LOG_15E3)
            * (log_l1 + TWO_E * s_eps * r) + rhs)


def _radius_slack(r: float, q: float, log_l1: float, s_eps: float,
                  rhs: float) -> float:
    """A bound on |F(r)| at any r solve_frequency_radius returns: its
    bisection stops at hi - lo <= 1e-12 hi and returns the midpoint, within
    1e-12 r of the root.  a and b bound the two factors, so over that bracket
    |F'| <= (q+1/2) b / r + 2e s_eps a to a factor 1 + 1e-11, which 2x covers;
    F rounds by at most 8u (a b + |rhs|), u = 2^-53, here and at the bracket
    end that decided the sign."""
    a = (q + 0.5) * abs(math.log(r)) + LOG_15E3
    b = abs(log_l1) + TWO_E * s_eps * r
    return (2e-12 * ((q + 0.5) * b + TWO_E * s_eps * r * a)
            + 16.0 * 2.0 ** -53 * (a * b + abs(rhs)))


def solve_frequency_radius(eps: float, beta: float, q: float, s_eps: float,
                           phi0_l1: float) -> float:
    """Unique root of the radius equation on the branch where both bracket
    factors are positive.

    F(R) (see _radius_residual) is a product of two positive increasing
    factors plus a negative constant there, so the root is bracketed by
    doubling and pinned by bisection to relative 1e-12.
    """
    _check_hypotheses(eps, beta, q, "solve_frequency_radius")
    if s_eps < 0.0:
        raise ValidationError("s_eps must be nonnegative",
                              module="regularization", operation="solve_frequency_radius")
    if not (phi0_l1 > 0.0):
        raise ValidationError("phi0_l1 must be positive",
                              module="regularization", operation="solve_frequency_radius")
    rhs = math.log(eps ** beta + eps)
    if rhs >= 0.0:
        raise NoRootError("eps too large: -log(eps^beta + eps) must be positive",
                          module="regularization", operation="solve_frequency_radius")
    log_l1 = math.log(phi0_l1)
    if s_eps == 0.0 and log_l1 <= 0.0:
        # the second bracket is a nonpositive constant; F never crosses zero
        raise NoRootError("degenerate instance: s_eps = 0 with log |phi0|_1 <= 0",
                          module="regularization", operation="solve_frequency_radius")

    def f(r: float) -> float:
        return _radius_residual(r, q, log_l1, s_eps, rhs)

    lo = math.exp(-LOG_15E3 / (q + 0.5))  # first bracket vanishes here
    if s_eps > 0.0 and log_l1 < 0.0:
        lo = max(lo, -log_l1 / (TWO_E * s_eps))  # second bracket vanishes here
    lo *= 1.0 + 1e-12
    hi = max(2.0 * lo, 1.0)
    prev = f(lo)
    if prev >= 0.0:
        raise ComputationError("radius equation not negative at the domain edge",
                               module="regularization", operation="solve_frequency_radius")
    while f(hi) <= 0.0:
        cur = f(hi)
        if cur < prev:
            raise ComputationError("radius equation lost monotonicity",
                                   module="regularization", operation="solve_frequency_radius")
        prev = cur
        hi *= 2.0
        if hi > 1e300:
            raise NoRootError("radius equation has no finite root",
                              module="regularization", operation="solve_frequency_radius")
    lo, hi = bisect(lambda r: f(r) > 0.0, lo, hi, rtol=1e-12)
    return 0.5 * (lo + hi)


def solve_dual_radius(eps: float, q: float,
                      pstar: DualProfile) -> tuple[float, float]:
    """Root of the dual-profile radius equation, plus its asymptotic ratio.

    F(R) = [(q+1/2) R + log(15 e^3)] [1 + log(2R) + p*(2R+1)] + log eps = 0.

    The second bracket runs from -inf to +inf as R grows, the first is
    positive throughout, so F crosses zero exactly once; doubling plus
    bisection pins the root.  The returned ratio
    log p*(2R+1) / log log(1/eps) tends to 1 as eps -> 0 for superlinear
    tail profiles; at desk-scale eps it is far below 1.
    """
    if not (eps > 0.0 and np.isfinite(eps)):
        raise ValidationError("eps must be positive and finite",
                              module="regularization", operation="solve_dual_radius")
    if not (q > 0.5):
        raise ValidationError("q must exceed 1/2",
                              module="regularization", operation="solve_dual_radius")
    rhs = -math.log(eps)
    if rhs <= 0.0:
        raise NoRootError("eps too large: -log(eps) must be positive",
                          module="regularization", operation="solve_dual_radius")
    s_max = float(pstar.s_grid[-1])
    if s_max <= 1.0:
        raise ValidationError("dual profile must extend past s = 1 to "
                              "evaluate p*(2R+1)", module="regularization",
                              operation="solve_dual_radius")
    r_max = (s_max - 1.0) / 2.0

    def f(rr: float) -> float:
        return (((q + 0.5) * rr + LOG_15E3)
                * (1.0 + math.log(2.0 * rr) + pstar.value_at(2.0 * rr + 1.0))
                - rhs)

    lo = min(1e-8, r_max / 2.0)
    if f(lo) >= 0.0:
        raise NoRootError("no root: equation already nonnegative at tiny radius",
                          module="regularization", operation="solve_dual_radius")
    hi = min(2.0 * lo, r_max)
    while f(hi) <= 0.0:
        if hi >= r_max:
            raise ComputationError("dual profile grid too short to bracket "
                                   "the radius: extend the s-grid",
                                   module="regularization",
                                   operation="solve_dual_radius")
        hi = min(2.0 * hi, r_max)
    lo, hi = bisect(lambda rr: f(rr) > 0.0, lo, hi, rtol=1e-12)
    radius = 0.5 * (lo + hi)
    pval = pstar.value_at(2.0 * radius + 1.0)
    ratio = math.log(pval) / math.log(rhs) if pval > 0.0 else math.nan
    return radius, ratio


def plan_radius(eps: float, beta: float, q: float,
                profile: TailProfile) -> tuple[float, float]:
    """(s_eps, R_eps) at one noise level: the tail cutoff, then the radius."""
    s_eps, saturated = tail_cutoff(profile, eps)
    if saturated:
        raise SaturationError("eps is below the kernel's measurable tail floor",
                              module="regularization", operation="plan_radius")
    return s_eps, solve_frequency_radius(eps, beta, q, s_eps, profile.l1_total)


@dataclass(frozen=True)
class RegularizationPlan:
    """The measured norms and the solved (s_eps, R_eps) of one reconstruction;
    C1, C2, delta and the data term are derived from them."""

    eps: float
    beta: float
    q: float
    g0_l2: float
    phi0_l1: float
    s_eps: float
    r_eps: float

    def __post_init__(self):
        _check_hypotheses(self.eps, self.beta, self.q, "RegularizationPlan")
        if not (self.g0_l2 > 0.0 and self.phi0_l1 > 0.0):
            raise ValidationError("norms must be positive",
                                  module="regularization", operation="RegularizationPlan")
        if self.s_eps < 0.0 or not self.r_eps > 0.0:
            raise ValidationError("s_eps must be >= 0 and r_eps > 0",
                                  module="regularization", operation="RegularizationPlan")
        radius = (self.r_eps, self.q, math.log(self.phi0_l1), self.s_eps,
                  math.log(self.eps ** self.beta + self.eps))
        if abs(_radius_residual(*radius)) > _radius_slack(*radius):
            raise ValidationError("r_eps does not satisfy the radius equation",
                                  module="regularization", operation="RegularizationPlan")

    @property
    def c1(self) -> float:
        return 4.0 * (1.0 + self.g0_l2 ** 2 + self.phi0_l1 ** 2)

    @property
    def c2(self) -> float:
        return 1.0 + self.g0_l2 ** 2

    @property
    def delta(self) -> float:
        return ((self.c1 / self.c2) ** 0.25
                * self.eps ** ((1.0 + 3.0 * self.beta) / 2.0))

    @property
    def data_term(self) -> float:
        return (2.0 * math.sqrt(self.c1 * self.c2)
                * self.eps ** (1.0 - 3.0 * self.beta))

    @property
    def rate_ref(self) -> float:
        """Reference decay R_eps^{-q+1/2}, the Cartan ceiling, for the rate fit."""
        return cartan_bound(self.q, self.r_eps)


def tikhonov_filter(g_hat: TransformSamples, phi_hat: TransformSamples,
                    delta: float) -> TransformSamples:
    """Pointwise g_hat * conj(phi_hat) / (delta + |phi_hat|^2).

    delta > 0 rules out division by zero, and the AM-GM bound
    |result| <= |g_hat| / (2 sqrt(delta)) holds pointwise.
    """
    if not (delta > 0.0):
        raise ValidationError("delta must be positive",
                              module="regularization", operation="tikhonov_filter")
    if ((g_hat.spacing, g_hat.size, g_hat.hermitian)
            != (phi_hat.spacing, phi_hat.size, phi_hat.hermitian)):
        raise ValidationError("transforms live on different frequency grids",
                              module="regularization", operation="tikhonov_filter")
    p = phi_hat.values
    mag2 = p.real ** 2 + p.imag ** 2 + delta
    # one buffer, in a fixed order (see grid_signal._chirp_apply)
    out = np.conj(p)
    out *= g_hat.values
    out /= mag2
    return TransformSamples(g_hat.spacing, _Fresh(out), g_hat.hermitian)


@dataclass(frozen=True)
class ErrorDecomposition:
    """One row: its plan, achieved L2 error and its square's certificate;
    n is the length of the longest grid behind either side (see holds).
    data_error is |g_eps - g0|_2, which the certificate assumes <= eps."""

    plan: RegularizationPlan
    outer_term: float
    inner_term: float
    achieved_error: float
    data_error: float
    n: int

    def __post_init__(self):
        if min(self.outer_term, self.inner_term) < 0.0:
            raise ValidationError("decomposition terms must be nonnegative",
                                  module="regularization", operation="ErrorDecomposition")

    @property
    def data_term(self) -> float:
        return self.plan.data_term

    @property
    def achieved_sq_error(self) -> float:
        return self.achieved_error ** 2

    @property
    def total_bound(self) -> float:
        return 3.0 * (self.outer_term + self.inner_term + self.data_term)

    @property
    def bound(self) -> float:
        return math.sqrt(self.total_bound)

    @property
    def c3_row(self) -> float:
        return self.achieved_error / self.plan.rate_ref

    @property
    def holds(self) -> bool:
        """achieved^2 - total_bound <= c (n + 758) u (achieved^2 + total_bound)
        with c = 2, u = 2^-53: false only if the exact sums of the stored
        samples break the certificate.  n is the longer of the time grid
        (the achieved error's sum) and the whole frequency grid, 2 half + 1
        points; the folded sums of a hermitian spectrum (outer, inner), half
        + 1 terms with weights doubled exactly, stay inside that count.

        Both sides sum nonnegative terms, and a computed sum of m of them is
        within gamma_{m-1} = (m-1)u / (1 - (m-1)u) of the exact one, in any
        order (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
        ed., 2002, sec. 4.2).  Fixed roundings add to the count: 5 before
        and 3 after the time-grid sum (the difference twice, as |.|^2
        squares it, |.|^2, the weight; the sqrt, the square), 3 before and
        3 after a frequency-grid sum (|.|^2, the weight; two additions, the
        3x), 10 in the data term (pow, within 1 ulp, as 2), whose exponent
        1 - 3 beta, off by up to u, moves it by |ln eps| u < 745 u more.
        Each side is within gamma_k of its exact value, k <= n + 758, so an
        exact achieved^2 <= total_bound leaves a computed difference of at
        most gamma_k / (1 - gamma_k) times the computed sum; c = 2 covers
        that and this check's own 3 roundings while n < 2^50.
        """
        a, b = self.achieved_sq_error, self.total_bound
        return a - b <= 2.0 * (self.n + 758) * 2.0 ** -53 * (a + b)


def error_decomposition(f0_hat: TransformSamples, phi0_hat: TransformSamples,
                        plan: RegularizationPlan) -> tuple[float, float]:
    """The certificate's two spectral sums (outer, inner) on the sampled
    grid: trapezoid of |f0_hat|^2 over the sub-threshold set
    {|phi0_hat| < eps^beta}, outside / inside |lambda| = r_eps.  The plan
    derives the data term.
    """
    if ((f0_hat.spacing, f0_hat.size, f0_hat.hermitian)
            != (phi0_hat.spacing, phi0_hat.size, phi0_hat.hermitian)):
        raise ValidationError("transforms live on different frequency grids",
                              module="regularization", operation="error_decomposition")
    h, half = f0_hat.spacing, f0_hat.half_count
    upper = _symmetric_grid(h, half, True)  # upper[k]: |lambda| at mid +/- k
    if upper[-1] < plan.r_eps:
        raise ValidationError("frequency grid does not cover |lambda| <= r_eps",
                              module="regularization", operation="error_decomposition")
    k_in, k_out = (upper.searchsorted(plan.r_eps, s) for s in ("left", "right"))
    v, mid = f0_hat.values, 0 if f0_hat.hermitian else half
    wf2 = v.real ** 2 if v.dtype == np.float64 else v.real ** 2 + v.imag ** 2
    fold = 2.0 if f0_hat.hermitian else 1.0  # times f0_hat.weights, in place
    ends = wf2[[0, -1]] * (0.5 * h * fold)
    wf2 *= h * fold
    wf2[[0, -1]] = ends
    below = np.abs(phi0_hat.values) < plan.eps ** plan.beta
    inside = below.copy()
    inside[:max(mid - k_in + 1, 0)] = inside[mid + k_in:] = False
    below[max(mid - k_out + 1, 0):mid + k_out] = False
    return float(np.sum(wf2[below])), float(np.sum(wf2[inside]))


def smooth_spectrum(lambdas, q: float) -> np.ndarray:
    """Synthetic unknown: f0_hat = (1 + lambda^2)^{-q/2 - 0.26}.

    Squaring gives (1+lambda^2)^{-q-0.52}, strictly inside the smoothness
    class |f0_hat|^2 <= C (1+lambda^2)^{-q}; the margin 0.26 keeps f0 in L2.
    The class constant C here is 1 and is unrelated to the plan's c1.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    return (1.0 + lam * lam) ** (-(q / 2.0) - 0.26)


@dataclass(frozen=True)
class RunResult:
    f0_hat: TransformSamples
    f0: SampledSignal
    g0: SampledSignal
    phi_eps: SampledSignal
    g_eps: SampledSignal
    f_eps: SampledSignal
    decomposition: ErrorDecomposition


def run_single(instance: SweepInstance, eps: float, seed: int = None,
               noise_free: bool = False) -> RunResult:
    """One pipeline pass at a single noise level; (s_eps, R_eps) come first
    because the frequency grid extent is a multiple of r_eps.

    Two chirp-z scopes hold a setup each: the kernel's (phi0_hat and
    phi_eps_hat), freed before the time grid's inverse (g0, f0 and f_eps,
    and g_eps_hat on its adjoint); the noise wave's is used once, dropped.
    A row whose kernel and truth are real keeps hermitian spectra; any
    other expands them to the whole grid, but inverts f0 from its own.
    """
    s_eps, r_eps = plan_radius(eps, instance.beta, instance.q,
                               instance.profile)
    phi0, f0_signal = instance.kernel, instance.f0_signal
    step, half = instance.grids.freq_step, instance.grids.half_count(r_eps)
    t_min, t_step, t_count = instance.time_grid()
    # the row's largest chirp-z transform, refused before any grid exists
    samples = max(phi0.size, t_count, 0 if f0_signal is None else f0_signal.size)
    if samples + 2 * half + 1 >= _CHIRP_LIMIT:
        raise ConfigError(
            f"{2 * half + 1} frequencies at eps {eps:g} and {samples} samples"
            " pass the chirp-z limit n + m < 2^26: raise grids.freq_step or "
            "lower grids.freq_extent_factor",
            module="regularization", operation="run_single")
    # past pi/h the coarsest sampling aliases: its transform repeats there
    h = max(phi0.spacing, t_step, 0.0 if f0_signal is None else f0_signal.spacing)
    if step * half > math.pi / h:
        raise ConfigError(
            f"frequency grid edge {step * half:g} at eps {eps:g} passes the "
            f"alias edge pi/{h:g}: lower grids.freq_extent_factor or "
            "grids.t_step", module="regularization", operation="run_single")
    real = phi0.is_real() and (f0_signal is None or f0_signal.is_real())

    def full(tf):  # a complex row takes every spectrum on the whole grid
        return (TransformSamples(step, _Fresh(_mirror(tf.values, tf.size)))
                if tf.hermitian and not real else tf)

    # the noise is additive and -0.0 its exact identity: perturbing data of
    # -0.0 gives the wave alone, so phi_eps exists before g0 does
    phi_eps, wave = inject_noise(
        phi0, SampledSignal(t_min, t_step, _Fresh(np.full(t_count, -0.0))),
        0.0 if noise_free else eps, instance.base_seed if seed is None else seed)
    with _row_scope():  # the kernel's setup
        phi0_hat = full(fourier_grid(phi0, step, half))
        phi_eps_hat = (phi0_hat if phi_eps is phi0
                       else full(fourier_grid(phi_eps, step, half)))
    with _row_scope():  # the time grid's inverse; f0's forward may be its adjoint
        f0_own = (TransformSamples(step, _Fresh(smooth_spectrum(
            _symmetric_grid(step, half, True), instance.q)), True)
            if f0_signal is None else fourier_grid(f0_signal, step, half))
        f0_hat = full(f0_own)
        gap = f0_hat.values * phi0_hat.values  # g0's transform, then its gap
        g0 = inverse_fourier(TransformSamples(step, _Fresh(gap), real),
                             t_min, t_step, t_count)
        plan = RegularizationPlan(eps, instance.beta, instance.q, l2_norm(g0),
                                  instance.profile.l1_total, s_eps, r_eps)
        outer, inner = error_decomposition(f0_hat, phi0_hat, plan)
        del phi0_hat  # before f0's inverse
        f0 = inverse_fourier(f0_own, t_min, t_step, t_count)  # real truth: float64
        g_eps = SampledSignal(t_min, t_step, _Fresh(g0.values + wave.values))
        g_hat = full(fourier_grid(g_eps, step, half))
        # |g_eps - g0|_2 by Parseval on the transform the filter takes, in
        # gap's buffer: the record that made it read-only is gone
        gap.setflags(write=True)
        gap -= g_hat.values
        data_error = l2_norm(TransformSamples(step, _Fresh(gap), real))
        del gap
        f_hat = tikhonov_filter(g_hat, phi_eps_hat, plan.delta)
        del g_hat, phi_eps_hat, wave
        f_eps = inverse_fourier(f_hat, t_min, t_step, t_count)

    achieved = l2_norm(SampledSignal(t_min, t_step,
                                     _Fresh(f0.values - f_eps.values)))
    decomposition = ErrorDecomposition(
        plan, outer, inner, achieved, data_error / math.sqrt(2.0 * math.pi),
        max(f0_hat.size, t_count))
    return RunResult(f0_hat, f0, g0, phi_eps, g_eps, f_eps, decomposition)


@dataclass(frozen=True)
class SweepResult:
    """A sweep's rows in decreasing eps: records, and (eps, reason) for the
    rows that failed to compute.  The summary is derived from them: c3_fit
    is the max of c3_row, c3_stability its max/min over the last half of
    the records, and both and logr_over_loglog are NaN without records."""

    records: tuple
    failures: tuple

    @property
    def invalid(self) -> bool:
        """More than a quarter of the rows failed to compute."""
        return len(self.failures) > 0.25 * (len(self.records)
                                            + len(self.failures))

    @property
    def c3_fit(self) -> float:
        return max((r.c3_row for r in self.records), default=math.nan)

    @property
    def c3_stability(self) -> float:
        if not self.records:
            return math.nan
        tail = [r.c3_row for r in self.records[len(self.records) // 2:]]
        return max(tail) / min(tail) if min(tail) > 0.0 else math.inf

    @property
    def logr_over_loglog(self) -> float:  # at the last record
        if not self.records:
            return math.nan
        last = self.records[-1].plan
        return math.log(last.r_eps) / math.log(math.log(1.0 / last.eps))

    @property
    def inversions(self) -> int:
        """Records whose achieved error exceeds the previous one's."""
        achieved = [r.achieved_error for r in self.records]
        return sum(1 for a, b in zip(achieved, achieved[1:])
                   if b > a * (1.0 + 1e-12))

    @property
    def bound_violations(self) -> int:
        return sum(1 for r in self.records if not r.holds)


def _sweep_row(instance: SweepInstance, eps: float, seed: int):
    """One row's ErrorDecomposition, or (eps, reason); the rest of its
    RunResult dies here."""
    try:
        res = run_single(instance, eps, seed)
    except (ComputationError, ValidationError) as exc:
        return eps, str(exc)
    return res.decomposition


def run_sweep(instance: SweepInstance, eps_list) -> SweepResult:
    """Decreasing-eps sweep of run_single rows, row i seeded base_seed + i;
    a row that fails to compute goes under failures, one whose certificate
    fails is a record that bound_violations counts.  With two or more usable
    CPUs a helper thread takes rows from the front (large eps, small grids)
    and the caller from the back; a row's result depends on its eps and
    seed only, never on the thread that ran it.
    """
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 2 or any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValidationError("eps_list must be strictly decreasing",
                              module="regularization", operation="run_sweep")
    rows = [None] * len(eps_arr)
    pending, lock, raised = list(range(len(eps_arr))), threading.Lock(), []

    def drain(end):
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    idx = pending.pop(end)
                rows[idx] = _sweep_row(instance, eps_arr[idx],
                                       instance.base_seed + idx)
        except BaseException as exc:  # re-raised below, after the join
            with lock:
                pending.clear()
            raised.append(exc)

    helper = threading.Thread(target=drain, args=(0,), daemon=True)
    if (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1) > 1:  # no affinity API on macOS, Windows
        helper.start()
    try:
        drain(-1)
    finally:
        if helper.ident is not None:
            helper.join()
    if raised:
        raise raised[0]
    return SweepResult(
        tuple(r for r in rows if isinstance(r, ErrorDecomposition)),
        tuple(r for r in rows if not isinstance(r, ErrorDecomposition)))
