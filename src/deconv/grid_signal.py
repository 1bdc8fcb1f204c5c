"""Uniform-grid signals and their integral transforms.

A signal is a complex-valued function sampled on a uniform time grid.  All
integrals (norms, Fourier and two-sided Laplace transforms) are composite
trapezoid sums over that grid, so every quantity in the package is an honest
function of the samples and nothing else.

Transforms are evaluated by direct summation, not an FFT, because the
frequency grids we need are not tied to the time grid (different spacing,
different extent).  The oscillatory kernel exp(i*x*t_j) is generated by a
phase recurrence in blocks: one exp() per point per block, then a running
cumulative product inside the block.  Cost is about two complex multiplies
per (point, sample) pair and the phase drift stays near machine epsilon
because every block restarts from an exactly computed phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fileio import write_csv

_BLOCK = 64


@dataclass(frozen=True)
class SampledSignal:
    """Samples of a function of time on the grid t_min + spacing*j.

    truncation_tail records how much absolute mass the sampling window is
    known to have dropped (integral of |f| outside the grid).  Routines that
    are sensitive to the missing tail read it to decide whether their own
    answer can be trusted.
    """

    t_min: float
    spacing: float
    values: np.ndarray
    truncation_tail: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size < 2:
            raise ValidationError(
                "signal needs a 1-d array with at least two samples",
                module="grid_signal", operation="SampledSignal")
        if not (self.spacing > 0.0 and np.isfinite(self.spacing)):
            raise ValidationError(
                "grid spacing must be positive and finite",
                module="grid_signal", operation="SampledSignal")
        if not (self.truncation_tail >= 0.0 and np.isfinite(self.truncation_tail)):
            raise ValidationError(
                "truncation_tail must be a finite nonnegative number",
                module="grid_signal", operation="SampledSignal")
        if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
            raise ValidationError(
                "signal samples must be finite",
                module="grid_signal", operation="SampledSignal")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def t_max(self) -> float:
        return self.t_min + self.spacing * (self.values.size - 1)

    def grid(self) -> np.ndarray:
        return self.t_min + self.spacing * np.arange(self.values.size)

    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))


@dataclass(frozen=True)
class TransformSamples:
    """Values of a transform on an explicit frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.complex128)
        if freqs.ndim != 1 or freqs.shape != vals.shape:
            raise ValidationError(
                "frequencies and values must be matching 1-d arrays",
                module="grid_signal", operation="TransformSamples")
        freqs = freqs.copy(); freqs.setflags(write=False)
        vals = vals.copy(); vals.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return self.values.size


def trapezoid_weights(count: int, spacing: float) -> np.ndarray:
    w = np.full(count, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def l1_norm(signal: SampledSignal) -> float:
    w = trapezoid_weights(signal.size, signal.spacing)
    return float(w @ np.abs(signal.values))


def l2_norm(signal: SampledSignal) -> float:
    w = trapezoid_weights(signal.size, signal.spacing)
    mag2 = signal.values.real ** 2 + signal.values.imag ** 2
    return float(np.sqrt(w @ mag2))


def _oscillatory_sums(points: np.ndarray, sign: float, t_min: float,
                      spacing: float, weighted: np.ndarray) -> np.ndarray:
    """sum_j weighted[j] * exp(sign*1j*points*t_j) for t_j on the grid.

    Phase is restarted exactly at every block boundary, so rounding inside
    the cumulative product never accumulates past _BLOCK steps.
    """
    pts = np.asarray(points, dtype=np.float64).ravel()
    n = weighted.size
    out = np.zeros(pts.size, dtype=np.complex128)
    if pts.size == 0:
        return out
    step = np.exp(1j * sign * spacing * pts)
    block = np.empty((pts.size, _BLOCK), dtype=np.complex128)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        width = stop - start
        buf = block[:, :width]
        buf[:, 0] = np.exp(1j * sign * (t_min + spacing * start) * pts)
        if width > 1:
            buf[:, 1:] = step[:, None]
            np.cumprod(buf, axis=1, out=buf)
        out += buf @ weighted[start:stop]
    return out


def fourier_at(signal: SampledSignal, lambdas) -> np.ndarray:
    """Transform integral f(t)*exp(-i*lambda*t) dt at arbitrary frequencies."""
    lam = np.asarray(lambdas, dtype=np.float64)
    w = trapezoid_weights(signal.size, signal.spacing)
    res = _oscillatory_sums(lam.ravel(), -1.0, signal.t_min, signal.spacing,
                            w * signal.values)
    return res.reshape(lam.shape)


def fourier_grid(signal: SampledSignal, freq_spacing: float,
                 half_count: int) -> TransformSamples:
    """Transform on the symmetric grid freq_spacing * (-half_count .. half_count).

    For a real signal only the nonnegative half is summed; the negative half
    is the complex conjugate mirror.
    """
    if not (freq_spacing > 0.0 and half_count >= 1):
        raise ValidationError("need freq_spacing > 0 and half_count >= 1",
                              module="grid_signal", operation="fourier_grid")
    freqs = freq_spacing * np.arange(-half_count, half_count + 1, dtype=np.float64)
    if signal.is_real():
        upper = fourier_at(signal, freqs[half_count:])
        vals = np.concatenate([np.conj(upper[:0:-1]), upper])
    else:
        vals = fourier_at(signal, freqs)
    return TransformSamples(freqs, vals)


def _uniform_spacing(freqs: np.ndarray, operation: str) -> float:
    if freqs.size < 2:
        raise ValidationError("need at least two frequency samples",
                              module="grid_signal", operation=operation)
    d = np.diff(freqs)
    h = float(d[0])
    if h <= 0 or not np.allclose(d, h, rtol=1e-9, atol=0.0):
        raise ValidationError("frequency grid must be uniform and increasing",
                              module="grid_signal", operation=operation)
    return h


def _is_hermitian_grid(transform: TransformSamples) -> bool:
    freqs, vals = transform.frequencies, transform.values
    if freqs.size % 2 == 0:
        return False
    mid = freqs.size // 2
    if freqs[mid] != 0.0 or not np.allclose(freqs, -freqs[::-1], rtol=0, atol=1e-12):
        return False
    scale = float(np.max(np.abs(vals))) or 1.0
    return bool(np.allclose(vals, np.conj(vals[::-1]), rtol=0.0, atol=1e-9 * scale))


def inverse_fourier(transform: TransformSamples, t_min: float, spacing: float,
                    count: int) -> SampledSignal:
    """Inverse transform (1/2pi) * integral F(lambda)*exp(i*lambda*t) d(lambda)
    onto a uniform time grid.

    A transform that is conjugate-symmetric on a symmetric grid inverts to a
    real signal; that case is detected and computed from one half of the grid.
    """
    freqs = transform.frequencies
    h = _uniform_spacing(freqs, "inverse_fourier")
    ts = t_min + spacing * np.arange(count, dtype=np.float64)
    w = trapezoid_weights(freqs.size, h)
    if _is_hermitian_grid(transform):
        mid = freqs.size // 2
        weighted = (w * transform.values)[mid:]
        weighted[0] *= 0.5
        half = _oscillatory_sums(ts, +1.0, float(freqs[mid]), h, weighted)
        vals = (2.0 * half.real) / (2.0 * np.pi) + 0j
    else:
        res = _oscillatory_sums(ts, +1.0, float(freqs[0]), h, w * transform.values)
        vals = res / (2.0 * np.pi)
    return SampledSignal(t_min, spacing, vals)


def laplace_parts(signal: SampledSignal, zs) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided transform integral f(t)*exp(z*t) dt in scaled form.

    Returns (log_scale, reduced) with the integral equal to
    reduced * exp(log_scale).  The scale is the largest value of Re(z)*t on
    the grid, so `reduced` never overflows no matter how large Re(z) gets;
    log |integral| = log_scale + log |reduced| stays available even when the
    plain value would exceed the floating point range.
    """
    z = np.asarray(zs, dtype=np.complex128).ravel()
    t = signal.grid()
    wf = trapezoid_weights(signal.size, signal.spacing) * signal.values
    log_scale = np.maximum(z.real * t[0], z.real * t[-1])
    reduced = np.empty(z.size, dtype=np.complex128)
    chunk = max(1, int(4e6 // max(t.size, 1)))
    for start in range(0, z.size, chunk):
        stop = min(start + chunk, z.size)
        a = z[start:stop, None] * t[None, :]
        a -= log_scale[start:stop, None]
        np.exp(a, out=a)
        reduced[start:stop] = a @ wf
    shape = np.asarray(zs, dtype=np.complex128).shape
    return log_scale.reshape(shape), reduced.reshape(shape)


def write_signal_csv(path: str, signal: SampledSignal) -> None:
    v = signal.values
    write_csv(path, "t,re,im",
              zip(signal.grid().tolist(), v.real.tolist(), v.imag.tolist()))


def read_signal_csv(path: str, truncation_tail: float = 0.0) -> SampledSignal:
    with open(path, "r") as handle:
        if handle.readline().strip() != "t,re,im":
            raise ValidationError("expected header 't,re,im' in %s" % path,
                                  module="grid_signal", operation="read_signal_csv")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != 3:
        raise ValidationError("expected three columns in %s" % path,
                              module="grid_signal", operation="read_signal_csv")
    t = data[:, 0]
    h = _uniform_spacing(t, "read_signal_csv")
    return SampledSignal(float(t[0]), h, data[:, 1] + 1j * data[:, 2],
                         truncation_tail)
