"""Uniform-grid signals and their integral transforms.

A signal is a real or complex function sampled on a uniform time grid;
real samples are stored as float64 and only complex ones as complex128.
All integrals (norms, Fourier and two-sided Laplace transforms) are
composite trapezoid sums over that grid, so every quantity in the package
is an honest function of the samples and nothing else.

The frequency grids are not tied to the time grid (different spacing,
different extent), so a plain FFT does not apply.  When the evaluation
points are uniform too, the sum over the samples is a chirp-z transform
(Rabiner, Schafer & Rader 1969; Bluestein 1970): one FFT convolution,
O((N+M) log(N+M)) for N samples and M points, at the least FFT length
2^a 3^b 5^c that holds the lags -D..D, 2D+1 = N+M-1 or N+M (36000, not
65536, for 35108).  For a real signal and points symmetric about 0 it runs
over the nonnegative half only and mirrors the rest.  Any other points,
such as bisection probes or one or two points, go to `laplace_parts`.

A chirp-z transform is a setup that depends only on the grids (two chirps
and a chirp spectrum, from one exp per lag) and one forward and one
inverse FFT per signal.  The same setup also gives the adjoint sums, over
the points at the samples with the sign flipped.  A regularization row
runs inside `_row_scope`, which holds the setups built in it: phi0 and
phi_eps share the kernel's, the f0, g0 and f_eps inverses share one, and
the forward transform of g_eps runs on that inverse's adjoint.  Outside a
scope every transform builds its own setup.  A thread starts with an
empty context, so each thread's rows run in their own scope.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fileio import write_csv

_CHIRP_LIMIT = 1 << 26  # n + m of a chirp-z transform; see _chirp_setup


# A values array its maker hands over and drops: a record keeps it read-only
# without the defensive copy, unless it is a view, which would pin its base.
_Fresh = collections.namedtuple("_Fresh", "array")


def _keep(record) -> np.ndarray:
    """Check record.spacing; store record.values as a read-only array,
    complex128 if it is complex and float64 otherwise, and return it."""
    if not (record.spacing > 0.0 and np.isfinite(record.spacing)):
        raise ValidationError("spacing must be positive and finite",
                              module="grid_signal",
                              operation=type(record).__name__)
    fresh = isinstance(record.values, _Fresh)
    vals = np.asarray(record.values.array if fresh else record.values)
    vals = vals.astype(np.complex128 if np.iscomplexobj(vals) else np.float64,
                       copy=False)
    vals = vals if fresh and vals.flags.owndata else vals.copy()
    vals.setflags(write=False)
    object.__setattr__(record, "values", vals)
    return vals


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
        vals = _keep(self)
        if vals.ndim != 1 or vals.size < 2:
            raise ValidationError(
                "signal needs a 1-d array with at least two samples",
                module="grid_signal", operation="SampledSignal")
        if not (self.truncation_tail >= 0.0 and np.isfinite(self.truncation_tail)):
            raise ValidationError(
                "truncation_tail must be a finite nonnegative number",
                module="grid_signal", operation="SampledSignal")
        if not np.all(np.isfinite(vals)):
            raise ValidationError(
                "signal samples must be finite",
                module="grid_signal", operation="SampledSignal")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def t_max(self) -> float:
        return self.t_min + self.spacing * (self.values.size - 1)

    def grid(self) -> np.ndarray:
        return self.t_min + self.spacing * np.arange(self.values.size)

    def is_real(self) -> bool:
        """Stored as float64, or complex with every imaginary part zero."""
        return (self.values.dtype == np.float64
                or bool(np.all(self.values.imag == 0.0)))


@dataclass(frozen=True)
class TransformSamples:
    """Values of a transform on the symmetric frequency grid
    spacing * (-half_count .. half_count); the grid is derived, not stored."""

    spacing: float
    values: np.ndarray

    def __post_init__(self):
        vals = _keep(self)
        if vals.ndim != 1 or vals.size < 3 or vals.size % 2 == 0:
            raise ValidationError(
                "transform values must be a 1-d array of odd size >= 3",
                module="grid_signal", operation="TransformSamples")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def half_count(self) -> int:
        return self.values.size // 2

    @property
    def frequencies(self) -> np.ndarray:
        return _symmetric_grid(self.spacing, self.half_count)


def trapezoid_weights(count: int, spacing: float) -> np.ndarray:
    w = np.full(count, spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def l1_norm(signal: SampledSignal) -> float:
    w = trapezoid_weights(signal.size, signal.spacing)
    return float(np.sum(w * np.abs(signal.values)))


def l2_norm(signal: SampledSignal | TransformSamples) -> float:
    w = trapezoid_weights(signal.size, signal.spacing)
    mag2 = signal.values.real ** 2 + signal.values.imag ** 2
    return float(np.sqrt(np.sum(w * mag2)))


def _progression(points: np.ndarray):
    """(x0, dx > 0) if every point is within 4 ulp of max|points| of x0 + k*dx;
    from x0 = 0, dx is the second point ((dx * k) / k need not be dx)."""
    if points.size > 1:
        x0 = float(points[0])
        dx = (float(points[1]) if x0 == 0.0
              else (float(points[-1]) - x0) / (points.size - 1))
        miss = np.max(np.abs(points - (x0 + dx * np.arange(points.size))))
        if dx > 0.0 and miss <= 4.0 * np.spacing(np.max(np.abs(points))):
            return x0, dx
    return None


def _smooth_length(k: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= k."""
    best, p5 = 1 << (k - 1).bit_length(), 1
    while p5 < best:
        p = p5
        while p < best:  # p * 2^a with 2^a the least power of 2 >= k / p
            best = min(best, p << ((k - 1) // p).bit_length())
            p *= 3
        p5 *= 5
    return best


def _phases(phase0: float, theta: float, start: int, count: int) -> np.ndarray:
    """exp(i*(phase0 + theta*k)) for k = start .. start+count-1: a coarse
    table at every 64th k times a fine one of 64 entries."""
    fine = np.exp(1j * (theta * np.arange(64)))
    coarse = np.exp(1j * (phase0 + theta * (start + 64 * np.arange(
        -(-count // 64)))))
    return np.multiply.outer(coarse, fine).ravel()[:count]


def _chirp_setup(x0: float, dx: float, m: int, sign: float, t_min: float,
                 spacing: float, n: int) -> tuple:
    """The weight-free part of the chirp-z sums at x0 + dx*(0 .. m-1) over n
    samples: (lead chirp, chirp spectrum, output chirp).

    With the point index a and the sample index b centred,
    a*b = (a^2 + b^2 - (a-b)^2)/2 makes the sum one FFT convolution with
    exp(-i*c*d^2), c = sign*dx*spacing/2, over the lags |d| <= D.  The only
    long exp is Q[j] = exp(i*c*j^2), j = 0..D: the spectrum is conj(Q)
    mirrored onto -D..D, so it serves the transposed sums too, and the
    chirps are linear phases times Q[|a|] and Q[|b|].  j^2 is an exact
    float64 integer while n + m < _CHIRP_LIMIT = 2^26, which is checked
    before anything is allocated.
    """
    if n + m >= _CHIRP_LIMIT:
        raise ValidationError("chirp-z transform needs n + m < 2^26",
                              module="grid_signal", operation="_chirp_sums")
    am, bn = (m - 1) // 2, (n - 1) // 2
    p0 = x0 + dx * am
    t0 = t_min + spacing * bn
    c = 0.5 * sign * dx * spacing
    lags = max(am + n - 1 - bn, m - 1 - am + bn)
    q = np.exp(1j * (c * np.arange(lags + 1) ** 2))
    lead = (_phases(0.0, sign * p0 * spacing, -bn, n)
            * q[np.abs(np.arange(n) - bn)])
    spectrum = np.zeros(_smooth_length(2 * lags + 1), dtype=np.complex128)
    np.conj(q, out=spectrum[:lags + 1])
    np.conj(q[lags:0:-1], out=spectrum[spectrum.size - lags:])
    np.fft.fft(spectrum, out=spectrum)
    out = (_phases(sign * t0 * x0, sign * t0 * dx, 0, m)
           * q[np.abs(np.arange(m) - am)])
    return lead, spectrum, out


def _chirp_apply(setup: tuple, weighted: np.ndarray) -> np.ndarray:
    """The sums of one weight vector given its _chirp_setup: FFT of the
    zero-padded weighted * lead, times the chirp spectrum, inverse FFT, and
    out * the slice of m sums, each product in the order written.  Complex
    multiplication under FMA is not bitwise commutative, and numpy swaps
    `x * temporary` once the temporary reaches 256 KiB.  The reversed
    setup gives K^T w for an m-vector w: the chirps swap roles and, the
    chirp being even, the same spectrum serves at the mirrored offset."""
    lead, spectrum, out = setup
    shift = (lead.size - 1) // 2 - (out.size - 1) // 2
    pad = max(0, -shift)
    u = np.zeros(spectrum.size, dtype=np.complex128)  # FFTs run in place
    np.multiply(weighted, lead, out=u[pad:pad + lead.size])
    np.multiply(np.fft.fft(u, out=u), spectrum, out=u)
    first = pad + shift
    return np.multiply(out, np.fft.ifft(u, out=u)[first:first + out.size])


# The chirp-z setups built inside a _row_scope, by their arguments; None
# outside one.
_ROW_SETUPS = contextvars.ContextVar("_ROW_SETUPS", default=None)


@contextlib.contextmanager
def _row_scope():
    """Within the block, _chirp_sums holds the setups it builds and reuses
    them for the same grids; on exit they are gone."""
    token = _ROW_SETUPS.set({})
    try:
        yield
    finally:
        _ROW_SETUPS.reset(token)


def _chirp_sums(x0: float, dx: float, m: int, sign: float, t_min: float,
                spacing: float, weighted: np.ndarray,
                hold: bool = True) -> np.ndarray:
    """Bluestein chirp-z sums at x0 + dx*(0 .. m-1).  Inside a _row_scope
    a held setup serves again, and one held for the adjoint (points and
    samples swapped, sign flipped) gives conj(K^T conj(weighted)); a
    setup its row uses once is built with hold=False and not kept."""
    key = (x0, dx, m, sign, t_min, spacing, weighted.size)
    held = _ROW_SETUPS.get() if hold else None
    if held is None:
        return _chirp_apply(_chirp_setup(*key), weighted)
    if key not in held:
        adjoint = held.get((t_min, spacing, weighted.size, -sign, x0, dx, m))
        if adjoint is not None:
            return np.conj(_chirp_apply(adjoint[::-1], np.conj(weighted)))
        held[key] = _chirp_setup(*key)
    return _chirp_apply(held[key], weighted)


def _mirror(upper: np.ndarray, count: int) -> np.ndarray:
    """Values at all `count` points of a grid symmetric about 0 from those at
    its upper (count + 1) // 2 points, which start at 0 for an odd count:
    a real signal's transform has F(-x) = conj F(x)."""
    return np.concatenate([np.conj(upper[::-1][:count // 2]), upper])


def fourier_at(signal: SampledSignal, lambdas) -> np.ndarray:
    """Transform integral f(t)*exp(-i*lambda*t) dt at arbitrary frequencies.

    Three or more uniform points take the chirp-z transform, over only the
    nonnegative half and mirrored for a real signal and points centred on
    0 (to the progression's own 4-ulp tolerance); any others take
    `laplace_parts` at z = -i*lambda, whose log_scale is 0 there.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    pts, m = lam.ravel(), lam.size
    grid = _progression(pts) if m > 2 else None
    if grid is None:
        return laplace_parts(signal, -1j * lam)[1]
    (x0, dx), reach = grid, max(abs(float(pts[0])), abs(float(pts[-1])))
    rest = (-1.0, signal.t_min, signal.spacing,
            trapezoid_weights(signal.size, signal.spacing) * signal.values)
    if (signal.is_real()
            and abs(x0 + dx * (0.5 * (m - 1))) <= 4.0 * np.spacing(reach)):
        return _mirror(_chirp_sums(0.0 if m % 2 else 0.5 * dx, dx,
                                   (m + 1) // 2, *rest), m).reshape(lam.shape)
    return _chirp_sums(x0, dx, m, *rest).reshape(lam.shape)


def _symmetric_grid(spacing: float, half_count: int) -> np.ndarray:
    """The frequencies spacing * (-half_count .. half_count), exactly
    symmetric about 0."""
    return spacing * np.arange(-half_count, half_count + 1, dtype=np.float64)


def fourier_grid(signal: SampledSignal, freq_spacing: float,
                 half_count: int) -> TransformSamples:
    """Transform on the symmetric grid freq_spacing * (-half_count ..
    half_count); for a real signal only the nonnegative half is summed and
    the negative half is its conjugate mirror."""
    if not (freq_spacing > 0.0 and half_count >= 1):
        raise ValidationError("need freq_spacing > 0 and half_count >= 1",
                              module="grid_signal", operation="fourier_grid")
    freqs = _symmetric_grid(freq_spacing, half_count)
    vals = (_mirror(fourier_at(signal, freqs[half_count:]), freqs.size)
            if signal.is_real() else fourier_at(signal, freqs))
    return TransformSamples(freq_spacing, _Fresh(vals))


def inverse_fourier(transform: TransformSamples, t_min: float, spacing: float,
                    count: int, real: bool = False) -> SampledSignal:
    """Inverse transform (1/2pi) * integral F(lambda)*exp(i*lambda*t) d(lambda)
    onto a uniform time grid.

    real=True states that the transform is conjugate-symmetric, so the
    result is real and is computed from the nonnegative half of the grid.
    """
    h, mid = transform.spacing, transform.half_count
    if real:
        weighted = trapezoid_weights(mid + 1, h) * transform.values[mid:]
        half = _chirp_sums(t_min, spacing, count, +1.0, 0.0, h, weighted)
        vals = (2.0 * half.real) / (2.0 * np.pi)
    else:
        res = _chirp_sums(t_min, spacing, count, +1.0, -h * mid, h,
                          trapezoid_weights(transform.size, h)
                          * transform.values)
        vals = res / (2.0 * np.pi)
    return SampledSignal(t_min, spacing, _Fresh(vals))


def laplace_parts(signal: SampledSignal, zs) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided transform integral f(t)*exp(z*t) dt in scaled form.

    Returns (log_scale, reduced) with the integral equal to
    reduced * exp(log_scale).  The scale is the largest value of Re(z)*t on
    the grid, so log |integral| = log_scale + log |reduced| stays available
    even where the plain value would exceed the floating point range.

    The sum walks away from the grid end where Re(z)*t peaks, in blocks of
    16 samples.  Each block sum is a polynomial in w = exp(-/+ z*spacing),
    evaluated by baby and giant steps (Paterson & Stockmeyer 1973): one
    table w^0 .. w^16 of successive products serves every block, and one
    `np.einsum` contracts it with the blocks' coefficient rows (a real
    signal contracts the table's float64 view: complex times real is two
    real products).  A block starts at exp(z*t - log_scale), taken directly
    every 8th block and as the previous start times w^16 in between.  Every
    factor has modulus <= 1, so rounding compounds over at most 16 + 7
    steps.  einsum keeps optimize=False, so numpy's C loops do the sums and
    BLAS never does; chunks hold about 2^14 block sums.  A lone point runs
    as a pair, as numpy rounds one-column products and sums differently:
    a point's value never depends on the other points passed.

    Rounding: |reduced - exact| <= 2^-44 (N + 8 + |z| (max|t| + spacing))
    * sum_j |w_j f_j| over N samples on the exact grid (`_laplace_error`):
    twice or more the 2^-53 (1400 + 6|z| max|t| + 180|z| spacing + N/11)
    from a term's <= 127 products of w, its start and the two summations.
    """
    z = np.asarray(zs, dtype=np.complex128).ravel()
    t = signal.grid()
    wf = trapezoid_weights(signal.size, signal.spacing) * signal.values
    log_scale = np.maximum(z.real * t[0], z.real * t[-1])
    reduced = np.empty_like(z)
    block, giant = 16, 8
    blocks = -(-t.size // block)
    real = signal.is_real()
    coef = np.zeros((blocks, block), dtype=np.float64 if real else z.dtype)
    chunk = max(1, (1 << 14) // blocks)
    for rising, step in ((True, -signal.spacing), (False, signal.spacing)):
        # Re(z) >= 0 walks back from the last sample, Re(z) < 0 forward
        order = slice(None, None, -1 if rising else 1)
        coef.ravel()[:t.size] = (wf.real if real else wf)[order]
        anchors = t[order][::block * giant, None]
        idx = np.flatnonzero((z.real >= 0.0) == rising)
        for lo in range(0, idx.size, chunk):
            sel = idx[lo:lo + chunk]
            sel = sel.repeat(2) if sel.size == 1 else sel
            power = np.empty((block + 1, sel.size), dtype=np.complex128)
            power[0], power[1] = 1.0, np.exp(z[sel] * step)
            for m in range(2, block + 1):
                np.multiply(power[m - 1], power[1], out=power[m])
            table = power[:block].view(np.float64) if real else power[:block]
            sums = np.einsum("mk,bm->bk", table, coef).view(np.complex128)
            starts = np.empty((anchors.size, giant, sel.size), np.complex128)
            starts[:, 0] = np.exp(anchors * z[sel] - log_scale[sel])
            for r in range(1, giant):
                np.multiply(starts[:, r - 1], power[block], out=starts[:, r])
            starts = starts.reshape(-1, sel.size)[:blocks]
            starts *= sums
            reduced[sel] = np.sum(starts, axis=0)
    return log_scale.reshape(np.shape(zs)), reduced.reshape(np.shape(zs))


def _laplace_error(signal: SampledSignal, zs) -> np.ndarray:
    """The rounding bound laplace_parts' docstring states, at each point."""
    reach = max(abs(signal.t_min), abs(signal.t_max)) + signal.spacing
    return (2.0 ** -44 * (signal.size + 8 + np.abs(zs) * reach)
            * l1_norm(signal))


def _slope_signal(signal: SampledSignal) -> SampledSignal:
    """|f_j| |t_j - c|, c the grid's centre.  Its laplace_parts sum S at
    z = x plus the rounding bound of S, times e^{-cx}, bounds
    |d/dz e^{-cz} F(z)| on Re z = x, F the transform of the signal."""
    t = signal.grid()
    c = 0.5 * (signal.t_min + signal.t_max)
    # |t - c| raised past its own rounding, so that S stays an upper bound
    arm = np.abs(t - c) + 2.0 ** -50 * np.max(np.abs(t))
    return SampledSignal(signal.t_min, signal.spacing,
                         np.abs(signal.values) * arm)


def _transform_floor(signal: SampledSignal, r: float) -> float:
    """A lower bound on |F| over [-r, r], F the exact trapezoid transform:
    |F(lambda)| >= |F(0)| - |lambda| S, S the `_slope_signal` bound at
    x = 0.  F(0) and S carry their rounding bounds, which exceed the
    rounding of the few operations here 2^9-fold."""
    slope = _slope_signal(signal)
    at_zero = abs(complex(laplace_parts(signal, 0j)[1]))
    s = laplace_parts(slope, 0j)[1].real + _laplace_error(slope, 0.0)
    return at_zero - float(_laplace_error(signal, 0.0)) - r * float(s)


def write_signal_csv(path: str, signal: SampledSignal) -> None:
    v = signal.values
    write_csv(path, "t,re,im", (signal.grid(), v.real, v.imag))


def read_signal_csv(path: str) -> SampledSignal:
    """The signal write_signal_csv wrote: float64 when every im field is
    +0.0, complex128 otherwise."""
    with open(path, "r") as handle:
        if handle.readline().strip() != "t,re,im":
            raise ValidationError("expected header 't,re,im' in %s" % path,
                                  module="grid_signal", operation="read_signal_csv")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != 3:
        raise ValidationError("expected three columns in %s" % path,
                              module="grid_signal", operation="read_signal_csv")
    t = data[:, 0]
    d = np.diff(t)
    if not (d.size and d[0] > 0.0 and np.allclose(d, d[0], rtol=1e-9, atol=0.0)):
        raise ValidationError("the t column of %s must have at least two rows, "
                              "uniform and increasing" % path,
                              module="grid_signal", operation="read_signal_csv")
    h = float((t[-1] - t[0]) / d.size)  # t[1] - t[0] drops low bits at large |t|
    re, im = data[:, 1], data[:, 2]
    if not im.view(np.int64).any():  # all +0.0; -0.0 has its sign bit set
        return SampledSignal(float(t[0]), h, re)
    # re + 1j * im would turn -0.0 into 0.0 and inf into nan parts
    values = np.empty(t.size, dtype=np.complex128)
    values.real, values.imag = re, im
    return SampledSignal(float(t[0]), h, values)
