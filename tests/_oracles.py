"""Closed-form reference values used across the test modules.

Everything here is computed independently of the library code: transforms
from textbook formulas, trapezoid sums at any points directly, tails from
erfc, transform zeros from polynomial roots, contour windings from direct
sums at every contour sample, and the random stream from a from-scratch
reimplementation of the documented recurrence.
"""

import math

import numpy as np


def gauss_hat(lam, scale=1.0):
    """Transform of e^{-(t/scale)^2}: scale sqrt(pi) e^{-(scale lam)^2/4}."""
    lam = np.asarray(lam, dtype=np.float64)
    return (scale * math.sqrt(math.pi)
            * np.exp(-(scale * lam) ** 2 / 4.0)).astype(np.complex128)


def indicator_hat(lam, a=0.0, b=1.0):
    """Transform of the indicator of [a, b]."""
    lam = np.asarray(lam, dtype=np.float64)
    out = np.empty(lam.shape, dtype=np.complex128)
    small = np.abs(lam) < 1e-12
    out[small] = b - a
    ls = lam[~small]
    out[~small] = (np.exp(-1j * ls * a) - np.exp(-1j * ls * b)) / (1j * ls)
    return out


def two_sided_exp_hat(lam, rate=1.0):
    """Transform of e^{-rate|t|}: 2 rate / (rate^2 + lam^2)."""
    lam = np.asarray(lam, dtype=np.float64)
    return (2.0 * rate / (rate * rate + lam * lam)).astype(np.complex128)


def direct_sums(points, sign, t_min, spacing, weighted):
    """sum_j weighted[j] e^{i sign x t_j} at each point x, with
    t_j = t_min + spacing*j: one complex exp per point and sample."""
    t = t_min + spacing * np.arange(np.size(weighted))
    pts = np.asarray(points, dtype=np.float64)
    return np.array([np.sum(weighted * np.exp(1j * (x * (sign * t))))
                     for x in pts.ravel()]).reshape(pts.shape)


def gauss_tail(s, scale=1.0):
    """Two-sided tail mass of e^{-(t/scale)^2} beyond |t| = s."""
    return scale * math.sqrt(math.pi) * math.erfc(s / scale)


def log_radius_root(log_inv_eps, beta, q, s_eps, phi0_l1):
    """log R solving the radius equation, by bisection on x = log R:

        [(q+1/2) x + log(15 e^3)] [log phi0_l1 + 2e s_eps e^x]
            = beta log(1/eps) - log1p(eps^(1-beta)),

    where the right-hand side is -log(eps^beta + eps) rewritten so that it
    is exact for representable eps and stays finite for log(1/eps) far
    beyond them.  The bracket starts at the larger zero of the two factors,
    past which both are positive and increasing.
    """
    a = q + 0.5
    b = math.log(15.0) + 3.0
    c = math.log(phi0_l1)
    d = 2.0 * math.e * s_eps
    rhs = (beta * log_inv_eps
           - math.log1p(math.exp(-(1.0 - beta) * log_inv_eps)))

    def f(x):
        return (a * x + b) * (c + d * math.exp(x)) - rhs

    lo = -b / a
    if d > 0.0 and c < 0.0:
        lo = max(lo, math.log(-c / d))
    width = 1.0
    while f(lo + width) <= 0.0:
        width *= 2.0
    hi = lo + width
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def trapezoid_laplace_zeros(step, values, radius):
    """Zeros z with |z| <= radius of the trapezoid sum of f(t) e^{zt} over
    samples on t_min + step*j.

    Up to the nonvanishing factor e^{z t_min} that sum is the polynomial
    sum_j c_j w^j in w = e^{z step}, c_j the trapezoid-weighted samples, so
    each root w of it gives the zeros (log w + 2 pi i k) / step for every
    integer k.  The roots come from np.roots (companion-matrix eigenvalues).
    """
    c = np.asarray(values, dtype=np.complex128) * step
    c[0] *= 0.5
    c[-1] *= 0.5
    period = 2.0 * math.pi / step
    zeros = []
    for w in np.roots(c[::-1]):
        if w == 0.0:
            continue  # a power of w, never zero in z
        z0 = np.log(w) / step
        k_lo = math.floor((-radius - z0.imag) / period)
        k_hi = math.ceil((radius - z0.imag) / period)
        for k in range(k_lo, k_hi + 1):
            z = z0 + 1j * period * k
            if abs(z) <= radius:
                zeros.append(z)
    return np.array(zeros, dtype=np.complex128)


def splitmix64_reference(seed, count):
    """The documented recurrence, written out stepwise with plain ints."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append((z >> 11) * 2.0 ** -53)
    return np.array(out)


def noise_wave_reference(seed, t):
    """The documented 64-mode wave sum_k a_k cos(omega_k t + phi_k), one
    cosine per mode: a_k = 2u - 1 and phi_k = 2 pi u' from alternate draws
    of the stream, omega_k = k * 2/64 for k = 1..64."""
    u = splitmix64_reference(seed, 128)
    t = np.asarray(t, dtype=np.float64)
    wave = np.zeros(t.shape)
    for k in range(64):
        a = 2.0 * u[2 * k] - 1.0
        phi = 2.0 * math.pi * u[2 * k + 1]
        wave += a * np.cos((k + 1) * (2.0 / 64.0) * t + phi)
    return wave


def monotone_chain_dual(s, p, sigma):
    """p*(sigma) = max over the nodes of sigma*s - p(s), from the lower hull
    by Andrew's monotone chain (s ascending; a vertex that does not turn
    left, collinear included, is popped) and a search on its edge slopes,
    taking the max over the found vertex and its two neighbours."""
    s, p, sigma = (np.asarray(x, dtype=np.float64) for x in (s, p, sigma))
    xs, ys = s.tolist(), p.tolist()
    hull = []
    for j in range(len(xs)):
        while len(hull) >= 2 and ((xs[hull[-1]] - xs[hull[-2]]) * (ys[j] - ys[hull[-2]])
                                  <= (ys[hull[-1]] - ys[hull[-2]]) * (xs[j] - xs[hull[-2]])):
            hull.pop()
        hull.append(j)
    hs, hp = s[hull], p[hull]
    vertex = np.searchsorted(np.diff(hp) / np.diff(hs), sigma)
    near = np.clip(vertex[:, None] + np.arange(-1, 2), 0, hs.size - 1)
    return np.max(sigma[:, None] * hs[near] - hp[near], axis=1)


def full_circle_winding(kernel, r, n):
    """Winding number and largest wrapped phase step of the trapezoid sum
    of f(t) e^{zt} around all n samples z = r e^{2 pi i k/n}, each summed
    directly (times the constant e^{-r max|t|}) with no symmetry used."""
    t = kernel.t_min + kernel.spacing * np.arange(kernel.values.size)
    c = np.asarray(kernel.values, dtype=np.complex128) * kernel.spacing
    c[0] *= 0.5
    c[-1] *= 0.5
    z = r * np.exp(2j * math.pi * np.arange(n) / n)
    sums = np.exp(np.outer(z, t) - r * np.max(np.abs(t))) @ c
    steps = np.angle(sums * np.conj(np.roll(sums, 1)))
    return np.sum(steps) / (2.0 * math.pi), np.max(np.abs(steps))
