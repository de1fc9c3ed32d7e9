"""Special functions for isotropic fields on the sphere, meridian geometry.

Legendre polynomials P_l on [-1, 1], fully normalized associated-Legendre
values (real spherical harmonics restricted to a meridian), Bessel functions
J0 and J2, and the small-angle Bessel approximation of P_l(cos θ).

Each recurrence has one home: ``_legendre_sweep`` yields P_0..P_L for
``legendre_p`` and for the full-field kernel rows in ``covariance``;
``_meridian_blocks`` yields the harmonic blocks for
``harmonic_meridian_table`` and for the samplers' degree-major sweep. J0 and
J2 come from scipy.special.

Conventions
-----------
* Degrees l are non-negative integers; orders m satisfy 0 ≤ m ≤ l.
* Angles are radians; colatitude θ ∈ [0, π].
* The meridian harmonic λ_{lm}(θ) = N_{lm} P_l^m(cos θ) carries the full
  normalization N_{lm}² = (2l+1)(l−m)! / (4π (l+m)!) and the Condon-Shortley
  phase, so that Σ_m (2−δ_{m0}) λ_{lm}(θ) λ_{lm}(θ') =
  (2l+1)/(4π) · P_l(cos(θ−θ')).

All functions are pure; none keeps mutable state, so concurrent use from any
number of workers is safe.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = [
    "legendre_p",
    "harmonic_meridian_table",
    "bessel_j",
    "hilb_approx_p",
]


# ======================================================================
# Legendre polynomials
# ======================================================================

def _check_degree(ell):
    if int(ell) != ell or ell < 0:
        raise ValueError(f"degree must be a non-negative integer, got {ell!r}")
    return int(ell)


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("Legendre argument outside [-1, 1]")
    return x


def _legendre_sweep(ell_max, x):
    """Yield P_0(x), P_1(x), .., P_{ell_max}(x) in turn, each a new array.

    The one home of the upward three-term recurrence
    (l+1) P_{l+1} = (2l+1) x P_l − l P_{l−1}, which is stable on the whole
    interval [-1, 1] and costs O(ell_max) array steps. ``x`` is a float
    array; the sweep keeps only the last two degrees alive.
    """
    pm1 = np.ones_like(x)
    yield pm1
    if ell_max == 0:
        return
    p = x.copy()
    yield p
    for l in range(1, ell_max):
        pm1, p = p, ((2 * l + 1) * x * p - l * pm1) / (l + 1)
        yield p


def legendre_p(ell, x):
    """Legendre polynomial P_l(x) on [-1, 1], by the recurrence sweep.

    O(l); accepts scalar or array ``x``.
    """
    ell = _check_degree(ell)
    x = _check_x(x)
    (p,) = deque(_legendre_sweep(ell, np.atleast_1d(x)), maxlen=1)
    return float(p[0]) if x.ndim == 0 else p


# ======================================================================
# Real normalized spherical harmonics on a meridian
# ======================================================================

# values per buffer of a table's sweep (8 MB)
_TILE_VALUES = 1 << 20


def _meridian_blocks(ell_max, theta):
    """Yield the λ_{lm}(θ) block of each degree l = 0..ell_max in turn.

    Block l has shape (l+1, len(theta)), row m = N_{lm} P_l^m(cos θ). Rows
    m ≤ l−2 come from the two previous blocks at once (the three-term
    recurrence in l, coefficients vectorized over m), then the m = l−1 and
    sectoral m = l rows (∝ sin^l θ, underflowing harmlessly to 0 near the
    poles) from the last sectoral value: O(ell_max) Python steps. The
    normalization is folded into the coefficients, so no factorial
    overflows. Each value is formed by the same operations, in the same
    order, as the order-by-order recurrence, hence bitwise equal to it.
    Blocks live in three rotating buffers: use or copy each before
    advancing the sweep.
    """
    ct, st = np.cos(theta), np.sin(theta)
    # one allocation: three separate ones were returned to the OS and
    # page-faulted again on every small table (1.7× the time at l=8, N=4096)
    bufs = np.empty((3, ell_max + 1, theta.size))
    prev2, prev = None, bufs[0][:1]
    prev[0] = 1.0 / np.sqrt(4.0 * np.pi)
    yield prev
    for l in range(1, ell_max + 1):
        lam = bufs[l % 3][:l + 1]
        if l >= 2:
            m = np.arange(l - 1)
            a = np.sqrt((2 * l - 1.0) * (2 * l + 1.0) / ((l - m) * (l + m)))
            b = np.sqrt((2 * l + 1.0) * (l + m - 1) * (l - m - 1)
                        / ((l - m) * (l + m) * (2 * l - 3.0)))
            np.multiply(a[:, None], ct, out=lam[:l - 1])
            lam[:l - 1] *= prev[:l - 1]
            prev2 *= b[:, None]  # its buffer is the next block's
            lam[:l - 1] -= prev2
        lam[l - 1] = np.sqrt(2 * l + 1.0) * ct * prev[l - 1]
        lam[l] = -np.sqrt((2 * l + 1) / (2.0 * l)) * st * prev[l - 1]
        yield lam
        prev2, prev = prev, lam


def harmonic_meridian_table(ell, theta):
    """λ_{lm}(θ) for all orders m = 0..l at the given colatitudes.

    Returns an array of shape (l+1, len(theta)). Row m holds the fully
    normalized associated-Legendre value N_{lm} P_l^m(cos θ), from the last
    block of the degree-major recurrence sweep. The sweep runs over column
    tiles of at most _TILE_VALUES // (l+1) points, so its working buffers
    stay small beside the table when len(theta) is large.
    """
    ell = _check_degree(ell)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty((ell + 1, theta.size))
    step = max(1, _TILE_VALUES // (ell + 1))
    for c in range(0, theta.size, step):
        for lam in _meridian_blocks(ell, theta[c:c + step]):
            pass
        out[:, c:c + step] = lam
    return out


# ======================================================================
# Bessel J0 and J2
# ======================================================================

def bessel_j(order, x):
    """Bessel function J0(x) or J2(x) for x ≥ 0.

    Values come from ``scipy.special.jv``, within 4e-16 absolute of a
    40-digit reference on [0, 1e6] (``scipy.special.j0`` is off by up to
    4e-14 for x near 3e5). This wrapper checks the order (0 or 2) and the
    sign of the argument, and returns a float for scalar ``x``.
    """
    if order not in (0, 2):
        raise ValueError("order must be 0 or 2")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("argument must be non-negative")
    # scipy loads at the first call that needs it, never at package import:
    # scipy.special alone costs about 0.3 s and 16 MB that most commands skip
    from scipy.special import jv
    out = jv(order, x)
    return float(out[0]) if scalar else out


# ======================================================================
# Small-angle Bessel approximation of P_l(cos θ)
# ======================================================================

def hilb_approx_p(ell, psi_over_n):
    """Leading small-angle approximation of P_l(cos θ), θ = psi_over_n.

    Returns sqrt(θ / sin θ) · J0((l + 1/2) θ). Accurate to o(l^{-3/2} √θ)
    uniformly for θ in (0, π/2]; the argument must be strictly positive.
    """
    ell = _check_degree(ell)
    scalar = np.ndim(psi_over_n) == 0
    a = np.atleast_1d(np.asarray(psi_over_n, dtype=float))
    if np.any(a <= 0.0):
        raise ValueError("angle must be strictly positive")
    out = np.sqrt(a / np.sin(a)) * bessel_j(0, (ell + 0.5) * a)
    return float(out[0]) if scalar else np.asarray(out)
