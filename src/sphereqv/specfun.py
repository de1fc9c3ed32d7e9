"""Special functions for isotropic fields on the sphere, meridian geometry.

Legendre polynomials P_l on [-1, 1], fully normalized associated-Legendre
values (real spherical harmonics restricted to a meridian), and Bessel
functions J0 and J2.

Each recurrence has one home: ``_legendre_sweep`` yields P_0..P_L for
``legendre_p`` and for the full-field kernel rows in ``covariance``, on a
Python float for a scalar argument; ``_meridian_blocks`` yields the harmonic
blocks for ``harmonic_meridian_table`` and for the samplers' degree-major
sweep, with its recurrence coefficients formed for a bounded block of
degrees at a time. Both cost a few interpreter steps per degree, and every
value is bitwise that of the per-degree array recurrence. J0 and J2 come
from scipy.special.

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

import math
from collections import deque

import numpy as np

__all__ = [
    "legendre_p",
    "harmonic_meridian_table",
    "bessel_j",
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
    if not np.all(np.abs(x) <= 1.0):  # NaN is outside too
        raise ValueError("Legendre argument outside [-1, 1]")
    return x


def _legendre_sweep(ell_max, x):
    """Yield P_0(x), P_1(x), .., P_{ell_max}(x) in turn, each a new value.

    The one home of the upward three-term recurrence
    (l+1) P_{l+1} = (2l+1) x P_l − l P_{l−1}, which is stable on the whole
    interval [-1, 1] and costs O(ell_max) steps. ``x`` is a float or a float
    array in [-1, 1]; a float runs the same operations in the same order on
    IEEE doubles, so each value is bitwise the one-element array's at a
    fraction of its interpreter cost. The sweep keeps only the last two
    degrees alive.
    """
    pm1 = x ** 0  # ones, also for a float
    yield pm1
    if ell_max == 0:
        return
    p = x * 1.0  # a copy, also for a float
    yield p
    for l in range(1, ell_max):
        pm1, p = p, ((2 * l + 1) * x * p - l * pm1) / (l + 1)
        yield p


def legendre_p(ell, x):
    """Legendre polynomial P_l(x) on [-1, 1], by the recurrence sweep.

    O(l); accepts scalar or array ``x`` and returns a float for a scalar.
    """
    ell = _check_degree(ell)
    x = _check_x(x)
    (p,) = deque(_legendre_sweep(ell, float(x) if x.ndim == 0 else x), maxlen=1)
    return p


# ======================================================================
# Real normalized spherical harmonics on a meridian
# ======================================================================

# values per buffer of a table's sweep (8 MB)
_TILE_VALUES = 1 << 20

# recurrence coefficients per block of degrees (32 KB each): the block's
# temporaries land at a sampler's memory peak. At l_max = 512, 2^16 values
# per block raised a fractional-pair run's peak RSS by 3.8 MB and one block
# per sweep by 5.7 MB, where 4096 left it flat
_COEF_VALUES = 4096


def _recurrence_coefficients(ell_max):
    """Yield (a, b) of each degree l = 2..ell_max in turn, each of length l−1.

    Row m ≤ l−2 of block l is a[m] · cos θ · λ_{l−1,m} − b[m] · λ_{l−2,m}.
    The coefficients of a run of consecutive degrees, at most _COEF_VALUES
    of them (or one degree's when it has more), come from one vectorized
    pass over the flattened (l, m) triangle, by the same expressions, with
    the same operand types, as one degree's m vector, hence bitwise equal.
    """
    lo = 2
    while lo <= ell_max:
        hi, size = lo + 1, lo - 1  # degrees lo..hi−1, size coefficients
        while hi <= ell_max and size + hi - 1 <= _COEF_VALUES:
            size += hi - 1
            hi += 1
        ls = np.arange(lo, hi)
        counts = ls - 1
        l = np.repeat(ls, counts)
        m = np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
        a = np.sqrt((2 * l - 1.0) * (2 * l + 1.0) / ((l - m) * (l + m)))
        b = np.sqrt((2 * l + 1.0) * (l + m - 1) * (l - m - 1)
                    / ((l - m) * (l + m) * (2 * l - 3.0)))
        start = 0
        for k in range(lo, hi):
            yield a[start:start + k - 1], b[start:start + k - 1]
            start += k - 1
        lo = hi


def _meridian_blocks(ell_max, theta):
    """Yield the λ_{lm}(θ) block of each degree l = 0..ell_max in turn.

    Block l has shape (l+1, len(theta)), row m = N_{lm} P_l^m(cos θ). Rows
    m ≤ l−2 come from the two previous blocks at once (the three-term
    recurrence in l), then the m = l−1 and sectoral m = l rows (∝ sin^l θ,
    underflowing harmlessly to 0 near the poles) from the last sectoral
    value: O(ell_max) Python steps, each a few numpy calls. The recurrence
    coefficients come from :func:`_recurrence_coefficients`, formed for a
    run of degrees at a time, at most _COEF_VALUES of them unless one degree
    has more: unbounded, their temporaries would raise a sampler's memory
    peak and hold O(ell_max²) values. The normalization is folded into the
    coefficients, so no factorial overflows. Each value is formed by the
    same operations, in the same order, as the order-by-order recurrence,
    hence bitwise equal to it (the scalar square roots are correctly
    rounded in ``math`` as in numpy). Blocks live in three rotating
    buffers: use or copy each before advancing the sweep.
    """
    ct, st = np.cos(theta), np.sin(theta)
    # one allocation: three separate ones were returned to the OS and
    # page-faulted again on every small table (1.7× the time at l=8, N=4096)
    bufs = np.empty((3, ell_max + 1, theta.size))
    prev2, prev = None, bufs[0][:1]
    prev[0] = 1.0 / np.sqrt(4.0 * np.pi)
    yield prev
    coefs = _recurrence_coefficients(ell_max)
    for l in range(1, ell_max + 1):
        lam = bufs[l % 3][:l + 1]
        if l >= 2:
            a, b = next(coefs)
            np.multiply(a[:, None], ct, out=lam[:l - 1])
            lam[:l - 1] *= prev[:l - 1]
            prev2 *= b[:, None]  # its buffer is the next block's
            lam[:l - 1] -= prev2
        np.multiply(math.sqrt(2 * l + 1.0), ct, out=lam[l - 1])
        np.multiply(-math.sqrt((2 * l + 1) / (2.0 * l)), st, out=lam[l])
        lam[l - 1:] *= prev[l - 1]
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
    if not np.all(x >= 0):  # NaN is outside too
        raise ValueError("argument must be non-negative")
    # scipy loads at the first call that needs it, never at package import:
    # scipy.special alone costs about 0.3 s and 16 MB that most commands skip
    from scipy.special import jv
    out = jv(order, x)
    return float(out[0]) if scalar else out

