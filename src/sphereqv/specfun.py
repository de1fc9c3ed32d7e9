"""Special functions for isotropic fields on the sphere, meridian geometry.

Legendre polynomials P_l on [-1, 1], fully normalized associated-Legendre
values (real spherical harmonics restricted to a meridian), Bessel
functions J0 and J2, and the standard normal CDF Φ.

Each recurrence has one home: ``_legendre_sweep`` yields P_0..P_L for
``legendre_p`` and for the full-field kernel rows in ``covariance``, on
Python floats for a scalar or an array of at most 16 values;
``_meridian_blocks`` yields the harmonic blocks for
``harmonic_meridian_table`` and for the samplers' degree-major sweep, with
its recurrence coefficients formed for a bounded block of degrees at a
time. Both cost a few interpreter steps per degree, and every
value is bitwise that of the per-degree array recurrence. J0 and J2 come
from scipy.special. Φ, behind the harness's KS row, is ``_ndtr``: a port of
the cephes ``ndtr`` that ``scipy.special.ndtr`` runs, pinned bit for bit to
it (the tests compare the two), so the sampling commands load no scipy.

The harmonic sweep is exact through degree ``_SWEEP_MAX_DEGREE`` = 1900,
which bounds the samplers' range: ``harmonic_meridian_table`` and every
sampler target refuse a degree beyond it. The Legendre sweep has no such
bound.

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


# arrays of at most this many values are swept one Python float at a time.
# At l = 2^18 on a 2-core x86-64 VM, two values took 0.04 s that way against
# 0.43 s as one array, 16 values 0.29 s against 0.44 s, and the two met near
# 24 values (0.45 s each)
_SCALAR_VALUES = 16


def legendre_p(ell, x):
    """Legendre polynomial P_l(x) on [-1, 1], by the recurrence sweep.

    O(l); accepts scalar or array ``x`` and returns a float for a scalar.
    A scalar, or an array of at most ``_SCALAR_VALUES`` = 16 values, runs
    the sweep on Python floats, one value at a time, with bitwise the array
    sweep's values: the array sweep pays numpy's per-call cost at every
    degree, which outweighs its vector width below about 24 values.
    """
    ell = _check_degree(ell)
    x = _check_x(x)
    if 0 < x.ndim and x.size <= _SCALAR_VALUES:
        return np.array([legendre_p(ell, v) for v in x.ravel().tolist()],
                        dtype=float).reshape(x.shape)
    (p,) = deque(_legendre_sweep(ell, float(x) if x.ndim == 0 else x), maxlen=1)
    return p


# ======================================================================
# Real normalized spherical harmonics on a meridian
# ======================================================================

# The largest degree the harmonic sweep evaluates exactly. Its sectoral
# start sin^m θ leaves the normal float range near m = 708/(−ln sin θ),
# earliest at sin θ = 1/e, m ≈ 1925: past that the addition theorem
# Σ_m (2−δ_m0) λ_lm² = (2l+1)/(4π) is 1e-9 relative off at l = 1932, 1% at
# 2019 and non-finite from 3988, while at 1900 it holds within 4e-11 at the
# grid points of N = 1024 and 2e-13 at sin θ = 1/e
_SWEEP_MAX_DEGREE = 1900

# values per buffer of a table's sweep (8 MB)
_TILE_VALUES = 1 << 20

# recurrence coefficients per block of degrees (32 KB each): the block's
# temporaries land at a sampler's memory peak. At l_max = 512, 2^16 values
# per block raised a fractional-pair run's peak RSS by 3.8 MB and one block
# per sweep by 5.7 MB, where 4096 left it flat
_COEF_VALUES = 4096


def _check_sweep_degree(ell):
    """ValueError when the harmonic sweep is not exact at degree ``ell``."""
    if ell > _SWEEP_MAX_DEGREE:
        raise ValueError(f"degree {ell} exceeds {_SWEEP_MAX_DEGREE}, the largest at which "
                         "the harmonic sweep is exact")


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
    stay small beside the table when len(theta) is large. Degrees beyond
    ``_SWEEP_MAX_DEGREE`` are refused.
    """
    ell = _check_degree(ell)
    _check_sweep_degree(ell)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty((ell + 1, theta.size))
    step = _TILE_VALUES // (ell + 1)
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
    # scipy.special alone costs about 0.2 s and 26 MB that most commands skip
    from scipy.special import jv
    out = jv(order, x)
    return float(out[0]) if scalar else out


# ======================================================================
# The standard normal CDF
# ======================================================================

# cephes' ndtr, erf and erfc coefficients (Cody, Math. Comp. 23, 1969, as
# coded by Moshier, 1989), highest power first; _Q, _S and _U are monic, their
# leading 1 omitted. _P/_Q is erfc's on [1, 8), _R/_S from 8 up, _T/_U erf's
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

# erfc(z) is 0 where −z² < −MAXLOG, the log of the largest double
_MAXLOG = 7.09782712893383996843e2
_SQRTH = math.sqrt(0.5)

# values per block of _ndtr: its temporaries stay this size at any sample
# size, so the KS row's memory peak is set by its sorted copy and rank grids
_NDTR_VALUES = 1 << 16


def _horner(x, coefs, monic=False):
    """cephes' polevl (p1evl when ``monic``): ans = ans·x + c, one rounding each."""
    ans = x + coefs[0] if monic else coefs[0] * x + coefs[1]
    for c in coefs[1:] if monic else coefs[2:]:
        ans *= x
        ans += c
    return ans


def _erf_ratio(x):
    """cephes' erf on |x| ≤ 1: x·T(x²)/U(x²)."""
    z = x * x
    return x * _horner(z, _T) / _horner(z, _U, monic=True)


def _ndtr_block(a, out):
    """Φ of the values ``a``, written into ``out``, cephes' ``ndtr`` step by step."""
    x = a * _SQRTH
    # index arrays, not masks or np.where: on unsorted values those ran 2-4×
    # slower
    below = np.abs(x) < 1.0
    inner, rest = np.flatnonzero(below), np.flatnonzero(~below)
    # |x| < 1: erf(x) = x·T(x²)/U(x²). Below √½, Φ = ½ + ½·erf(x), which is
    # ½·(1 + erf(x)) bitwise, as halving commutes with rounding; so is
    # Φ = ½·erfc(|x|) = ½·(1 − erf(|x|)) for x ≤ −√½, erf being odd; and
    # Φ = 1 − ½·(1 − erf(x)) for x ≥ √½
    xb = x[inner]
    erf = _erf_ratio(xb)
    phi = 0.5 * (1.0 + erf)
    up = np.flatnonzero(xb >= _SQRTH)
    phi[up] = 1.0 - 0.5 * (1.0 - erf[up])
    out[inner] = phi
    # the rest, NaN too: y = ½·erfc(|x|), with erfc(z) = exp(−z²)·P(z)/Q(z)
    # below 8, exp(−z²)·R(z)/S(z) from 8 up, and 0 where z² > MAXLOG; z is
    # clamped to 27, past that cut, to keep the polynomials finite. Φ = 1 − y
    # for x > 0
    xr = x[rest]
    z = np.minimum(np.abs(xr), 27.0)
    zz = z * z
    # libm's exp, as cephes calls it: numpy 2.4.6's np.exp differed from it in
    # the last bit on 4.6% of 2·10⁶ standard normal arguments (AVX-512 build)
    erfc = np.fromiter(map(math.exp, memoryview(-zz)), float, z.size)
    p, q = _horner(z, _P), _horner(z, _Q, monic=True)
    far = z >= 8.0
    if far.any():
        p[far], q[far] = _horner(z[far], _R), _horner(z[far], _S, monic=True)
    erfc *= p
    erfc /= q
    erfc[zz > _MAXLOG] = 0.0
    erfc[np.isnan(z)] = np.nan  # cephes' NaN, whatever the input's sign
    y = 0.5 * erfc
    up = np.flatnonzero(xr > 0)
    y[up] = 1.0 - y[up]
    out[rest] = y


def _ndtr(x, out=None):
    """The standard normal CDF Φ, bitwise ``scipy.special.ndtr``.

    A port of cephes' ``ndtr``: the same rational approximations, branch
    points, operation order and underflow cut, with erfc's exp from libm
    (``math.exp``). It runs over blocks of ``_NDTR_VALUES`` values, writing
    each into ``out``: a C-contiguous float array of x's shape, which may be
    ``x`` itself, or a new one when None. Importing scipy.special for its
    ``ndtr`` would cost about 0.2 s and 26 MB.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat_x.size, _NDTR_VALUES):
        hi = lo + _NDTR_VALUES
        _ndtr_block(flat_x[lo:hi], flat_out[lo:hi])
    return out

