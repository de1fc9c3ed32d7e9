"""Covariance structure of isotropic Gaussian fields along a meridian grid.

Angular power spectra, the equispaced colatitude grid, exact covariance
kernels of single-degree and truncated full fields, second differences of
Legendre polynomials, the Gram matrix of grid increments with its low-rank
increment factor, and the joint covariance of a sphere-valued fractional
Brownian pair observed at two times.

The increment Gram matrix is the workhorse: for a Gaussian field f observed
at grid points θ_1 < ... < θ_{N+1}, entry (i, j) is E[Δ_i Δ_j] with
Δ_i = f(θ_{i+1}) − f(θ_i). Every exact moment of the quadratic variation
Σ Δ_i² is a trace functional of this matrix.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .specfun import _legendre_sweep, harmonic_meridian_table, legendre_p

__all__ = [
    "PowerSpectrum",
    "LineGrid",
    "IncrementGram",
    "FbmSpec",
    "kernel_fl",
    "second_difference_p",
    "increment_row_fl",
    "increment_gram_fl",
    "increment_row_f",
    "increment_gram_f",
    "rh_cross",
    "fbm_spatial_row",
    "fbm_joint_gram",
]


# ======================================================================
# Domain types
# ======================================================================

@dataclass(frozen=True)
class PowerSpectrum:
    """Angular power spectrum: non-negative variances C_l per degree.

    Two kinds. ``explicit`` stores a finite table of values for degrees
    l_min..l_max. ``power_law`` is C_l = c0 · l^(−2−ε) for l ≥ 1, truncated
    at l_max for any finite computation; the discarded tail is quantified by
    :meth:`tail_bound`.

    Build via :meth:`explicit`, :meth:`single`, or :meth:`power_law`.
    """

    kind: str
    l_min: int
    l_max: int
    values: tuple = ()
    c0: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in ("explicit", "power_law"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.l_min < 0:
            raise ValueError("l_min must be ≥ 0")
        if self.l_max < 1 or self.l_max < self.l_min:
            raise ValueError("l_max must be ≥ 1 and ≥ l_min")
        if self.kind == "explicit":
            if len(self.values) != self.l_max - self.l_min + 1:
                raise ValueError("values length must match degree range")
            if not all(0 <= v < math.inf for v in self.values):
                raise ValueError("spectrum values must be finite and non-negative")
        else:
            if not (0 < self.c0 < math.inf and 0 < self.epsilon < math.inf):
                raise ValueError("power law needs finite c0 > 0 and epsilon > 0")

    @classmethod
    def explicit(cls, values, l_min=1):
        """Spectrum from a value table; values[i] is C_{l_min+i}."""
        vals = tuple(float(v) for v in np.atleast_1d(values))
        return cls(kind="explicit", l_min=int(l_min),
                   l_max=int(l_min) + len(vals) - 1, values=vals)

    @classmethod
    def single(cls, ell, c_ell):
        """Spectrum concentrated on one degree."""
        return cls.explicit([float(c_ell)], l_min=int(ell))

    @classmethod
    def power_law(cls, c0, epsilon, l_max):
        """C_l = c0·l^(−2−ε), l ≥ 1, truncated at l_max.

        l_max is mandatory: for slowly decaying tails (small ε) no practical
        truncation makes the tail numerically negligible, so the choice is
        the caller's and the tail bound is always reported.
        """
        return cls(kind="power_law", l_min=1, l_max=int(l_max),
                   c0=float(c0), epsilon=float(epsilon))

    def cl(self, ell):
        """C_l for scalar or array degree, 0 outside the stored range."""
        ells = np.atleast_1d(np.asarray(ell))
        out = np.zeros(ells.shape, dtype=float)
        inside = (ells >= self.l_min) & (ells <= self.l_max)
        if self.kind == "explicit":
            idx = ells[inside] - self.l_min
            out[inside] = np.asarray(self.values)[idx]
        else:
            out[inside] = self.c0 * ells[inside].astype(float) ** (-2.0 - self.epsilon)
        return float(out[0]) if np.ndim(ell) == 0 else out

    def degrees(self):
        """Array of degrees carried by the truncated spectrum."""
        return np.arange(self.l_min, self.l_max + 1)

    def tail_bound(self):
        """Upper bound on the discarded pointwise variance Σ_{l>l_max} C_l(2l+1)/(4π)·2.

        Zero for explicit spectra. For the power law the sum is bounded by
        integral comparison: Σ_{l>L}(2l+1)l^(−2−ε) ≤ 2L^(−ε)/ε + L^(−1−ε)/(1+ε).
        """
        if self.kind == "explicit":
            return 0.0
        L = float(self.l_max)
        s = 2.0 * L ** (-self.epsilon) / self.epsilon \
            + L ** (-1.0 - self.epsilon) / (1.0 + self.epsilon)
        return self.c0 * s / (2.0 * math.pi)


@dataclass(frozen=True)
class LineGrid:
    """Equispaced colatitude grid θ_i = (i/N)(π/2), i = 1..N+1.

    N is the number of increments; there are N+1 points with exact spacing
    π/(2N). The last point slightly exceeds π/2 by construction; distances
    along the meridian are plain |θ_i − θ_j|.
    """

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))

    @property
    def spacing(self):
        return 0.5 * math.pi / self.n

    @property
    def points(self):
        return np.arange(1, self.n + 2) * (0.5 * math.pi / self.n)


class IncrementGram:
    """Covariance matrix of grid increments, with the truncation tail.

    sigma[i, j] = E[Δ_i Δ_j], an N×N symmetric PSD Toeplitz matrix
    (stationary on the line), given whole or by its first ``row``; from a
    row the matrix is built on first access of ``sigma`` only, so
    ``first_row`` and :meth:`trace` never need it. ``tail_bound`` is an
    upper bound on the entrywise error from spectrum truncation (0 for
    single-degree and explicit spectra).

    ``factor``, when present, is the increment factor F (R×N): the grid
    increments are Δ = zᵀF for i.i.d. standard normal z, so Σ = FᵀF. For
    one degree, R = l+1 and F is the column difference of the scaled
    harmonic table of :func:`meridian_basis_fl`, the same table the sampler
    draws from. Σ shares its nonzero eigenvalues with the R×R Gram F Fᵀ,
    so every trace cumulant costs O(R²N) rather than the O(N³) of the
    dense matrix, and the trace is ‖F‖²_F, free of the cancellation in
    1 − P_l(cos(π/2N)). :meth:`eigenvalues` decomposes once per gram.
    """

    def __init__(self, n, sigma=None, tail_bound=0.0, *, row=None, factor=None):
        self.n = int(n)
        self.tail_bound = float(tail_bound)
        if (sigma is None) == (row is None):
            raise ValueError("give exactly one of sigma and row")
        if sigma is not None:
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != (self.n, self.n):
                raise ValueError("sigma must be N×N")
        else:
            row = np.asarray(row, dtype=float)
            if row.shape != (self.n,):
                raise ValueError("row must have length N")
        if factor is not None:
            factor = np.asarray(factor, dtype=float)
            if factor.ndim != 2 or factor.shape[1] != self.n:
                raise ValueError("factor must have N columns")
        self._sigma, self._row, self.factor = sigma, row, factor
        self._eig = None

    def __repr__(self):
        rank = None if self.factor is None else self.factor.shape[0]
        return (f"IncrementGram(n={self.n}, tail_bound={self.tail_bound!r}, "
                f"factor_rows={rank})")

    @property
    def sigma(self):
        if self._sigma is None:
            self._sigma = toeplitz(self._row)
        return self._sigma

    @property
    def first_row(self):
        return (self._sigma[0] if self._row is None else self._row).copy()

    def eigenvalues(self):
        """Eigenvalues whose power sums are tr(Σ^p), computed on first call.

        With the increment factor F they are those of the R×R Gram F Fᵀ,
        which shares Σ's nonzero spectrum; otherwise those of the dense
        N×N matrix. The read-only array is kept, so every cumulant of one
        gram shares one decomposition.
        """
        if self._eig is None:
            f = self.factor
            eig = np.linalg.eigvalsh(self.sigma if f is None else f @ f.T)
            eig.flags.writeable = False
            self._eig = eig
        return self._eig

    def trace(self):
        if self.factor is not None:
            return float(np.sum(self.factor * self.factor))
        if self._row is None:
            return float(np.trace(self._sigma))
        return self.n * float(self._row[0])


@dataclass(frozen=True)
class FbmSpec:
    """Sphere-valued fractional Brownian field observed at two times.

    ``spectrum`` carries the spatial coefficients A_l; the spatial kernel is
    Σ A_l (2l+1) P_l(cos d) with no 1/(4π), which differs from the fixed-time
    field convention by exactly that factor. ``times`` = (t, s), distinct
    positives; ``hurst`` in (0, 1) scales variances as t^{2H}.
    """

    hurst: float
    spectrum: PowerSpectrum
    times: tuple

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ValueError("hurst must lie in (0, 1)")
        t, s = self.times
        if not (0 < t < math.inf and 0 < s < math.inf) or t == s:
            raise ValueError("times must be distinct finite positives")
        object.__setattr__(self, "times", (float(t), float(s)))


# ======================================================================
# Kernels and second differences
# ======================================================================

def kernel_fl(ell, c_ell, theta1, theta2):
    """Covariance of the degree-l field between two meridian points.

    E[f_l(θ1) f_l(θ2)] = c_l (2l+1)/(4π) · P_l(cos|θ1−θ2|).
    """
    d = np.abs(np.asarray(theta1, dtype=float) - np.asarray(theta2, dtype=float))
    return c_ell * (2 * ell + 1) / (4.0 * math.pi) * legendre_p(ell, np.cos(d))


def second_difference_p(ell, k, n):
    """Symmetric second difference of P_l over the grid, at lag k.

    2 P_l(cos(kπ/2N)) − P_l(cos((k−1)π/2N)) − P_l(cos((k+1)π/2N)),
    for 1 ≤ k ≤ N−1. ``k`` may be an integer or integer array.
    """
    k_arr = np.atleast_1d(np.asarray(k))
    if np.any(k_arr < 1) or np.any(k_arr > n - 1):
        raise IndexError(f"lag k must lie in [1, {n - 1}]")
    h = 0.5 * math.pi / n
    val = (2.0 * legendre_p(ell, np.cos(k_arr * h))
           - legendre_p(ell, np.cos((k_arr - 1) * h))
           - legendre_p(ell, np.cos((k_arr + 1) * h)))
    return float(val[0]) if np.ndim(k) == 0 else val


# ======================================================================
# Increment Gram matrices
# ======================================================================

def toeplitz(row):
    """Symmetric Toeplitz matrix of ``row``, bitwise ``scipy.linalg.toeplitz(row)``."""
    wide = np.concatenate((row[:0:-1], row))
    return np.lib.stride_tricks.sliding_window_view(wide, len(row))[::-1].copy()


def _second_difference(kern):
    """Increment Gram row of a stationary kernel given on lags k = 0..N.

    [2(k₀ − k₁), 2k_j − k_{j−1} − k_{j+1} for j = 1..N−1], length N: the
    diagonal E[Δ_i²] and the lag-j covariances E[Δ_i Δ_{i+j}].
    """
    n = kern.size - 1
    row = np.empty(n)
    row[0] = 2.0 * (kern[0] - kern[1])
    row[1:] = 2.0 * kern[1:n] - kern[0:n - 1] - kern[2:]
    return row


def increment_row_fl(ell, c_ell, grid):
    """First row of the degree-l increment Gram matrix (length N).

    Entry 0 is the common diagonal 2 c_l (2l+1)/(4π)(1 − P_l(cos(π/2N)));
    entry k ≥ 1 is c_l (2l+1)/(4π) times the lag-k second difference.
    The full matrix is Toeplitz in this row; the row form is O(lN) and
    avoids the O(N²) matrix for large grids.
    """
    a = c_ell * (2 * ell + 1) / (4.0 * math.pi)
    lags = np.cos(np.arange(grid.n + 1) * grid.spacing)
    return a * _second_difference(legendre_p(ell, lags))


def _single_flight_last(fn):
    """Cache ``fn``'s last call; a caller of a key being built waits for it.

    One ``lru_cache(maxsize=1)`` entry behind one lock: a worker that asks
    while another builds the same key blocks until the build is done and
    then reads the cached value, so concurrent misses build it once. A new
    key evicts the old one. ``__wrapped__`` is ``fn`` and ``cache_clear``
    empties the entry.
    """
    cached = functools.lru_cache(maxsize=1)(fn)
    lock = threading.Lock()

    @functools.wraps(fn)
    def single_flight(*args):
        with lock:
            return cached(*args)

    single_flight.cache_clear = cached.cache_clear
    return single_flight


@_single_flight_last
def meridian_basis_fl(ell, c_ell, grid):
    """Scaled harmonic table B of the degree-l field, shape (l+1, N+1).

    Row m is w_m λ_{lm}(θ_i) over the grid points, with w_0 = √c_l and
    w_m = √(2 c_l) for m ≥ 1 (the two azimuthal channels of order m
    collapse to one on the meridian). The field at the grid is zᵀB for
    i.i.d. standard normal z, and its increments are zᵀF with F the column
    difference of B; the addition theorem gives FᵀF = the increment Gram.

    Single-flight with one entry: the last (l, c_l, grid) is cached, and a
    worker that asks for it while another worker builds it waits for that
    build instead of starting its own, so the sampler's batches of one cell
    share one table however many threads run them. The next key replaces
    it, so no table outlives its cell. The shared array is read-only.

    Left out of ``__all__`` on purpose: perfbench's tracer wraps exported
    functions only, and its ``simulate.batch_self_s`` subtracts the harmonic
    table only as a direct child of the sampler's batch span. (The
    single-degree sampler reaches the table through this helper; the
    full-field and fractional samplers run the recurrence sweep directly,
    so their harmonic work counts in the batch's self time.)
    """
    lam = harmonic_meridian_table(ell, grid.points)
    w = np.full(ell + 1, math.sqrt(2.0 * c_ell))
    w[0] = math.sqrt(c_ell)
    basis = w[:, None] * lam
    basis.flags.writeable = False
    return basis


def increment_gram_fl(ell, c_ell, grid):
    """Increment Gram matrix of the degree-l field on the grid.

    Carries the rank-(l+1) increment factor while l+1 ≤ N/8. The factor's
    harmonic table is one vectorized recurrence sweep, O(l) Python steps
    but O(l²N) arithmetic, and its (l+1)×(l+1) Gram costs O(l²N) again;
    with l a fixed fraction of N both grow like the O(N³) dense
    eigendecompositions of Σ, with a larger constant. Measured on a 2-vCPU
    machine for N = 256..2048, the factor path is about 4× faster at
    l+1 = N/8, 1.1-1.6× faster at N/4 and 2-3× slower at N/2 (l = 511,
    N = 2048: 1.3 s against 1.6 s dense); the margin of 8 keeps the factor
    the cheaper path where BLAS has more cores. Past the cutoff Σ comes
    from the O(lN) row.
    """
    row = increment_row_fl(ell, c_ell, grid)
    factor = (np.diff(meridian_basis_fl(ell, c_ell, grid), axis=1)
              if _carries_factor(ell, grid.n) else None)
    return IncrementGram(n=grid.n, row=row, factor=factor)


def _carries_factor(ell, n):
    """Whether :func:`increment_gram_fl` attaches the factor: l+1 ≤ N/8."""
    return 8 * (ell + 1) <= n


def _kernel_row(weights, l_min, x):
    """Σ_l w_l P_l(x) accumulated degree by degree.

    weights[i] is the coefficient of degree l_min+i; x is an array of
    cosines. One Legendre sweep, O(l_max·len(x)) time and O(len(x))
    memory, so full-field rows never materialize a (degree × point) table.
    """
    acc = np.zeros_like(x)
    for l, p in enumerate(_legendre_sweep(l_min + len(weights) - 1, x)):
        if l >= l_min:
            acc += weights[l - l_min] * p
    return acc


def _spectrum_row(spectrum, grid, divisor):
    """Increment Gram row of the kernel Σ_l C_l (2l+1)/divisor · P_l(cos d)."""
    ells = spectrum.degrees()
    w = spectrum.cl(ells) * (2.0 * ells + 1.0) / divisor
    lags = np.cos(np.arange(grid.n + 1) * grid.spacing)
    return _second_difference(_kernel_row(w, spectrum.l_min, lags))


def increment_row_f(spectrum, grid):
    """First row of the truncated full-field increment Gram matrix.

    The full-field kernel is the degree sum of kernel_fl with weights
    C_l(2l+1)/(4π); by linearity the Gram row is the weighted sum of the
    per-degree rows. Returns a length-N array.
    """
    return _spectrum_row(spectrum, grid, 4.0 * math.pi)


def increment_gram_f(spectrum, grid):
    """Increment Gram matrix of the truncated full field, tail attached."""
    return IncrementGram(n=grid.n, row=increment_row_f(spectrum, grid),
                         tail_bound=spectrum.tail_bound())


# ======================================================================
# Fractional Brownian pair
# ======================================================================

def rh_cross(hurst, t, s):
    """Cross-time covariance factor ½(t^{2H} + s^{2H} − |t−s|^{2H})."""
    return 0.5 * (t ** (2 * hurst) + s ** (2 * hurst)
                  - abs(t - s) ** (2 * hurst))


def fbm_spatial_row(spectrum, grid):
    """First row of the spatial increment Gram for the fBm kernel.

    Kernel Σ_l A_l (2l+1) P_l(cos d); note the absence of 1/(4π) relative
    to the fixed-time field convention.
    """
    return _spectrum_row(spectrum, grid, 1.0)


def fbm_joint_gram(spec, grid):
    """Joint 2N×2N increment covariance of (B_t, B_s) on the grid.

    Separable structure: time factor R with R[0,0] = t^{2H},
    R[1,1] = s^{2H}, off-diagonal ½(t^{2H}+s^{2H}−|t−s|^{2H}), tensored
    with the single spatial increment Gram. Ordering: the first N rows are
    the time-t increments, the last N the time-s increments.
    """
    t, s = spec.times
    h2 = 2.0 * spec.hurst
    r = rh_cross(spec.hurst, t, s)
    time_cov = np.array([[t ** h2, r], [r, s ** h2]])
    spatial = toeplitz(fbm_spatial_row(spec.spectrum, grid))
    return np.kron(time_cov, spatial)
