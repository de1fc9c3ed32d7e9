"""Covariance structure of isotropic Gaussian fields along a meridian grid.

Angular power spectra, the equispaced colatitude grid, the increment
covariance rows of single-degree and truncated full fields and of a
sphere-valued fractional Brownian field's spatial kernel, and the Gram
matrix of grid increments with the (l+1)×(l+1) circle core of one degree
and its N → ∞ limit core.

The increment Gram matrix is the workhorse: for a Gaussian field f observed
at grid points θ_1 < ... < θ_{N+1}, entry (i, j) is E[Δ_i Δ_j] with
Δ_i = f(θ_{i+1}) − f(θ_i). Every exact moment of the quadratic variation
Σ Δ_i² is a trace functional of this matrix. This is the exact side alone:
no harmonic table, which only the sampler (``simulate``) builds, and no
target type: the fractional pair's parameters are ``simulate.FbmTarget``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _legendre_sweep, legendre_p

__all__ = [
    "PowerSpectrum",
    "LineGrid",
    "IncrementGram",
    "increment_row_fl",
    "increment_gram_fl",
    "increment_row_f",
    "rh_cross",
    "fbm_spatial_row",
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
        the caller's; :meth:`tail_bound` bounds what it discards.
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
    """Covariance matrix of grid increments.

    sigma[i, j] = E[Δ_i Δ_j], an N×N symmetric PSD Toeplitz matrix
    (stationary on the line), given by its first ``row``; the matrix is
    built on first access of ``sigma`` only, so ``first_row`` and
    :meth:`trace` never need it.

    ``core``, when present, is a symmetric R×R matrix with Σ's nonzero
    eigenvalues (one degree's (l+1)×(l+1) circle core), so tr(Σ^p) =
    tr(core^p) for every p ≥ 1 at O(R³) rather than O(N³), and the trace
    sums positive terms. :meth:`eigenvalues` decomposes once per gram.
    """

    def __init__(self, n, row, *, core=None):
        self.n = int(n)
        row = np.asarray(row, dtype=float)
        if row.shape != (self.n,):
            raise ValueError("row must have length N")
        if core is not None:
            core = np.asarray(core, dtype=float)
            if core.ndim != 2 or core.shape[0] != core.shape[1]:
                raise ValueError("core must be square")
        self._sigma, self._row, self.core = None, row, core
        self._eig = None

    def __repr__(self):
        size = None if self.core is None else self.core.shape[0]
        return f"IncrementGram(n={self.n}, core_size={size})"

    @property
    def sigma(self):
        if self._sigma is None:
            self._sigma = toeplitz(self._row)
        return self._sigma

    @property
    def first_row(self):
        return self._row.copy()

    def eigenvalues(self):
        """Eigenvalues whose power sums are tr(Σ^p), computed on first call.

        Those of the core when the gram carries one, otherwise those of the
        dense N×N matrix. The read-only array is kept, so every cumulant of
        one gram shares one decomposition.
        """
        if self._eig is None:
            eig = np.linalg.eigvalsh(self.sigma if self.core is None else self.core)
            eig.flags.writeable = False
            self._eig = eig
        return self._eig

    def trace(self):
        if self.core is not None:
            return float(np.trace(self.core))
        return self.n * float(self._row[0])


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

    With a = c_l (2l+1)/(4π), u_k = P_l(cos kh) and h = π/2N, entry 0 is the
    common diagonal 2a(u_0 − u_1) and entry k ≥ 1 is a(2u_k − u_{k−1} − u_{k+1}).
    The full matrix is Toeplitz in this row; the row form is O(lN) and
    avoids the O(N²) matrix for large grids.
    """
    a = c_ell * (2 * ell + 1) / (4.0 * math.pi)
    lags = np.cos(np.arange(grid.n + 1) * grid.spacing)
    return a * _second_difference(legendre_p(ell, lags))


def _szego(ell):
    """(w, j) of Szegő's P_l(cos φ) = Σ_m w_m cos(j_m φ), m = 0..l: j_m = l−2m,
    w_m = a_m a_{l−m}, a_m = C(2m, m)/4^m by its ratio (4.0**m overflows)."""
    m = np.arange(1, ell + 1)
    a = np.concatenate(([1.0], np.cumprod((2.0 * m - 1.0) / (2.0 * m))))
    return a * a[::-1], ell - 2 * np.arange(ell + 1)


def _szego_core(j, r, k0, denominator):
    """r_m K(j_m − j_k) r_k over Szegő's frequencies j (:func:`_szego`): the
    one body of both cores, K(0) = k0 and K(d) = sin(πd/4)/denominator(d).
    d is even, so sin(πd/4) is exact from (d/2) mod 4."""
    d = j[:, None] - j
    sin_quarter = np.array([0.0, 1.0, 0.0, -1.0])[(d // 2) % 4]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(d == 0, k0, sin_quarter / denominator(d))
    return r[:, None] * kernel * r


def _circle_core(ell, c_ell, n):
    """(l+1)×(l+1) symmetric matrix with the degree-l Gram's nonzero spectrum.

    The spacing π/(2N) closes the great circle in M = 4N points, so Σ is an
    N×N section of a circulant. Szegő's expansion (:func:`_szego`) gives
    Σ = E diag(μ) E^H, E[i, m] = e^{i j_m θ_i}, μ_m = 4 sin²(π j_m/M) c_l (2l+1)/(4π) w_m,
    so Σ shares its nonzero spectrum with √μ E^H E √μ; E^H E is, up to a
    diagonal unitary similarity, sin(πd/4)/sin(πd/M) at d = j_m − j_k (N at
    d = 0; |d| ≤ 2l < M): :func:`_szego_core` with r = √μ. The core tends to
    c_l (2l+1)π/(16N) times :func:`_limit_core` as N → ∞.
    """
    w, j = _szego(ell)
    r = np.abs(np.sin(math.pi * j / (4 * n))) * np.sqrt(c_ell * (2 * ell + 1) / math.pi * w)
    return _szego_core(j, r, float(n), lambda d: np.sin(math.pi * d / (4 * n)))


def _limit_core(ell):
    """(l+1)×(l+1) matrix with the nonzero eigenvalues of the operator with
    kernel g(|x−y|) on [0, 1]. g(x) = −d²/dθ² P_l(cos θ) at θ = πx/2 is
    Σ_m b_m cos(j_m θ), b_m = w_m j_m² (:func:`_szego`), so the operator is
    E diag(b) E^H, E[x, m] = e^{i j_m πx/2}, with √b E^H E √b's nonzero spectrum;
    E^H E is, up to a diagonal unitary similarity, sin(πd/4)/(πd/4) at
    d = j_m − j_k (1 at d = 0): :func:`_szego_core` with r = √b."""
    w, j = _szego(ell)
    return _szego_core(j, np.abs(j) * np.sqrt(w), 1.0, lambda d: 0.25 * math.pi * d)


def increment_gram_fl(ell, c_ell, grid):
    """Increment Gram matrix of the degree-l field on the grid.

    Carries the (l+1)×(l+1) circle core of :func:`_circle_core` while
    l+1 ≤ N, where it is no larger than Σ, so every trace cumulant costs
    O(l³) at any grid size; Σ comes from the O(lN) row on first use.
    """
    row = increment_row_fl(ell, c_ell, grid)
    core = _circle_core(ell, c_ell, grid.n) if ell < grid.n else None
    return IncrementGram(n=grid.n, row=row, core=core)


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


def _degree_power(spectrum):
    """C_l (2l+1) at each of the spectrum's degrees, l_min..l_max: the weight
    of P_l in every kernel here, and of degree l in the mean of V."""
    ells = spectrum.degrees()
    return spectrum.cl(ells) * (2.0 * ells + 1.0)


def _spectrum_row(spectrum, grid, divisor):
    """Increment Gram row of the kernel Σ_l C_l (2l+1)/divisor · P_l(cos d)."""
    w = _degree_power(spectrum) / divisor
    lags = np.cos(np.arange(grid.n + 1) * grid.spacing)
    return _second_difference(_kernel_row(w, spectrum.l_min, lags))


def increment_row_f(spectrum, grid):
    """First row of the truncated full-field increment Gram matrix.

    The full-field kernel is Σ_l C_l (2l+1)/(4π) P_l(cos d), the degree sum
    of the single-degree kernels; by linearity the Gram row is the sum of
    the per-degree rows (:func:`increment_row_fl`). Returns a length-N array.
    """
    return _spectrum_row(spectrum, grid, 4.0 * math.pi)


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

