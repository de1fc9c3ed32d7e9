"""Moments and cumulants of quadratic variations of meridian increments.

Exact values come from the increment Gram matrix: for a centered Gaussian
increment vector with covariance Σ, the quadratic variation V = Σ Δ_i² has

    E[V]            = tr Σ
    κ_p(V − E V)    = 2^(p−1) (p−1)! · tr(Σ^p),      p ≥ 2,

so the mean has a closed form, the variance is twice the squared Frobenius
norm, and every higher cumulant is an eigenvalue power sum. For one degree
Σ = FᵀF with a rank-(l+1) increment factor F, so while l+1 ≤ N/8 those
power sums come from the (l+1)×(l+1) Gram F Fᵀ without the N×N matrix.
Asymptotic
formulas for the three degree-versus-grid growth regimes, the limiting
cumulants of the fixed-degree (non-central) limit, the fourth-moment
normality proxy, and exact estimator biases complete the module.

Normalization convention: the standardized statistic is
F = (V − E V)/√Var V, whose second cumulant is 1 by construction.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import covariance as cov
from .specfun import bessel_j, legendre_p, legendre_p_deriv

__all__ = [
    "RegimeTag",
    "MomentReport",
    "exact_mean_vnl",
    "exact_var_vnl",
    "exact_var_from_row",
    "trace_cumulant",
    "normalized_cumulant",
    "fourth_moment_bound",
    "k_ell_constant",
    "nclt_limit_cumulant",
    "asymptotic_mean",
    "asymptotic_var",
    "fullfield_moment_orders",
    "estimator_bias",
    "moment_report",
]

FIXED_ELL = "fixed_ell"
ELL_FASTER = "ell_faster"
ELL_COMPARABLE = "ell_comparable"
ELL_SLOWER = "ell_slower"
_REGIMES = (FIXED_ELL, ELL_FASTER, ELL_COMPARABLE, ELL_SLOWER)


@dataclass(frozen=True)
class RegimeTag:
    """Relative growth of degree l versus grid size N.

    fixed_ell: l constant. ell_faster: N/l → 0. ell_comparable: l/N → c > 0
    (carries c). ell_slower: l/N → 0 with l → ∞.
    """

    kind: str
    c: float | None = None

    def __post_init__(self):
        if self.kind not in _REGIMES:
            raise ValueError(f"unknown regime {self.kind!r}")
        if self.kind == ELL_COMPARABLE:
            if (isinstance(self.c, bool) or not isinstance(self.c, numbers.Real)
                    or not 0 < self.c <= sys.float_info.max):
                raise ValueError("ell_comparable requires a finite c > 0")
            object.__setattr__(self, "c", float(self.c))
        elif self.c is not None:
            raise ValueError(f"regime {self.kind} carries no ratio c")

    @classmethod
    def fixed_ell(cls):
        return cls(FIXED_ELL)

    @classmethod
    def ell_faster(cls):
        return cls(ELL_FASTER)

    @classmethod
    def ell_comparable(cls, c):
        return cls(ELL_COMPARABLE, float(c))

    @classmethod
    def ell_slower(cls):
        return cls(ELL_SLOWER)


@dataclass(frozen=True)
class MomentReport:
    """Exact moments of one (degree, grid) cell.

    ``cumulants[p-2]`` holds κ_p of the standardized statistic F for
    p = 2..p_max; the leading entry is 1 by construction.
    """

    mean: float
    variance: float
    cumulants: tuple
    regime: RegimeTag

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be non-negative")
        if self.cumulants and abs(self.cumulants[0] - 1.0) > 1e-12:
            raise ValueError("normalized second cumulant must equal 1")


# ======================================================================
# Exact moments from the Gram matrix
# ======================================================================

def _check_ell_n(ell, n):
    if int(ell) != ell or ell < 1:
        raise ValueError("degree must be an integer ≥ 1")
    if int(n) != n or n < 1:
        raise ValueError("grid size must be an integer ≥ 1")
    return int(ell), int(n)


def exact_mean_vnl(ell, c_ell, n):
    """Exact mean of the degree-l quadratic variation on an N-increment grid.

    2N · c_l (2l+1)/(4π) · (1 − P_l(cos(π/(2N)))); equals the trace of the
    increment Gram matrix.
    """
    ell, n = _check_ell_n(ell, n)
    return (2.0 * n * c_ell * (2 * ell + 1) / (4.0 * math.pi)
            * (1.0 - legendre_p(ell, math.cos(0.5 * math.pi / n))))


def _sigma_of(gram):
    return gram.sigma if hasattr(gram, "sigma") else np.asarray(gram, float)


def _eigenvalues(gram):
    """Eigenvalues whose power sums are tr(Σ^p).

    An :class:`~sphereqv.covariance.IncrementGram` decomposes once and keeps
    the result (from the R×R Gram F Fᵀ when it carries the increment
    factor); a plain matrix is decomposed on every call.
    """
    if isinstance(gram, cov.IncrementGram):
        return gram.eigenvalues()
    return np.linalg.eigvalsh(np.asarray(gram, float))


def _power_cumulant(eig, p):
    """κ_p = 2^(p−1)(p−1)! Σ μ^p over the eigenvalues μ of Σ."""
    return 2.0 ** (p - 1) * math.factorial(p - 1) * float(np.sum(eig ** p))


def exact_var_vnl(gram):
    """Exact variance 2 tr(Σ²).

    Twice the squared Frobenius norm of a dense Σ; from the eigenvalues of
    the small factor Gram when the gram carries its increment factor.
    """
    if getattr(gram, "factor", None) is not None:
        return _power_cumulant(_eigenvalues(gram), 2)
    sig = _sigma_of(gram)
    return 2.0 * float(np.sum(sig * sig))


def exact_var_from_row(row):
    """Variance from the first Gram row alone (Toeplitz structure).

    2 [N r_0² + 2 Σ_{k=1}^{N−1} (N−k) r_k²]; O(N) time and memory, for
    grids too large to hold the full matrix.
    """
    row = np.asarray(row, dtype=float)
    n = row.size
    k = np.arange(1, n)
    return 2.0 * (n * row[0] ** 2 + 2.0 * float(np.sum((n - k) * row[1:] ** 2)))


def trace_cumulant(gram, p):
    """Cumulant κ_p of the centered quadratic variation, 2 ≤ p ≤ 8.

    2^(p−1)(p−1)! · tr(Σ^p). p = 2 is :func:`exact_var_vnl`; higher orders
    are eigenvalue power sums, from the (l+1)-sized factor Gram when the
    gram carries its increment factor and from the dense matrix otherwise.
    """
    if int(p) != p or not (2 <= p <= 8):
        raise ValueError("cumulant order must be an integer in [2, 8]")
    p = int(p)
    if p == 2:
        return exact_var_vnl(gram)
    return _power_cumulant(_eigenvalues(gram), p)


def normalized_cumulant(gram, p):
    """κ_p of the standardized statistic F = (V − E V)/√Var V."""
    var = exact_var_vnl(gram)
    if var <= 0:
        raise ValueError("degenerate Gram matrix: zero variance")
    return trace_cumulant(gram, p) / var ** (p / 2.0)


def fourth_moment_bound(gram):
    """Normality-distance proxy √(κ₄(F)/6) for the standardized statistic.

    Within the second Wiener chaos the distance of F to the standard normal
    is controlled by this quantity; it is invariant under scaling of the
    Gram matrix.
    """
    return math.sqrt(normalized_cumulant(gram, 4) / 6.0)


# ======================================================================
# The degree profile g and its quadrature integrals
# ======================================================================

def _gauss01(nodes):
    x, w = leggauss(int(nodes))
    return 0.5 * (x + 1.0), 0.5 * w


def _g_profile(ell, x):
    """g(x) = l(l+1) P_l(u) − P'_l(u)·u at u = cos(xπ/2), x ∈ [0, 1].

    The limiting shape of N²-scaled second differences of P_l over the
    grid: uniformly in k, N·(lag k second difference) ≈ (π²/(4N)) g(k/N).
    g(0) = l(l+1)/2.
    """
    x = np.asarray(x, dtype=float)
    u = np.cos(0.5 * math.pi * x)
    return ell * (ell + 1) * legendre_p(ell, u) - legendre_p_deriv(ell, u) * u


def k_ell_constant(ell, quad_nodes, lag_weighted=False):
    """Variance-scale constant of the fixed-degree regime.

    ((2l+1)/(4π))² (π⁴/16) · I with I = ∫₀¹ g(x)² dx by default. With
    ``lag_weighted=True``, I = 2∫₀¹ (1−x) g(x)² dx instead, which carries
    the (N−k) lag multiplicity of the Toeplitz variance sum; only the
    weighted form satisfies N² Var/(2 c_l²) → K_l. The unweighted form is
    kept as the named constant (it gives K₁ = 9π²/512 in closed form) and
    the two differ by a degree-dependent factor in [1, 1.5].
    """
    ell, _ = _check_ell_n(ell, 1)
    if quad_nodes < 10 * ell:
        warnings.warn(
            f"quad_nodes={quad_nodes} below 10·l={10 * ell}; the integrand "
            f"oscillates ~l times and may be under-resolved", stacklevel=2)
    x, w = _gauss01(quad_nodes)
    g2 = _g_profile(ell, x) ** 2
    integral = 2.0 * float(np.sum(w * (1.0 - x) * g2)) if lag_weighted \
        else float(np.sum(w * g2))
    return ((2 * ell + 1) / (4.0 * math.pi)) ** 2 * (math.pi ** 4 / 16.0) * integral


def nclt_limit_cumulant(ell, p, quad_nodes):
    """Limiting cumulant κ_p of the standardized quadratic variation, fixed degree.

    As the grid is refined with the degree held fixed, F converges to a
    non-Gaussian second-chaos variable whose cumulants are cyclic integrals
    of g: with J_p = ∫_{[0,1]^p} g(|x₁−x₂|) g(|x₂−x₃|) ··· g(|x_p−x₁|) dx,

        κ_p = 2^(p−1) (p−1)! · J_p / (2 J₂)^(p/2),

    normalized so that κ₂ = 1. Only p ∈ {3, 4} are supported (tensor
    quadrature cost grows as nodes^p). quad_nodes is the per-axis
    Gauss–Legendre count; ≥ 10·l resolves the oscillation.
    """
    ell, _ = _check_ell_n(ell, 1)
    if p not in (3, 4):
        raise ValueError("limit cumulants implemented for p in {3, 4} only")
    if quad_nodes < 10 * ell:
        warnings.warn(
            f"quad_nodes={quad_nodes} below 10·l={10 * ell} per axis",
            stacklevel=2)
    x, w = _gauss01(quad_nodes)

    def g(arr):
        return _g_profile(ell, arr)

    # J2 over the square reduces to gap form: 2 ∫₀¹ (1−u) g(u)² du
    j2 = 2.0 * float(np.sum(w * (1.0 - x) * g(x) ** 2))

    if p == 3:
        # Order the three points; gaps (u, v) with u+v ≤ 1 appear 3! times,
        # each giving the same cycle product g(u)g(v)g(u+v); base point
        # integrates to (1−u−v). Map the simplex to the unit square by
        # u = a, v = (1−a)b with Jacobian (1−a).
        a = x[:, None]
        b = x[None, :]
        wa = w[:, None]
        wb = w[None, :]
        u = a
        v = (1.0 - a) * b
        integrand = (6.0 * (1.0 - a) ** 2 * (1.0 - b)
                     * g(np.broadcast_to(u, v.shape)) * g(v) * g(u + v))
        jp = float(np.sum(wa * wb * integrand))
    else:
        # Four ordered points with gaps (u, v, t), u+v+t ≤ 1. The 4! rank
        # assignments fall into three dihedral classes of 8, with cycle
        # products over gap sums as below; base point gives (1−u−v−t).
        # Simplex → cube: u = a, v = (1−a)b, t = (1−a)(1−b)c,
        # Jacobian (1−a)²(1−b).
        a = x[:, None, None]
        b = x[None, :, None]
        c = x[None, None, :]
        wa = w[:, None, None]
        wb = w[None, :, None]
        wc = w[None, None, :]
        u = np.broadcast_to(a, (x.size,) * 3)
        v = np.broadcast_to((1.0 - a) * b, u.shape)
        t = (1.0 - a) * (1.0 - b) * c
        gu, gv, gt = g(u), g(v), g(t)
        guv, gvt, guvt = g(u + v), g(v + t), g(u + v + t)
        cycles = gu * gv * gt * guvt + gu * gvt * gt * guv + guv * gv * gvt * guvt
        weight = 8.0 * (1.0 - a) ** 3 * (1.0 - b) ** 2 * (1.0 - c)
        jp = float(np.sum(wa * wb * wc * weight * cycles))

    return 2.0 ** (p - 1) * math.factorial(p - 1) * jp / (2.0 * j2) ** (p / 2.0)


# ======================================================================
# Regime asymptotics
# ======================================================================

def _check_regime(regime):
    if not isinstance(regime, RegimeTag):
        raise TypeError("regime must be a RegimeTag")
    return regime


def asymptotic_mean(regime, ell, c_ell, n):
    """Leading-order mean of the quadratic variation in the given regime.

    fixed_ell:        (π/32)(2l+1) l(l+1) c_l / N
    ell_faster:       2N c_l (2l+1)/(4π)
    ell_comparable:   2N c_l (2l+1)/(4π) · (1 − J₀(πc/2))
    ell_slower:       2N c_l (2l+1)/(4π) · (π²/16)(l²/N²)

    All four are limits of the exact mean: 1 − P_l(cos(π/2N)) tends to 1
    when the degree outruns the grid, to 1 − J₀(πc/2) when l/N → c, and to
    its second-order Taylor value l(l+1)π²/(16N²) when the grid outruns the
    degree.
    """
    regime = _check_regime(regime)
    ell, n = _check_ell_n(ell, n)
    lead = 2.0 * n * c_ell * (2 * ell + 1) / (4.0 * math.pi)
    if regime.kind == FIXED_ELL:
        return math.pi / 32.0 * (2 * ell + 1) * ell * (ell + 1) * c_ell / n
    if regime.kind == ELL_FASTER:
        return lead
    if regime.kind == ELL_COMPARABLE:
        return lead * (1.0 - bessel_j(0, 0.5 * math.pi * regime.c))
    return lead * (math.pi ** 2 / 16.0) * ell ** 2 / n ** 2


def asymptotic_var(regime, ell, c_ell, n, quad_nodes=None):
    """Leading-order variance of the quadratic variation in the given regime.

    fixed_ell:                  2 K_l c_l² / N²   (K_l from quadrature)
    ell_faster, ell_comparable: (2/π⁴) c_l² l N² ln N
    ell_slower:                 (π/128) c_l² l⁵ ln N / N²
    """
    regime = _check_regime(regime)
    ell, n = _check_ell_n(ell, n)
    if regime.kind == FIXED_ELL:
        nodes = quad_nodes if quad_nodes is not None else max(64, 10 * ell)
        return 2.0 * k_ell_constant(ell, nodes) * c_ell ** 2 / n ** 2
    if regime.kind in (ELL_FASTER, ELL_COMPARABLE):
        return 2.0 / math.pi ** 4 * c_ell ** 2 * ell * n ** 2 * math.log(n)
    return math.pi / 128.0 * c_ell ** 2 * ell ** 5 * math.log(n) / n ** 2


def fullfield_moment_orders(epsilon, n):
    """Predicted growth orders (mean, variance) of the full-field statistic.

    For a power-law spectrum with decay exponent 2+ε, the mean grows like
    N^(1−ε) and the variance like N^(1−2ε) ln N. Returns the two order
    functions evaluated at N: pure scaling shapes with no constants, meant
    for log-log slope fits across a range of N.
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 0.5)")
    if int(n) != n or n < 1:
        raise ValueError("grid size must be an integer ≥ 1")
    n = float(n)
    return n ** (1.0 - epsilon), n ** (1.0 - 2.0 * epsilon) * math.log(n)


# ======================================================================
# Estimator bias
# ======================================================================

_VARIANT_REGIME = {1: ELL_FASTER, 2: ELL_COMPARABLE, 3: ELL_SLOWER}


def estimator_bias(variant, ell, n, regime):
    """Exact relative bias E[Ĉ^(variant)]/C_l − 1 of the simplified estimators.

    Each variant divides the quadratic variation by an asymptotic stand-in
    for the exact normalizer 2N(2l+1)/(4π)(1 − P_l(cos(π/2N))), so the bias
    is a closed form in the ratio of denominators:

    variant 1 (degree outruns grid): denominator drops the P_l term
        → bias = −P_l(cos(π/2N))
    variant 2 (l/N → c): denominator uses 1 − J₀(πc/2)
        → bias = (1 − P_l(cos(π/2N)))/(1 − J₀(πc/2)) − 1
    variant 3 (grid outruns degree): denominator uses the small-angle value
        (π²/16) l(l+1)/N²
        → bias = (1 − P_l(cos(π/2N)))/((π²/16) l(l+1)/N²) − 1
    """
    if variant not in (1, 2, 3):
        raise ValueError("variant must be 1, 2 or 3")
    regime = _check_regime(regime)
    if regime.kind != _VARIANT_REGIME[variant]:
        raise ValueError(
            f"variant {variant} pairs with regime {_VARIANT_REGIME[variant]}, "
            f"got {regime.kind}")
    ell, n = _check_ell_n(ell, n)
    pl = legendre_p(ell, math.cos(0.5 * math.pi / n))
    if variant == 1:
        return -pl
    if variant == 2:
        return (1.0 - pl) / (1.0 - bessel_j(0, 0.5 * math.pi * regime.c)) - 1.0
    small = (math.pi ** 2 / 16.0) * ell * (ell + 1) / n ** 2
    return (1.0 - pl) / small - 1.0


# ======================================================================
# Report builder
# ======================================================================

def moment_report(ell, c_ell, n, regime=None, p_max=4):
    """Exact mean, variance and standardized cumulants for one cell.

    Builds the increment Gram once and evaluates κ_p for p = 2..p_max
    (2 ≤ p_max ≤ 8) from one eigendecomposition. While l+1 ≤ N/8 that is
    the (l+1)×(l+1) Gram of the increment factor, so the cost is O(l²N)
    time and O(lN) memory at any grid size; larger degrees use the dense
    N×N matrix.
    """
    if not (2 <= p_max <= 8):
        raise ValueError("p_max must lie in [2, 8]")
    ell, n = _check_ell_n(ell, n)
    regime = RegimeTag.fixed_ell() if regime is None else _check_regime(regime)
    gram = cov.increment_gram_fl(ell, c_ell, cov.LineGrid(n))
    mean = exact_mean_vnl(ell, c_ell, n)
    var = exact_var_vnl(gram)
    if p_max == 2:
        cums = (1.0,)
    else:
        eig = _eigenvalues(gram)
        cums = tuple(1.0 if p == 2 else _power_cumulant(eig, p) / var ** (p / 2.0)
                     for p in range(2, p_max + 1))
    return MomentReport(mean=mean, variance=var, cumulants=cums, regime=regime)
