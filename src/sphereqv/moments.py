"""Moments and cumulants of quadratic variations of meridian increments.

Exact values come from the increment Gram matrix: for a centered Gaussian
increment vector with covariance Σ, the quadratic variation V = Σ Δ_i² has

    E[V]            = tr Σ
    κ_p(V − E V)    = 2^(p−1) (p−1)! · tr(Σ^p),      p ≥ 2,

so the mean has a closed form, the variance is twice the squared Frobenius
norm, and every higher cumulant is an eigenvalue power sum. For one degree
with l+1 ≤ N all three come from the (l+1)×(l+1) circle core, which shares
Σ's nonzero spectrum, without the N×N matrix.

The fixed-degree (non-central) limit has the same structure: a
second-chaos variable whose cumulants are eigenvalue power sums of the
integral operator with kernel g(|x−y|) on [0, 1]. Szegő's expansion makes
g a sum of l+1 cosines, so those eigenvalues are the spectrum of an
(l+1)×(l+1) limit core, the N → ∞ limit of the circle core, and the
variance constant K_l is a sum of l+1 squares. Asymptotic formulas for the
three degree-versus-grid growth regimes, the fourth-moment normality
proxy, and the simplified estimators' normalizers with their exact biases
complete the module. ``sphereqv moments`` prints one cell's exact table.

Each exact-side refusal has one owner here, so that ``sphereqv moments``
and ``estimate`` run it without the sampler, and each names the offending
value: the largest degree any function accepts (``MAX_DEGREE``,
:func:`_check_ell_n`), the regime and its ratio c (:class:`RegimeTag`), the
grid a logarithmic asymptotic variance needs (:func:`asymptotic_var`), and
one rule per cell (:func:`_cell_error`) that bounds the scale a spectrum's
statistics can hold, through the mean of V in O(l_max) free of the
cancellation in 1 − P_l(cos(π/2N)). The samplers' lower degree bound is
``specfun``'s.

Normalization convention: the standardized statistic is
F = (V − E V)/√Var V, whose second cumulant is 1 by construction.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from .specfun import bessel_j, legendre_p

__all__ = [
    "RegimeTag",
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
]

FIXED_ELL = "fixed_ell"
ELL_FASTER = "ell_faster"
ELL_COMPARABLE = "ell_comparable"
ELL_SLOWER = "ell_slower"
_REGIMES = (FIXED_ELL, ELL_FASTER, ELL_COMPARABLE, ELL_SLOWER)

# The largest degree a command accepts: its exact side runs O(l) Legendre
# recurrences, so 2^21 stays within a budget of about 10 s. Measured at 2^21
# on a 2-core x86-64 VM: ``sphereqv moments --n 1`` 0.5 s (three sweeps on
# one float each, its mean's and its Gram row's two lags), ``sphereqv
# estimate --mode cl`` 0.22–0.26 s (its mean's sweep).
MAX_DEGREE = 2 ** 21


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
                raise ValueError(f"ell_comparable requires a finite c > 0, got {self.c!r}")
            object.__setattr__(self, "c", float(self.c))
        elif self.c is not None:
            raise ValueError(f"regime {self.kind} carries no ratio c, got {self.c!r}")

    @classmethod
    def fixed_ell(cls):
        return cls(FIXED_ELL)

    @classmethod
    def ell_faster(cls):
        return cls(ELL_FASTER)

    @classmethod
    def ell_comparable(cls, c):
        return cls(ELL_COMPARABLE, c)

    @classmethod
    def ell_slower(cls):
        return cls(ELL_SLOWER)


# ======================================================================
# Exact moments from the Gram matrix
# ======================================================================

def _check_ell_n(ell, n):
    """(l, N) as ints, l in [1, ``MAX_DEGREE``] and N ≥ 1, else ValueError."""
    if int(ell) != ell or ell < 1:
        raise ValueError(f"degree must be an integer ≥ 1, got {ell!r}")
    if ell > MAX_DEGREE:
        raise ValueError(f"degree {ell} exceeds {MAX_DEGREE} (2^{MAX_DEGREE.bit_length() - 1}), "
                         "the largest whose O(l) recurrences run within about 10 s")
    if int(n) != n or n < 1:
        raise ValueError(f"grid size must be an integer ≥ 1, got {n!r}")
    return int(ell), int(n)


def exact_mean_vnl(ell, c_ell, n):
    """Exact mean of the degree-l quadratic variation on an N-increment grid.

    2N · c_l (2l+1)/(4π) · (1 − P_l(cos(π/(2N)))); equals the trace of the
    increment Gram matrix.
    """
    ell, n = _check_ell_n(ell, n)
    return (2.0 * n * c_ell * (2 * ell + 1) / (4.0 * math.pi)
            * (1.0 - legendre_p(ell, math.cos(0.5 * math.pi / n))))


def _power_cumulant(eig, p):
    """κ_p = 2^(p−1)(p−1)! Σ μ^p of the chaos variable Σ μ_i(Z_i² − 1)."""
    return 2.0 ** (p - 1) * math.factorial(p - 1) * float(np.sum(eig ** p))


def exact_var_vnl(gram):
    """Exact variance 2 tr(Σ²): twice the squared Frobenius norm of the
    gram's core when it carries one, else of Σ; no eigendecomposition."""
    if isinstance(gram, cov.IncrementGram):
        gram = gram.sigma if gram.core is None else gram.core
    return 2.0 * float(np.sum(np.square(gram, dtype=float)))


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
    are eigenvalue power sums, from the gram's (l+1)×(l+1) core when it
    carries one and from the dense matrix otherwise.
    """
    if int(p) != p or not (2 <= p <= 8):
        raise ValueError("cumulant order must be an integer in [2, 8]")
    p = int(p)
    if p == 2:
        return exact_var_vnl(gram)
    eig = (gram.eigenvalues() if isinstance(gram, cov.IncrementGram)
           else np.linalg.eigvalsh(np.asarray(gram, float)))
    return _power_cumulant(eig, p)


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
# Spectrum-level mean and the cell rule
# ======================================================================

def _mean_v(spectrum, factor, n):
    """E[V] on an N-increment grid of the kernel factor · Σ C_l (2l+1) P_l, in
    O(l_max): 2N·factor times Σ C_l (2l+1) u_l, u_l = 1 − P_l(cos h),
    h = π/(2N). u_l runs its own recurrence from u_1 = 2 sin²(h/2): the
    difference 1 − P_l(cos h) reads 0 once cos h rounds to 1, near N = 10^8.
    Past degree 2^16 each degree counts u_l ≤ 2, so a degree there, such as
    the single one ``sphereqv moments`` reads up to 2^21, gets an upper bound."""
    w = cov._degree_power(spectrum)
    top = min(spectrum.l_max, 2 ** 16)
    s = 2.0 * math.sin(0.25 * math.pi / n) ** 2
    # (l+1) P_{l+1} = (2l+1) x P_l − l P_{l−1} at x = 1 − s, for u_l = 1 − P_l
    u = [0.0, s]
    for l in range(1, top):
        u.append(((2 * l + 1) * (u[l] + s * (1.0 - u[l])) - l * u[l - 1]) / (l + 1))
    k = max(0, top + 1 - spectrum.l_min)  # degrees l_min..top
    near = float(np.dot(w[:k], u[spectrum.l_min:top + 1]))
    return 2.0 * n * factor * (near + 2.0 * float(np.sum(w[k:])))


def _cell_error(spectrum, factors, n, power=1, reps=1):
    """Why a command refuses the cell of kernel f·Σ C_l (2l+1) P_l on an
    N-increment grid, one factor f per time, else None; the first fault of:

    - overflow: reps·(4N·σ²)^power, σ² the pointwise variance at
      ``max(factors)``, beyond float max/2^64. E[V] ≤ 4N·σ², so a V that
      passes overflows only beyond 1.8e19 times its mean, and so does a sum
      of V^power over reps replications;
    - underflow, for power ≥ 2 only: E[V]^power (:func:`_mean_v`) at
      ``min(factors)`` below the smallest normal float, where sums of V^power
      and their SEs lose digits to subnormals or read 0; an E[V] of exactly
      0 means V is identically zero, and no statistic of it is defined. Raw
      values (power 1) have no floor, so tiny and all-zero fields still sample.

    The rule bounds the scale only: a sampler target refuses a top degree
    beyond 1900 when built, and :func:`_check_ell_n` one beyond ``MAX_DEGREE``.
    """
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        total = float(np.sum(cov._degree_power(spectrum)))
    bound, scale = sys.float_info.max / 2 ** 64, 4.0 * n * max(factors) * total
    # (bound/reps)^(1/power) by logarithms: reps may lie beyond the float range
    if not scale <= math.exp((math.log(bound) - math.log(reps)) / power):
        what = "V" if not scale <= bound else f"its sums of V^{power} over the replications"
        return (f"4N times the pointwise variance is {scale:.3g} at N={n}: "
                f"{what} could overflow, beyond float max/2^64")
    if power >= 2 and (mean := _mean_v(spectrum, min(factors), n)) ** power < sys.float_info.min:
        what = f"its sums of V^{power} could underflow, below float min"
        return f"E[V] is {mean:.3g} at N={n}: {what if mean else 'V is identically zero'}"
    return None


# ======================================================================
# The degree profile g and its limit operator
# ======================================================================

def k_ell_constant(ell, quad_nodes=None, lag_weighted=False):
    """Variance-scale constant of the fixed-degree regime.

    ((2l+1)/(4π))² (π⁴/16) · I, where g(x) = −d²/dθ² P_l(cos θ) at θ = πx/2,
    the N²-scaled lag-k second difference at x = k/N, is Σ_m b_m cos(j_m θ)
    with b_m = w_m j_m² (Szegő). By default I = ∫₀¹ g² = Σ b_m², O(l): the
    cosines are orthogonal on [0, 1] but for the pairs j, −j. With
    ``lag_weighted=True``, I = 2∫₀¹ (1−x) g² = tr K², the squared Frobenius
    norm of the limit core, which carries the (N−k) lag multiplicity of the
    Toeplitz variance sum; only this form satisfies N² Var/(2 c_l²) → K_l.
    The unweighted form is the named constant (K₁ = 9π²/512); the two differ
    by a degree-dependent factor in [1, 1.5]. ``quad_nodes`` is ignored,
    kept for old callers.
    """
    ell, _ = _check_ell_n(ell, 1)
    w, j = cov._szego(ell)
    integral = float(np.sum(np.square(cov._limit_core(ell) if lag_weighted else w * j * j)))
    return ((2 * ell + 1) / (4.0 * math.pi)) ** 2 * (math.pi ** 4 / 16.0) * integral


def nclt_limit_cumulant(ell, p, quad_nodes=None):
    """Limiting cumulant κ_p of the standardized quadratic variation, fixed degree.

    As the grid is refined with the degree held fixed, F converges to the
    second-chaos variable Σ ν_i (Z_i² − 1), standardized, where ν are the
    eigenvalues of the integral operator K with kernel g(|x−y|) on [0, 1].
    With J_p = tr(K^p) = Σ ν^p,

        κ_p = 2^(p−1) (p−1)! · J_p / (2 J₂)^(p/2),

    normalized so that κ₂ = 1. ν are the eigenvalues of the (l+1)×(l+1)
    limit core (``covariance._limit_core``); the circle core's κ_p approach
    these as N⁻². p ∈ {3, 4} are the orders accepted. ``quad_nodes`` is
    ignored, kept for old callers.
    """
    ell, _ = _check_ell_n(ell, 1)
    if p not in (3, 4):
        raise ValueError("limit cumulants implemented for p in {3, 4} only")
    nu = np.linalg.eigvalsh(cov._limit_core(ell))
    return _power_cumulant(nu, p) / _power_cumulant(nu, 2) ** (p / 2.0)


# ======================================================================
# Regime asymptotics
# ======================================================================

def _check_regime(regime):
    if not isinstance(regime, RegimeTag):
        raise TypeError("regime must be a RegimeTag")
    return regime


def _one_minus_j0(x):
    """1 − J₀(x) for x ≥ 0, the ell_comparable stand-in for 1 − P_l(cos(π/2N))
    at x = πc/2, free of cancellation. Below x = 1 (c < 2/π) it sums the
    power series y − y²/4 + y³/36 − … in y = (x/2)² to 9 terms, the first
    dropped under 2e-18 of the sum. From x = 1 up it is 1 − J₀(x) as
    written, bitwise as before and within 1.1e-15 relative; that difference
    is 1.7e-5 off at c = 1e-6 and reads 0 from c ≈ 1e-8."""
    if x >= 1.0:
        return 1.0 - bessel_j(0, x)
    y = (0.5 * x) ** 2
    s = 1.0
    for k in range(9, 1, -1):
        s = 1.0 - y / (k * k) * s
    return y * s


def asymptotic_mean(regime, ell, c_ell, n):
    """Leading-order mean of the quadratic variation in the given regime.

    fixed_ell:        (π/32)(2l+1) l(l+1) c_l / N
    ell_faster:       2N c_l (2l+1)/(4π)
    ell_comparable:   2N c_l (2l+1)/(4π) · (1 − J₀(πc/2))
    ell_slower:       2N c_l (2l+1)/(4π) · (π²/16)(l²/N²)

    The first three are limits of the exact mean, verified by
    ``sphereqv moments --regime R`` (mean_ratio 1 − 7e-7 at (l, N) =
    (8, 4096); 0.986 at (65536, 64), where P_l(cos(π/2N)) decays slowly;
    1.0004 at (2048, 2048), c = 1). The paper's fixed-degree constant π/16 is
    twice the exact π/32: acceptance 02a reads 0.5. The ell_slower line is
    the paper's leading form l²; the exact limit, the Taylor value of
    1 − P_l(cos(π/2N)), carries l(l+1): mean_ratio 1.122 at (8, 64),
    against (l+1)/l = 1.125. A stand-in 1 − J₀(πc/2) below the smallest
    normal float (c below about 1.9e-154, where (πc/4)² leaves the normal
    range) is refused, as for the cl2 estimator.
    """
    regime = _check_regime(regime)
    ell, n = _check_ell_n(ell, n)
    lead = 2.0 * n * c_ell * (2 * ell + 1) / (4.0 * math.pi)
    if regime.kind == FIXED_ELL:
        return math.pi / 32.0 * (2 * ell + 1) * ell * (ell + 1) * c_ell / n
    if regime.kind == ELL_FASTER:
        return lead
    if regime.kind == ELL_COMPARABLE:
        factor = _one_minus_j0(0.5 * math.pi * regime.c)
        if not factor >= sys.float_info.min:
            raise FloatingPointError(f"ell_comparable stand-in 1 − J₀(πc/2) degenerate "
                                     f"({factor!r}) at c={regime.c!r}")
        return lead * factor
    return lead * (math.pi ** 2 / 16.0) * ell ** 2 / n ** 2


def asymptotic_var(regime, ell, c_ell, n):
    """Leading-order variance of the quadratic variation in the given regime.

    fixed_ell:                  2 K_l c_l² / N²   (K_l of :func:`k_ell_constant`, O(l))
    ell_faster, ell_comparable: (2/π⁴) c_l² l N² ln N
    ell_slower:                 (π/128) c_l² l⁵ ln N / N²

    All three are the paper's forms; none is verified by the exact side.
    fixed_ell uses the unweighted K_l, while the exact N²-scaled variance
    tends to the lag-weighted one (``lag_weighted=True``): acceptance 02b
    reads 1.126 at (l, N) = (4, 4096). Along l = N the exact variance
    stabilizes at 3.85× the second form (acceptance 05); with l outrunning
    N its var_ratio grows like l (199, 851, 3514 at N = 64, l = 4096,
    16384, 65536). ell_slower's var_ratio reads about 2.35 (2.354 at
    (64, 4096), 2.350 at (256, 65536)), still unverified. The three forms
    with ln N refuse N = 1, where they read 0.
    """
    regime = _check_regime(regime)
    ell, n = _check_ell_n(ell, n)
    if regime.kind == FIXED_ELL:
        return 2.0 * k_ell_constant(ell) * c_ell ** 2 / n ** 2
    if n < 2:
        raise ValueError(f"regime {regime.kind} requires N ≥ 2, got N={n}: "
                         "its asymptotic variance carries ln N")
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


def _variant_terms(variant, ell, n, c):
    """(normalizer, exact relative bias) of simplified estimator ``variant``,
    every input checked here (ValueError).

    The normalizer is the exact mean's lead 2N(2l+1)/(4π) times a regime
    stand-in for 1 − P_l(cos(π/2N)): 1 (variant 1), 1 − J₀(πc/2) (variant 2;
    :func:`_one_minus_j0`) or (π²/16) l(l+1)/N² (variant 3). A stand-in below
    the smallest normal float (variant 2 below c ≈ 1.9e-154, where (πc/4)²
    leaves the normal range) is a FloatingPointError.
    """
    if variant not in _VARIANT_REGIME:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant!r}")
    c = RegimeTag(_VARIANT_REGIME[variant], c).c
    ell, n = _check_ell_n(ell, n)
    lead = 2.0 * n * (2 * ell + 1) / (4.0 * math.pi)
    if variant == 1:
        factor = 1.0
    elif variant == 2:
        factor = _one_minus_j0(0.5 * math.pi * c)
    else:
        factor = (math.pi ** 2 / 16.0) * ell * (ell + 1) / n ** 2
    norm = lead * factor
    if not factor >= sys.float_info.min:
        raise FloatingPointError(
            f"variant {variant} normalizer degenerate ({norm!r}) at l={ell}, N={n}")
    return norm, exact_mean_vnl(ell, 1.0, n) / norm - 1.0


def estimator_bias(variant, ell, n, c=None):
    """Exact relative bias E[Ĉ^(variant)]/C_l − 1 of the simplified estimators.

    Each variant divides the quadratic variation by a regime stand-in for
    the exact normalizer 2N(2l+1)/(4π)(1 − P_l(cos(π/2N))), so the bias is
    the exact unit-spectrum mean over the stand-in, minus 1. The stand-ins
    for 1 − P_l(cos(π/2N)) are 1 (variant 1, degree outruns grid; the bias
    is −P_l(cos(π/2N))), 1 − J₀(πc/2) (variant 2, l/N → c; it alone takes
    ``c``) and the small-angle value (π²/16) l(l+1)/N² (variant 3, grid outruns degree).
    """
    return _variant_terms(variant, ell, n, c)[1]
