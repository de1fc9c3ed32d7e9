"""Spectrum and regularity estimators built on quadratic variations.

The reference estimator divides the observed quadratic variation by its
exact unit-spectrum mean, which makes it exactly unbiased for C_l at every
(l, N). Three simplified variants replace the exact normalizer by its
regime asymptotics and therefore carry a known, closed-form relative bias.
A classical estimator from harmonic coefficients and a two-time Hurst
estimator complete the set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .moments import RegimeTag, _variant_normalizer, estimator_bias, exact_mean_vnl

__all__ = [
    "EstimateResult",
    "estimate_cl",
    "estimate_cl_variant",
    "estimate_cl_classical",
    "estimate_hurst",
]


@dataclass(frozen=True)
class EstimateResult:
    """An estimate with the denominator that produced it.

    ``bias_exact`` is the closed-form relative bias E[value]/C_l − 1 of the
    chosen normalizer (0 for the exact and classical estimators).
    ``value`` is an array when the estimator was given an array of
    quadratic variations.
    """

    value: float | np.ndarray
    normalizer: float
    variant: str
    bias_exact: float

    def __post_init__(self):
        if self.normalizer <= 0:
            raise ValueError("normalizer must be positive")

    def as_dict(self):
        return {
            "value": self.value,
            "normalizer": self.normalizer,
            "variant": self.variant,
            "bias_exact": self.bias_exact,
        }


def estimate_cl(v, ell, n):
    """Exactly unbiased spectrum estimate from quadratic variations.

    Divides v by 2N(2l+1)/(4π)(1 − P_l(cos(π/2N))), the unit-spectrum
    mean, so E[value] = C_l for every l ≥ 1, N ≥ 1. ``v`` may be one value
    or an array of them (one per replication); ``value`` then has its shape
    and the normalizer is computed once.
    """
    if np.any(np.asarray(v) < 0):
        raise ValueError("quadratic variation must be non-negative")
    norm = exact_mean_vnl(ell, 1.0, n)
    if not norm > 0:
        raise ValueError(f"exact normalizer degenerate ({norm!r}) at l={ell}, N={n}")
    value = np.asarray(v, dtype=float) / norm if np.ndim(v) else v / norm
    return EstimateResult(value=value, normalizer=norm,
                          variant="exact", bias_exact=0.0)


def estimate_cl_variant(v, ell, n, variant, c=None):
    """Regime-asymptotic spectrum estimate (variants 1, 2, 3).

    The denominators replace 1 − P_l(cos(π/2N)) by, respectively, 1
    (degree outruns grid), 1 − J₀(πc/2) (l/N → c; requires ``c``), and
    (π²/16) l(l+1)/N² (grid outruns degree). The exact relative bias of the
    substitution is attached.
    """
    if v < 0:
        raise ValueError("quadratic variation must be non-negative")
    if variant not in (1, 2, 3):
        raise ValueError("variant must be 1, 2 or 3")
    if int(ell) != ell or ell < 1 or int(n) != n or n < 1:
        raise ValueError("need integer l ≥ 1 and N ≥ 1")
    ell, n = int(ell), int(n)
    if variant == 2:
        if c is None or c <= 0:
            raise ValueError("variant 2 requires the ratio c > 0")
        regime = RegimeTag.ell_comparable(c)
    else:
        regime = RegimeTag.ell_faster() if variant == 1 else RegimeTag.ell_slower()
    norm = _variant_normalizer(variant, ell, n, c)
    bias = estimator_bias(variant, ell, n, regime)
    return EstimateResult(value=v / norm, normalizer=norm,
                          variant=f"v{variant}", bias_exact=bias)


def estimate_cl_classical(coeffs, ell):
    """Mean of squared harmonic coefficients (the 2l+1 real-basis channels).

    With each coefficient N(0, C_l), the estimate is unbiased with variance
    2 C_l²/(2l+1); (2l+1)·value/C_l is chi-square with 2l+1 degrees of
    freedom.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if int(ell) != ell or ell < 1:
        raise ValueError("degree must be an integer ≥ 1")
    if coeffs.shape != (2 * int(ell) + 1,):
        raise ValueError(f"need exactly {2 * int(ell) + 1} coefficients")
    value = float(coeffs @ coeffs) / coeffs.size
    return EstimateResult(value=value, normalizer=float(coeffs.size),
                          variant="classical", bias_exact=0.0)


def estimate_hurst(v_t, v_s, t, s):
    """Hurst exponent from quadratic variations at two times.

    The two-time ratio of quadratic variations concentrates at (t/s)^{2H},
    so Ĥ = log(v_t/v_s)/(2 log(t/s)). No clamping: values outside (0, 1)
    are returned as-is with a warning, since they indicate either noise or
    a misspecified model and silent truncation would hide both.
    """
    if v_t <= 0 or v_s <= 0:
        raise ValueError("quadratic variations must be positive")
    if t <= 0 or s <= 0 or t == s:
        raise ValueError("times must be distinct positives")
    h = math.log(v_t / v_s) / (2.0 * math.log(t / s))
    if not (0.0 < h < 1.0):
        warnings.warn(f"Hurst estimate {h:.4f} outside (0, 1)", stacklevel=2)
    return h
