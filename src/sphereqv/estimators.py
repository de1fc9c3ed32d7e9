"""Spectrum and regularity estimators built on quadratic variations.

The reference estimator divides the observed quadratic variation by its
exact unit-spectrum mean, which makes it exactly unbiased for C_l at every
(l, N). Three simplified variants replace the exact normalizer by its
regime asymptotics and therefore carry a known, closed-form relative bias.
A classical estimator from harmonic coefficients and a two-time Hurst
estimator complete the set.

Each estimator checks its own inputs, with a ValueError that names a value
outside its domain; arithmetic that fails on valid inputs (a normalizer
below the smallest normal float) raises FloatingPointError.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .moments import _variant_terms, exact_mean_vnl

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


def _nonnegative(v):
    """``v`` (as a float array when it is one), after refusing a negative value."""
    if np.any(np.asarray(v) < 0):
        raise ValueError(f"quadratic variation must be non-negative, got {float(np.min(v))!r}")
    return np.asarray(v, dtype=float) if np.ndim(v) else v


def estimate_cl(v, ell, n):
    """Exactly unbiased spectrum estimate from quadratic variations.

    Divides v by 2N(2l+1)/(4π)(1 − P_l(cos(π/2N))), the unit-spectrum
    mean, so E[value] = C_l for every l ≥ 1, N ≥ 1. ``v`` may be one value
    or an array of them (one per replication); ``value`` then has its shape
    and the normalizer is computed once.
    """
    v = _nonnegative(v)
    norm = exact_mean_vnl(ell, 1.0, n)
    if not norm > 0:
        raise FloatingPointError(f"exact normalizer degenerate ({norm!r}) at l={ell}, N={n}")
    return EstimateResult(value=v / norm, normalizer=norm,
                          variant="exact", bias_exact=0.0)


def estimate_cl_variant(v, ell, n, variant, c=None):
    """Regime-asymptotic spectrum estimate (variants 1, 2, 3).

    The denominators replace 1 − P_l(cos(π/2N)) by, respectively, 1
    (degree outruns grid), 1 − J₀(πc/2) (l/N → c; requires ``c``, which the
    others refuse), and (π²/16) l(l+1)/N² (grid outruns degree). The exact
    relative bias of the substitution is attached. ``v`` may be an array.
    """
    v = _nonnegative(v)
    norm, bias = _variant_terms(variant, ell, n, c)
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
        raise ValueError(f"degree must be an integer ≥ 1, got {ell!r}")
    if coeffs.shape != (2 * int(ell) + 1,):
        raise ValueError(f"need a vector of 2l+1 = {2 * int(ell) + 1} coefficients, "
                         f"got shape {coeffs.shape}")
    value = float(coeffs @ coeffs) / coeffs.size
    return EstimateResult(value=value, normalizer=float(coeffs.size),
                          variant="classical", bias_exact=0.0)


def _log_ratio(a, b):
    """log(a/b) for positive a and b: the log of the ratio while the ratio is
    a finite normal float, else log a − log b, which stays finite where a/b
    rounds to 0, a subnormal or inf."""
    ratio = a / b
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    return math.log(a) - math.log(b)


def estimate_hurst(v_t, v_s, t, s):
    """Hurst exponent from quadratic variations at two times.

    The two-time ratio of quadratic variations concentrates at (t/s)^{2H},
    so Ĥ = log(v_t/v_s)/(2 log(t/s)), each log taken of the ratio itself
    unless the ratio leaves the normal float range (``_log_ratio``), so
    finite inputs give a finite estimate. No clamping: values outside (0, 1)
    are returned as-is with a warning, since they indicate either noise or
    a misspecified model and silent truncation would hide both.
    """
    if v_t <= 0 or v_s <= 0:
        raise ValueError(f"quadratic variations must be positive, got {v_t!r} and {v_s!r}")
    if t <= 0 or s <= 0 or t == s:
        raise ValueError(f"times must be distinct positives, got {t!r} and {s!r}")
    h = _log_ratio(v_t, v_s) / (2.0 * _log_ratio(t, s))
    if not (0.0 < h < 1.0):
        warnings.warn(f"Hurst estimate {h:.4f} outside (0, 1)", stacklevel=2)
    return h
