"""Spectrum and Hurst estimators."""

import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from sphereqv.estimators import (
    EstimateResult,
    estimate_cl,
    estimate_cl_classical,
    estimate_cl_variant,
    estimate_hurst,
)
from sphereqv.covariance import LineGrid, increment_gram_fl
from sphereqv.moments import (
    _one_minus_j0,
    estimator_bias,
    exact_mean_vnl,
    exact_var_vnl,
)
from sphereqv.simulate import SampleSpec, SingleEll, batch_quadratic_variation
from sphereqv.specfun import legendre_p

RNG = np.random.default_rng(61004)


# ======================================================================
# Exact estimator
# ======================================================================

def test_exact_estimator_inverts_the_mean():
    # feeding the exact mean of a spectrum value must recover it exactly
    for ell, n, c in ((1, 1, 0.7), (5, 16, 2.0), (40, 128, 0.05)):
        v = exact_mean_vnl(ell, c, n)
        res = estimate_cl(v, ell, n)
        assert_allclose(res.value, c, rtol=1e-13)
        assert res.variant == "exact"
        assert res.bias_exact == 0.0
        assert_allclose(res.normalizer, exact_mean_vnl(ell, 1.0, n), rtol=1e-15)


def test_exact_estimator_rejects_negative_v():
    with pytest.raises(ValueError):
        estimate_cl(-0.1, 2, 8)
    with pytest.raises(ValueError):
        estimate_cl(np.array([0.3, -0.1]), 2, 8)


def test_exact_estimator_over_an_array_is_bitwise_per_value():
    v = RNG.exponential(2.0, 257)
    res = estimate_cl(v, 3, 16)
    assert isinstance(res.value, np.ndarray) and res.value.shape == v.shape
    c_ell = 0.7
    want = np.array([estimate_cl(x, 3, 16).value / c_ell for x in v])
    assert_array_equal((res.value / c_ell).view(np.uint64), want.view(np.uint64))
    assert isinstance(estimate_cl(0.37, 3, 16).value, float)


def test_exact_estimator_rejects_a_degenerate_normalizer():
    # at N = 10⁹, cos(π/2N) rounds to 1, so 1 − P_l(cos(π/2N)) is 0: a
    # failure of the arithmetic on valid inputs, not a ValueError, and not an
    # assert that python -O would strip
    assert exact_mean_vnl(1, 1.0, 10 ** 9) == 0.0
    with pytest.raises(FloatingPointError, match="normalizer degenerate"):
        estimate_cl(1.0, 1, 10 ** 9)


# ======================================================================
# Asymptotic variants
# ======================================================================

def test_variant_values_reconcile_with_bias():
    # value = exact-estimate · (1 + bias) by construction
    v = 0.37
    for variant, ell, n, c in [(1, 50, 8, None), (2, 16, 16, 1.0), (3, 4, 64, None)]:
        res = estimate_cl_variant(v, ell, n, variant, c=c)
        exact = estimate_cl(v, ell, n).value
        bias = estimator_bias(variant, ell, n, c)
        assert_allclose(res.value, exact * (1.0 + bias), rtol=1e-12)
        assert res.bias_exact == bias
        assert res.variant == f"v{variant}"


def test_variant_two_requires_ratio():
    with pytest.raises(ValueError):
        estimate_cl_variant(0.5, 16, 16, 2)
    for c in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_cl_variant(0.5, 16, 16, 2, c=c)
    with pytest.raises(ValueError):
        estimate_cl_variant(0.5, 16, 16, 4)


@pytest.mark.parametrize("args, line", [
    ((-0.5, 16, 16, 1), "quadratic variation must be non-negative, got -0.5"),
    ((np.array([0.1, -0.2]), 16, 16, 1), "non-negative, got -0.2"),
    ((0.5, 16, 16, 4), "variant must be 1, 2 or 3, got 4"),
    ((0.5, 2.5, 16, 1), "degree must be an integer ≥ 1, got 2.5"),
    ((0.5, 16, 0, 3), "grid size must be an integer ≥ 1, got 0"),
    ((0.5, 2 ** 21 + 1, 16, 3), "degree 2097153 exceeds 2097152"),
    ((0.5, 16, 16, 2, 0.0), "ell_comparable requires a finite c > 0, got 0.0"),
    ((0.5, 16, 16, 3, 1.0), "regime ell_slower carries no ratio c, got 1.0"),
], ids=["negative_v", "negative_in_array", "variant", "fractional_degree", "grid",
        "degree_bound", "c_zero", "c_for_variant_3"])
def test_variant_estimator_names_the_input_it_refuses(args, line):
    # every input check lives in the estimator; its message names the value
    with pytest.raises(ValueError, match=re.escape(line)):
        estimate_cl_variant(*args)


def test_variant_estimator_on_an_array_is_its_per_value_results():
    # an array of V divides by one normalizer, as estimate_cl does; it raised
    # numpy's "truth value of an array is ambiguous"
    v = np.array([0.1, 0.2, 0.0, 3.7])
    for variant, c in ((1, None), (2, 0.5), (3, None)):
        res = estimate_cl_variant(v, 8, 16, variant, c=c)
        singles = [estimate_cl_variant(x, 8, 16, variant, c=c) for x in v]
        assert_array_equal(res.value, [r.value for r in singles])
        assert {r.normalizer for r in singles} == {res.normalizer}
        assert {r.bias_exact for r in singles} == {res.bias_exact}


def test_variant_normalizers():
    lead = 2.0 * 32 * (2 * 8 + 1) / (4 * math.pi)
    r1 = estimate_cl_variant(1.0, 8, 32, 1)
    assert_allclose(r1.normalizer, lead, rtol=1e-15)
    r3 = estimate_cl_variant(1.0, 8, 32, 3)
    assert_allclose(r3.normalizer, lead * math.pi ** 2 / 16 * 72 / 32 ** 2,
                    rtol=1e-15)


def _reference_normalizer(variant, ell, n, c):
    # the variant normalizers as estimate_cl_variant built them inline; variant
    # 2's 1 − J₀(πc/2) is the cancellation-free one, whose own test checks it
    # against mpmath (bitwise 1.0 - bessel_j(0, πc/2) from c = 2/π up)
    lead = 2.0 * n * (2 * ell + 1) / (4.0 * math.pi)
    if variant == 1:
        factor = 1.0
    elif variant == 2:
        factor = _one_minus_j0(0.5 * math.pi * c)
    else:
        factor = (math.pi ** 2 / 16.0) * ell * (ell + 1) / n ** 2
    return lead * factor


def _reference_bias(variant, ell, n, c):
    # the per-variant closed forms estimator_bias evaluated from P_l directly
    pl = legendre_p(ell, math.cos(0.5 * math.pi / n))
    if variant == 1:
        return -pl
    if variant == 2:
        return (1.0 - pl) / _one_minus_j0(0.5 * math.pi * c) - 1.0
    small = (math.pi ** 2 / 16.0) * ell * (ell + 1) / n ** 2
    return (1.0 - pl) / small - 1.0


def test_variant_normalizers_match_the_per_variant_reference():
    # normalizer and value bitwise; the bias is now the exact mean over the
    # normalizer, minus 1, which moves only its last bits. Variant 2 takes its
    # regime's c = l/N: a mismatched c sends the bias far from 0, where the
    # same relative shift is a larger absolute one
    v = 0.37
    for variant in (1, 2, 3):
        for ell in (1, 2, 3, 5, 8, 13, 40, 64, 300, 1000):
            for n in (1, 2, 4, 16, 64, 256, 1024, 4096):
                c = ell / n if variant == 2 else None
                res = estimate_cl_variant(v, ell, n, variant, c=c)
                norm = _reference_normalizer(variant, ell, n, c)
                assert res.normalizer == norm
                assert res.value == v / norm
                assert abs(res.bias_exact - _reference_bias(variant, ell, n, c)) <= 4e-15


def test_variant_two_rejects_a_degenerate_normalizer():
    # at c = 1e-163 (πc/4)² underflows, so 1 − J₀(πc/2) rounds to 0, and at
    # 1e-160 it is subnormal: a raised FloatingPointError (the arithmetic
    # fails, not the input), not a float division by zero or an infinite bias
    assert _one_minus_j0(0.5 * math.pi * 1e-163) == 0.0
    assert 0.0 < _one_minus_j0(0.5 * math.pi * 1e-160) < sys.float_info.min
    for c in (1e-163, 1e-160):
        with pytest.raises(FloatingPointError, match="variant 2 normalizer degenerate"):
            estimate_cl_variant(1.0, 3, 4, 2, c=c)
        with pytest.raises(FloatingPointError, match="variant 2 normalizer degenerate"):
            estimator_bias(2, 3, 4, c)
    assert math.isfinite(estimate_cl_variant(1.0, 3, 4, 2, c=2e-154).bias_exact)


def test_variant_two_at_a_small_ratio_keeps_its_digits():
    # 1 − J₀(πc/2) read 0 at c = 1e-8; its series gives (πc/4)² to the last bits
    res = estimate_cl_variant(1.0, 3, 4, 2, c=1e-8)
    lead = 2.0 * 4 * 7 / (4.0 * math.pi)
    assert res.normalizer == pytest.approx(lead * (0.25 * math.pi * 1e-8) ** 2, rel=1e-15)


# ======================================================================
# Classical estimator
# ======================================================================

def test_classical_estimator_moments():
    ell, c, b = 3, 1.7, 40000
    coeffs = RNG.normal(0.0, math.sqrt(c), size=(b, 2 * ell + 1))
    vals = np.array([estimate_cl_classical(row, ell).value for row in coeffs])
    dof = 2 * ell + 1
    assert abs(vals.mean() - c) < 4.0 * c * math.sqrt(2.0 / dof / b)
    want_var = 2.0 * c * c / dof
    se_var = want_var * math.sqrt(2.0 / b) * 2.0  # loose chi-square band
    assert abs(vals.var(ddof=1) - want_var) < 4.0 * se_var
    # the scaled estimate is chi-square with 2l+1 degrees of freedom
    ks = stats.kstest(vals * dof / c, stats.chi2(dof).cdf)
    assert ks.pvalue > 1e-3


def test_classical_estimator_validation():
    assert estimate_cl_classical(np.zeros(7), 3).value == 0.0
    with pytest.raises(ValueError):
        estimate_cl_classical(np.zeros(6), 3)
    with pytest.raises(ValueError):
        estimate_cl_classical(np.zeros(7), 0)


# ======================================================================
# Hurst estimator
# ======================================================================

def test_hurst_inverts_the_time_power():
    for h in (0.3, 0.5, 0.7):
        v_s = 1.234
        v_t = v_s * (2.0 / 1.0) ** (2 * h)
        assert_allclose(estimate_hurst(v_t, v_s, 2.0, 1.0), h, rtol=1e-13)


def test_hurst_equal_variations_give_zero():
    # zero sits on the boundary, so the out-of-range warning fires too
    with pytest.warns(UserWarning):
        assert estimate_hurst(1.0, 1.0, 3.0, 1.5) == 0.0


def test_hurst_scale_invariance():
    a = estimate_hurst(0.8, 0.5, 2.0, 1.0)
    b = estimate_hurst(8.0, 5.0, 2.0, 1.0)
    assert_allclose(a, b, rtol=1e-14)
    # swapping times and variations together leaves the estimate alone
    c = estimate_hurst(0.5, 0.8, 1.0, 2.0)
    assert_allclose(a, c, rtol=1e-14)


def test_hurst_warns_outside_unit_interval():
    with pytest.warns(UserWarning):
        h = estimate_hurst(10.0, 1.0, 2.0, 1.0)
    assert h > 1.0  # returned unclamped


def test_hurst_validation():
    with pytest.raises(ValueError):
        estimate_hurst(0.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        estimate_hurst(1.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        estimate_hurst(1.0, 1.0, -1.0, 1.0)


@pytest.mark.parametrize("args", [(1e308, 1e-308, 2.0, 1.0), (1e-308, 1e308, 2.0, 1.0),
                                  (2.0, 1.0, 1e-308, 1e308), (5e-324, 1.0, 2.0, 1.0),
                                  (1.5, 1.0, 3e-310, 1e10),
                                  (np.float64(1e308), np.float64(1e-308), 2.0, 1.0)],
                         ids=["v_overflow", "v_underflow", "time_underflow",
                              "v_subnormal", "time_subnormal", "v_overflow_numpy"])
def test_hurst_ratio_outside_the_float_range_is_finite(args):
    # finite inputs whose ratio leaves the normal range (inf, 0 or a subnormal)
    # take the log difference: the estimate is finite and within 4 ulps of
    # the 40-digit value, with no arithmetic warning, numpy scalars included
    v_t, v_s, t, s = (mpmath.mpf(a) for a in args)
    with mpmath.workdps(40):
        want = mpmath.log(v_t / v_s) / (2 * mpmath.log(t / s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "Hurst estimate", UserWarning)  # Ĥ ∉ (0, 1)
        got = estimate_hurst(*args)
    assert math.isfinite(got)
    assert abs(got - float(want)) <= 4 * math.ulp(float(want))


def test_hurst_in_range_ratio_is_the_ratio_form_bitwise():
    # inputs whose ratios are normal floats keep log(v_t/v_s)/(2 log(t/s))
    # bit for bit, as the harness's hurst_median digests pin
    rng = np.random.default_rng(31)
    for v_t, v_s, t, s in rng.lognormal(0.0, 3.0, size=(2000, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = estimate_hurst(v_t, v_s, t, s)
        assert got == math.log(v_t / v_s) / (2.0 * math.log(t / s))


def test_estimate_result_validation():
    with pytest.raises(ValueError):
        EstimateResult(value=1.0, normalizer=0.0, variant="exact", bias_exact=0.0)
    d = EstimateResult(value=2.0, normalizer=4.0, variant="v1",
                       bias_exact=-0.01).as_dict()
    assert d == {"value": 2.0, "normalizer": 4.0, "variant": "v1",
                 "bias_exact": -0.01}


def test_normalized_error_equals_normalized_statistic():
    # (Ĉ/C − 1)·E[V]/√Var V and (V − E[V])/√Var V are the same number for
    # every sample, not merely in distribution: the estimator is a linear
    # rescaling of V. Check the identity on simulated values.
    ell, n, c = 3, 16, 0.7
    spec = SampleSpec(target=SingleEll(ell, c), grid=LineGrid(n),
                      seed=3202, replications=200)
    v = batch_quadratic_variation(spec, 0, 200)
    gram = increment_gram_fl(ell, c, LineGrid(n))
    mean = exact_mean_vnl(ell, c, n)
    sd = math.sqrt(exact_var_vnl(gram))
    ratio = np.array([estimate_cl(x, ell, n).value for x in v]) / c
    assert_allclose((ratio - 1.0) * mean / sd, (v - mean) / sd, rtol=1e-12)
