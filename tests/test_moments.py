"""Exact moments, limit cumulants, regime asymptotics, estimator bias."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphereqv.covariance import (
    IncrementGram,
    LineGrid,
    increment_gram_fl,
    increment_row_fl,
)
from sphereqv.moments import (
    MomentReport,
    RegimeTag,
    asymptotic_mean,
    asymptotic_var,
    estimator_bias,
    exact_mean_vnl,
    exact_var_from_row,
    exact_var_vnl,
    fourth_moment_bound,
    fullfield_moment_orders,
    k_ell_constant,
    moment_report,
    nclt_limit_cumulant,
    normalized_cumulant,
    trace_cumulant,
)

RNG = np.random.default_rng(90217)


# ======================================================================
# Exact mean and variance
# ======================================================================

def test_mean_two_increments_closed_form():
    # 2·2·(3/4π)(1 − cos(π/4)) = (3/π)(1 − √2/2)
    assert_allclose(exact_mean_vnl(1, 1.0, 2),
                    3.0 / math.pi * (1.0 - math.sqrt(2) / 2), rtol=1e-15)


def test_mean_equals_gram_trace():
    for _ in range(6):
        ell = int(RNG.integers(1, 21))
        n = int(RNG.integers(1, 65))
        c = float(RNG.uniform(0.2, 3.0))
        gram = increment_gram_fl(ell, c, LineGrid(n))
        assert_allclose(exact_mean_vnl(ell, c, n), gram.trace(), rtol=1e-12)


def test_mean_linear_in_spectrum_value():
    assert_allclose(exact_mean_vnl(5, 3.5, 16), 3.5 * exact_mean_vnl(5, 1.0, 16),
                    rtol=1e-15)


def test_single_increment_variance():
    gram = increment_gram_fl(1, 1.0, LineGrid(1))
    # one chi-square increment of variance 3/(2π): Var = 2 σ²
    assert_allclose(exact_var_vnl(gram), 9.0 / (2 * math.pi ** 2), rtol=1e-15)


def test_variance_from_row_matches_dense():
    for _ in range(5):
        ell = int(RNG.integers(1, 21))
        n = int(RNG.integers(2, 65))
        gram = increment_gram_fl(ell, 1.3, LineGrid(n))
        assert_allclose(exact_var_from_row(gram.first_row), exact_var_vnl(gram),
                        rtol=1e-12)


def test_argument_validation():
    with pytest.raises(ValueError):
        exact_mean_vnl(0, 1.0, 4)
    with pytest.raises(ValueError):
        exact_mean_vnl(2, 1.0, 0)
    with pytest.raises(ValueError):
        exact_mean_vnl(1.5, 1.0, 4)


# ======================================================================
# Trace cumulants
# ======================================================================

def test_trace_cumulant_matches_matrix_powers():
    sig = increment_gram_fl(3, 0.9, LineGrid(12)).sigma
    assert trace_cumulant(sig, 2) == exact_var_vnl(sig)
    assert_allclose(trace_cumulant(sig, 3), 8.0 * np.trace(sig @ sig @ sig),
                    rtol=1e-12)
    assert_allclose(trace_cumulant(sig, 4), 48.0 * np.trace(sig @ sig @ sig @ sig),
                    rtol=1e-12)


def test_trace_cumulant_accepts_gram_or_array():
    gram = increment_gram_fl(2, 1.0, LineGrid(8))
    assert trace_cumulant(gram, 3) == trace_cumulant(gram.sigma, 3)


def test_gram_decomposes_once_and_arrays_every_call(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))

    def cumulants(make):
        return [trace_cumulant(make(), p) for p in (3, 4, 5)] + [fourth_moment_bound(make())]

    for ell, n, rank in ((3, 64, 4), (6, 16, 16)):  # factor path, then dense
        fresh = cumulants(lambda: increment_gram_fl(ell, 1.1, LineGrid(n)))  # a gram per value
        gram = increment_gram_fl(ell, 1.1, LineGrid(n))
        calls.clear()
        assert cumulants(lambda: gram) == fresh and cumulants(lambda: gram) == fresh
        assert calls == [(rank, rank)]
        assert not gram.eigenvalues().flags.writeable
    sigma = increment_gram_fl(6, 1.1, LineGrid(16)).sigma
    calls.clear()
    assert trace_cumulant(sigma, 3) == trace_cumulant(sigma, 3)
    assert calls == [(16, 16), (16, 16)]


def test_trace_cumulant_order_bounds():
    sig = np.eye(3)
    for bad in (1, 9, 2.5):
        with pytest.raises(ValueError):
            trace_cumulant(sig, bad)


def test_normalized_cumulant_scale_invariant():
    sig = increment_gram_fl(4, 1.0, LineGrid(10)).sigma
    assert_allclose(normalized_cumulant(5.0 * sig, 3), normalized_cumulant(sig, 3),
                    rtol=1e-13)
    with pytest.raises(ValueError):
        normalized_cumulant(np.zeros((2, 2)), 3)


def test_chi_square_pins():
    # one increment: V is σ·χ²(1); κ₃/κ₂^{3/2} = 2√2 and √(κ₄/6κ₂²) = √2
    sig = np.array([[0.73]])
    assert_allclose(normalized_cumulant(sig, 3), 2 * math.sqrt(2), rtol=1e-14)
    assert_allclose(fourth_moment_bound(sig), math.sqrt(2), rtol=1e-14)


def test_fourth_moment_bound_shrinks_along_matched_growth():
    b64 = fourth_moment_bound(increment_gram_fl(64, 1.0, LineGrid(64)))
    b256 = fourth_moment_bound(increment_gram_fl(256, 1.0, LineGrid(256)))
    assert b256 < b64 < math.sqrt(2)


# ======================================================================
# Factor path: power sums from the (l+1)-sized Gram of the increment factor
# ======================================================================

def _mp_toeplitz_cumulants(ell, c, n):
    """Mean and κ2..κ4 of V from the dense Toeplitz Gram in 40-digit arithmetic."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    h = mp.pi / (2 * n)
    a = mp.mpf(c) * (2 * ell + 1) / (4 * mp.pi)
    p = [mp.legendre(ell, mp.cos(k * h)) for k in range(n + 1)]
    row = [2 * a * (p[0] - p[1])] + [a * (2 * p[k] - p[k - 1] - p[k + 1])
                                     for k in range(1, n)]
    sig = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            sig[i, j] = row[abs(i - j)]
    sq = sig * sig
    tr2 = sum(sq[i, i] for i in range(n))
    tr3 = sum(sq[i, j] * sig[j, i] for i in range(n) for j in range(n))
    tr4 = sum(sq[i, j] ** 2 for i in range(n) for j in range(n))
    return float(n * row[0]), {2: float(2 * tr2), 3: float(8 * tr3),
                               4: float(48 * tr4)}


def test_factor_cumulants_match_high_precision():
    mean, want = _mp_toeplitz_cumulants(3, 1.0, 64)
    gram = increment_gram_fl(3, 1.0, LineGrid(64))
    assert gram.factor.shape == (4, 64)
    assert_allclose(exact_var_vnl(gram), want[2], rtol=1e-13)
    for p in (2, 3, 4):
        assert_allclose(trace_cumulant(gram, p), want[p], rtol=1e-13)
    assert_allclose(gram.trace(), mean, rtol=1e-13)


def test_factor_path_matches_dense_on_random_cells():
    rng = np.random.default_rng(51177)
    cells = [(int(ell), int(rng.integers(8 * (ell + 1), 200)))
             for ell in rng.integers(1, 20, size=10)] + [(1, 16), (7, 64)]
    for ell, n in cells:
        c = float(rng.uniform(0.2, 3.0))
        gram = increment_gram_fl(ell, c, LineGrid(n))
        assert gram.factor.shape == (ell + 1, n)
        sig = gram.sigma
        assert_allclose(exact_var_vnl(gram), exact_var_vnl(sig), rtol=1e-12)
        for p in range(3, 9):
            assert_allclose(trace_cumulant(gram, p), trace_cumulant(sig, p),
                            rtol=1e-12)
        assert_allclose(fourth_moment_bound(gram), fourth_moment_bound(sig),
                        rtol=1e-12)


def test_moment_report_matches_dense_cumulants():
    rep = moment_report(5, 0.7, 300, p_max=8)
    sig = increment_gram_fl(5, 0.7, LineGrid(300)).sigma
    var = exact_var_vnl(sig)
    assert_allclose(rep.variance, var, rtol=1e-12)
    for p in range(3, 9):
        assert_allclose(rep.cumulants[p - 2],
                        trace_cumulant(sig, p) / var ** (p / 2.0), rtol=1e-12)


def test_factor_path_never_builds_dense_matrix(monkeypatch):
    import sphereqv.covariance as cov

    def refuse(*_):
        raise AssertionError("dense N×N matrix built")

    monkeypatch.setattr(cov, "toeplitz", refuse)
    gram = increment_gram_fl(8, 0.5, LineGrid(20000))
    gram.first_row, gram.trace()
    exact_var_vnl(gram), normalized_cumulant(gram, 3), fourth_moment_bound(gram)
    rep = moment_report(8, 0.5, 20000, p_max=6)
    assert all(np.isfinite(rep.cumulants))


# ======================================================================
# Degree-profile constants
# ======================================================================

def test_k_constant_degree_one_closed_forms():
    # g(x) = cos(πx/2): ∫g² = 1/2 and 2∫(1−x)g² = 1/2 + 2/π²
    assert_allclose(k_ell_constant(1, 64), 9 * math.pi ** 2 / 512, rtol=1e-12)
    want = (3 / (4 * math.pi)) ** 2 * (math.pi ** 4 / 16) * (0.5 + 2 / math.pi ** 2)
    assert_allclose(k_ell_constant(1, 64, lag_weighted=True), want, rtol=1e-12)


def test_k_constant_quadrature_converged():
    assert_allclose(k_ell_constant(4, 64), k_ell_constant(4, 128), rtol=1e-11)


def test_k_constant_warns_on_sparse_nodes():
    with pytest.warns(UserWarning):
        k_ell_constant(12, 40)


def test_weighted_k_constant_is_variance_limit():
    # N² Var/(2 c²) at large N approaches the lag-weighted constant
    kw = k_ell_constant(4, 200, lag_weighted=True)
    n = 4096
    row = increment_row_fl(4, 1.0, LineGrid(n))
    assert_allclose(exact_var_from_row(row) * n * n / 2.0, kw, rtol=1e-5)


# ======================================================================
# Limiting cumulants at fixed degree
# ======================================================================

def test_limit_cumulants_degree_one_closed_forms():
    # κ₃ = 8(1/4 + 3/π²)/(1 + 4/π²)^{3/2}, κ₄ from the matching J₄ integral
    j2 = 0.5 + 2 / math.pi ** 2
    j3 = 0.25 + 3 / math.pi ** 2
    want3 = 8 * j3 / (2 * j2) ** 1.5
    assert_allclose(nclt_limit_cumulant(1, 3, 48), want3, rtol=1e-10)
    assert_allclose(nclt_limit_cumulant(1, 4, 40), 10.92541502, rtol=1e-7)


def test_limit_cumulant_rejects_other_orders():
    with pytest.raises(ValueError):
        nclt_limit_cumulant(1, 2, 32)
    with pytest.raises(ValueError):
        nclt_limit_cumulant(1, 5, 32)
    with pytest.warns(UserWarning):
        nclt_limit_cumulant(8, 3, 20)


def test_finite_grids_approach_limit_cumulant():
    lim = nclt_limit_cumulant(1, 3, 48)
    gaps = []
    for n in (64, 128, 256):
        gram = increment_gram_fl(1, 1.0, LineGrid(n))
        gaps.append(abs(normalized_cumulant(gram, 3) - lim))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-5


# ======================================================================
# Regime asymptotics
# ======================================================================

def test_regime_tag_validation():
    assert RegimeTag.ell_comparable(0.5).c == 0.5
    with pytest.raises(ValueError):
        RegimeTag.ell_comparable(0.0)
    with pytest.raises(ValueError):
        RegimeTag("ell_faster", c=1.0)
    with pytest.raises(ValueError):
        RegimeTag("bogus")
    with pytest.raises(TypeError):
        asymptotic_mean("fixed_ell", 2, 1.0, 8)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), 10 ** 400, "x", True, None])
def test_comparable_regime_needs_a_finite_positive_ratio(c):
    # an int above the float range would overflow c·N in the coupling check
    with pytest.raises(ValueError, match="finite c > 0"):
        RegimeTag("ell_comparable", c)


def test_comparable_regime_stores_its_ratio_as_a_float():
    c = RegimeTag("ell_comparable", 3).c
    assert c == 3.0 and isinstance(c, float)


def test_fixed_degree_mean_ratio_converges():
    reg = RegimeTag.fixed_ell()
    gaps = [abs(exact_mean_vnl(8, 1.0, n) / asymptotic_mean(reg, 8, 1.0, n) - 1)
            for n in (128, 512, 4096)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_degree_outruns_grid_mean_ratio():
    reg = RegimeTag.ell_faster()
    ratio = exact_mean_vnl(100000, 1.0, 8) / asymptotic_mean(reg, 100000, 1.0, 8)
    assert abs(ratio - 1) < 0.01


def test_matched_growth_mean_ratio():
    reg = RegimeTag.ell_comparable(1.0)
    n = 1024
    ratio = exact_mean_vnl(n, 1.0, n) / asymptotic_mean(reg, n, 1.0, n)
    assert abs(ratio - 1) < 0.005


def test_grid_outruns_degree_mean_ratio():
    # leading form carries l², so the finite-degree ratio sits near 1 + 1/l
    reg = RegimeTag.ell_slower()
    ratio = exact_mean_vnl(512, 1.0, 10 ** 6) / asymptotic_mean(reg, 512, 1.0, 10 ** 6)
    assert abs(ratio - (1 + 1 / 512)) < 1e-4


def test_asymptotic_var_formulas():
    c, n = 1.7, 256
    assert_allclose(asymptotic_var(RegimeTag.fixed_ell(), 3, c, n),
                    2 * k_ell_constant(3, 64) * c ** 2 / n ** 2, rtol=1e-13)
    assert_allclose(asymptotic_var(RegimeTag.ell_faster(), 300, c, n),
                    2 / math.pi ** 4 * c ** 2 * 300 * n ** 2 * math.log(n),
                    rtol=1e-15)
    assert_allclose(asymptotic_var(RegimeTag.ell_comparable(1.0), n, c, n),
                    2 / math.pi ** 4 * c ** 2 * n ** 3 * math.log(n), rtol=1e-15)
    assert_allclose(asymptotic_var(RegimeTag.ell_slower(), 16, c, n),
                    math.pi / 128 * c ** 2 * 16 ** 5 * math.log(n) / n ** 2,
                    rtol=1e-15)


def test_fullfield_orders():
    m, v = fullfield_moment_orders(0.2, 100)
    assert_allclose(m, 100 ** 0.8, rtol=1e-15)
    assert_allclose(v, 100 ** 0.6 * math.log(100), rtol=1e-15)
    for bad in (0.0, 0.5, -0.1):
        with pytest.raises(ValueError):
            fullfield_moment_orders(bad, 100)


# ======================================================================
# Estimator bias
# ======================================================================

def test_bias_variant_one():
    from sphereqv.specfun import legendre_p
    assert abs(estimator_bias(1, 1, 1, RegimeTag.ell_faster())) < 1e-15
    got = estimator_bias(1, 9, 16, RegimeTag.ell_faster())
    assert_allclose(got, -legendre_p(9, math.cos(math.pi / 32)), rtol=1e-15)


def test_bias_variant_two_small_at_matched_growth():
    bias = estimator_bias(2, 256, 256, RegimeTag.ell_comparable(1.0))
    assert abs(bias) < 0.01


def test_bias_variant_three_small_when_grid_outruns_degree():
    bias = estimator_bias(3, 8, 512, RegimeTag.ell_slower())
    assert abs(bias) < 1e-3


def test_bias_variant_regime_pairing_enforced():
    with pytest.raises(ValueError):
        estimator_bias(1, 4, 16, RegimeTag.ell_slower())
    with pytest.raises(ValueError):
        estimator_bias(3, 4, 16, RegimeTag.ell_faster())
    with pytest.raises(ValueError):
        estimator_bias(4, 4, 16, RegimeTag.ell_faster())


# ======================================================================
# Report builder
# ======================================================================

def test_moment_report_consistency():
    rep = moment_report(3, 1.4, 24, p_max=4)
    gram = increment_gram_fl(3, 1.4, LineGrid(24))
    assert_allclose(rep.mean, exact_mean_vnl(3, 1.4, 24), rtol=1e-14)
    assert_allclose(rep.variance, exact_var_vnl(gram), rtol=1e-14)
    assert rep.cumulants[0] == 1.0
    assert_allclose(rep.cumulants[1], normalized_cumulant(gram, 3), rtol=1e-12)
    assert_allclose(rep.cumulants[2], normalized_cumulant(gram, 4), rtol=1e-12)
    assert rep.regime.kind == "fixed_ell"


def test_moment_report_second_order_only():
    rep = moment_report(2, 1.0, 8, p_max=2)
    assert rep.cumulants == (1.0,)
    with pytest.raises(ValueError):
        moment_report(2, 1.0, 8, p_max=9)


def test_moment_report_validation():
    with pytest.raises(ValueError):
        MomentReport(mean=1.0, variance=-0.1, cumulants=(1.0,),
                     regime=RegimeTag.fixed_ell())
    with pytest.raises(ValueError):
        MomentReport(mean=1.0, variance=0.5, cumulants=(1.01,),
                     regime=RegimeTag.fixed_ell())
