"""Exact moments, limit cumulants, regime asymptotics, estimator bias."""

import math
import time

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphereqv.covariance import (
    LineGrid,
    PowerSpectrum,
    increment_gram_fl,
    increment_row_fl,
)
from sphereqv.cli import main
from sphereqv.specfun import bessel_j
from sphereqv.moments import (
    MAX_DEGREE,
    RegimeTag,
    _degree_error,
    _mean_v,
    _one_minus_j0,
    asymptotic_mean,
    asymptotic_var,
    estimator_bias,
    exact_mean_vnl,
    exact_var_from_row,
    exact_var_vnl,
    fourth_moment_bound,
    fullfield_moment_orders,
    k_ell_constant,
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
    gram = increment_gram_fl(9, 1.0, LineGrid(8))  # l+1 > N: dense Σ
    assert trace_cumulant(gram, 3) == trace_cumulant(gram.sigma, 3)


def test_gram_decomposes_once_and_arrays_every_call(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))

    def cumulants(make):
        return [trace_cumulant(make(), p) for p in (3, 4, 5)] + [fourth_moment_bound(make())]

    for ell, n, rank in ((3, 64, 4), (20, 16, 16)):  # core path, then dense
        fresh = cumulants(lambda: increment_gram_fl(ell, 1.1, LineGrid(n)))  # a gram per value
        gram = increment_gram_fl(ell, 1.1, LineGrid(n))
        calls.clear()
        assert cumulants(lambda: gram) == fresh and cumulants(lambda: gram) == fresh
        assert calls == [(rank, rank)]
        assert not gram.eigenvalues().flags.writeable
    sigma = increment_gram_fl(20, 1.1, LineGrid(16)).sigma
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
# Core path: power sums from the (l+1)×(l+1) circle core (the test_factor_*
# names are kept from the increment factor this path replaced)
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
    for ell, n in ((3, 64), (1, 16), (7, 40), (15, 16)):
        mean, want = _mp_toeplitz_cumulants(ell, 1.0, n)
        gram = increment_gram_fl(ell, 1.0, LineGrid(n))
        assert gram.core.shape == (ell + 1, ell + 1)
        assert_allclose(exact_var_vnl(gram), want[2], rtol=1e-13)
        for p in (2, 3, 4):
            assert_allclose(trace_cumulant(gram, p), want[p], rtol=1e-13)
        # tr(core) sums positive terms: no 1 − P_l cancellation
        assert_allclose(gram.trace(), mean, rtol=1e-15)


def test_factor_path_matches_dense_on_random_cells():
    rng = np.random.default_rng(51177)
    cells = [(int(ell), int(rng.integers(ell + 1, 200)))
             for ell in rng.integers(1, 20, size=10)] + [(1, 16), (7, 64), (63, 512),
                                                         (255, 512)]
    for ell, n in cells:
        c = float(rng.uniform(0.2, 3.0))
        gram = increment_gram_fl(ell, c, LineGrid(n))
        assert gram.core.shape == (ell + 1, ell + 1)
        sig = gram.sigma
        assert_allclose(exact_var_vnl(gram), exact_var_vnl(sig), rtol=1e-12)
        for p in range(3, 9):
            assert_allclose(trace_cumulant(gram, p), trace_cumulant(sig, p),
                            rtol=1e-12)
        assert_allclose(fourth_moment_bound(gram), fourth_moment_bound(sig),
                        rtol=1e-12)


def test_moment_report_matches_dense_cumulants():
    # the circle core's standardized cumulants against the dense N×N Gram's
    gram = increment_gram_fl(5, 0.7, LineGrid(300))
    assert gram.core is not None
    sig = gram.sigma
    var = exact_var_vnl(sig)
    assert_allclose(exact_var_vnl(gram), var, rtol=1e-12)
    for p in range(3, 9):
        assert_allclose(normalized_cumulant(gram, p),
                        trace_cumulant(sig, p) / var ** (p / 2.0), rtol=1e-12)


def test_factor_path_never_builds_dense_matrix(monkeypatch, capsys):
    import sphereqv.covariance as cov

    def refuse(*_):
        raise AssertionError("dense N×N matrix built")

    monkeypatch.setattr(cov, "toeplitz", refuse)
    gram = increment_gram_fl(8, 0.5, LineGrid(20000))
    gram.first_row, gram.trace()
    exact_var_vnl(gram), normalized_cumulant(gram, 3), fourth_moment_bound(gram)
    table = _moments_table(capsys, "--ell", "8", "--n", "20000", "--cl", "0.5",
                           "--p-max", "6")
    assert "normalized_k6" in table and all(map(math.isfinite, table.values()))


def test_core_path_builds_no_harmonic_table(monkeypatch):
    import sphereqv.simulate as simulate
    import sphereqv.specfun as specfun

    def refuse(*_):
        raise AssertionError("harmonic table built")

    for owner, name in ((simulate, "_meridian_basis"), (simulate, "harmonic_meridian_table"),
                        (specfun, "harmonic_meridian_table")):
        monkeypatch.setattr(owner, name, refuse)
    for ell, n in ((1, 2), (8, 4096), (255, 256), (1023, 4096)):
        gram = increment_gram_fl(ell, 1.0, LineGrid(n))
        assert gram.core.shape == (ell + 1, ell + 1)
        trace_cumulant(gram, 4)


# ======================================================================
# Degree-profile constants
# ======================================================================

def test_k_constant_degree_one_closed_forms():
    # g(x) = cos(πx/2): ∫g² = 1/2 and 2∫(1−x)g² = 1/2 + 2/π²
    assert_allclose(k_ell_constant(1, 64), 9 * math.pi ** 2 / 512, rtol=1e-12)
    want = (3 / (4 * math.pi)) ** 2 * (math.pi ** 4 / 16) * (0.5 + 2 / math.pi ** 2)
    assert_allclose(k_ell_constant(1, 64, lag_weighted=True), want, rtol=1e-12)


def _mp_k_constants(ell):
    """Both K_l forms in 40-digit arithmetic from g = −d²/dθ² P_l(cos θ) at
    θ = πx/2, by the chain rule on P_l's exact power series, with no use of
    Szegő's expansion: (unweighted ∫₀¹g², lag-weighted 2∫₀¹(1−x)g²)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        # P_l(u) = 2^−l Σ_k (−1)^k C(l, k) C(2l−2k, l) u^(l−2k), ascending powers
        c = [mp.mpf(0)] * (ell + 1)
        for k in range(ell // 2 + 1):
            c[ell - 2 * k] = ((-1) ** k * mp.binomial(ell, k)
                              * mp.binomial(2 * ell - 2 * k, ell) / mp.mpf(2) ** ell)
        d1 = [i * c[i] for i in range(1, ell + 1)]
        d2 = [i * d1[i] for i in range(1, ell)]

        def g(x):  # −d²/dθ² P_l(cos θ) = cos θ P'_l(cos θ) − sin²θ P''_l(cos θ)
            t = mp.pi * x / 2
            u = mp.cos(t)
            return (u * mp.polyval(d1[::-1], u)
                    - mp.sin(t) ** 2 * (mp.polyval(d2[::-1], u) if d2 else 0))

        pts = mp.linspace(0, 1, ell + 2)
        scale = ((2 * ell + 1) / (4 * mp.pi)) ** 2 * mp.pi ** 4 / 16
        return (float(scale * mp.quad(lambda x: g(x) ** 2, pts)),
                float(scale * 2 * mp.quad(lambda x: (1 - x) * g(x) ** 2, pts)))


@pytest.mark.parametrize("ell", [1, 3, 8, 20])
def test_k_constant_matches_high_precision(ell):
    plain, weighted = _mp_k_constants(ell)
    assert_allclose(k_ell_constant(ell), plain, rtol=1e-14)
    assert_allclose(k_ell_constant(ell, lag_weighted=True), weighted, rtol=1e-14)


def test_k_constant_ignores_quad_nodes():
    assert k_ell_constant(12, 40) == k_ell_constant(12)
    assert k_ell_constant(4, 64, True) == k_ell_constant(4, lag_weighted=True)


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


def _tensor_limit_cumulant(ell, p, nodes):
    """Frozen reference: κ_p from tensor Gauss–Legendre quadrature of the
    cyclic integrals J_p over [0,1]^p (p ∈ {3, 4}), the method the
    eigenproblem replaced. The profile g is built from numpy's Legendre
    series, independent of sphereqv.specfun."""
    leg = np.polynomial.legendre.Legendre.basis(ell)
    dleg = leg.deriv()
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w

    def g(arr):
        u = np.cos(0.5 * math.pi * arr)
        return ell * (ell + 1) * leg(u) - dleg(u) * u

    # J2 over the square in gap form: 2 ∫₀¹ (1−u) g(u)² du
    j2 = 2.0 * float(np.sum(w * (1.0 - x) * g(x) ** 2))
    if p == 3:
        # ordered gaps (u, v), u+v ≤ 1, 3! orderings; simplex → square by
        # u = a, v = (1−a)b with Jacobian (1−a); base point gives (1−u−v)
        a, b = x[:, None], x[None, :]
        v = (1.0 - a) * b
        integrand = (6.0 * (1.0 - a) ** 2 * (1.0 - b)
                     * g(np.broadcast_to(a, v.shape)) * g(v) * g(a + v))
        jp = float(np.sum(w[:, None] * w[None, :] * integrand))
    else:
        # ordered gaps (u, v, t), three dihedral classes of 8 cycles;
        # simplex → cube by u = a, v = (1−a)b, t = (1−a)(1−b)c
        a, b, c = x[:, None, None], x[None, :, None], x[None, None, :]
        u = np.broadcast_to(a, (x.size,) * 3)
        v = np.broadcast_to((1.0 - a) * b, u.shape)
        t = (1.0 - a) * (1.0 - b) * c
        gu, gv, gt = g(u), g(v), g(t)
        guv, gvt, guvt = g(u + v), g(v + t), g(u + v + t)
        cycles = gu * gv * gt * guvt + gu * gvt * gt * guv + guv * gv * gvt * guvt
        weight = 8.0 * (1.0 - a) ** 3 * (1.0 - b) ** 2 * (1.0 - c)
        jp = float(np.sum(w[:, None, None] * w[None, :, None] * w[None, None, :]
                          * weight * cycles))
    return 2.0 ** (p - 1) * math.factorial(p - 1) * jp / (2.0 * j2) ** (p / 2.0)


@pytest.mark.parametrize("ell, p", [(1, 3), (2, 3), (4, 3), (8, 3),
                                    (1, 4), (2, 4), (4, 4)])
def test_limit_cumulant_matches_tensor_quadrature(ell, p):
    # the tensor's p = 4 cost grows as nodes³, so l = 8 is left out there
    nodes = max(64, 10 * ell)
    assert_allclose(nclt_limit_cumulant(ell, p, nodes),
                    _tensor_limit_cumulant(ell, p, nodes), rtol=1e-10)


def test_limit_cumulants_degree_two_are_chi_square_two():
    # g is rank two at l = 2 with equal eigenvalues: the limit is a
    # standardized χ²₂, κ₃ = 2 and κ₄ = 6
    assert_allclose(nclt_limit_cumulant(2, 3, 64), 2.0, rtol=1e-13)
    assert_allclose(nclt_limit_cumulant(2, 4, 64), 6.0, rtol=1e-13)


@pytest.mark.parametrize("p", [3, 4])
def test_core_cumulants_approach_the_limit_as_n_squared(p):
    # the circle core tends to the limit core as N → ∞, its κ_p as N⁻²:
    # 16² = 256 times closer from N = 4096 to 65536
    lim = nclt_limit_cumulant(8, p)
    gaps = [abs(normalized_cumulant(increment_gram_fl(8, 1.0, LineGrid(n)), p) - lim)
            for n in (4096, 65536)]
    assert gaps[1] * 100 <= gaps[0]


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


def test_one_minus_j0_matches_50_digits():
    # x = πc/2 for c in [1e-12, 2]: the power series below x = 1, where
    # 1 − J₀ as written cancels, and that difference, bitwise, from there up
    with mpmath.workdps(50):
        for c in np.geomspace(1e-12, 2.0, 241):
            x = 0.5 * math.pi * float(c)
            want = 1 - mpmath.besselj(0, mpmath.mpf(x))
            assert abs(_one_minus_j0(x) - want) <= 2e-15 * want, c
    for c in (2 / math.pi, 1.0, 2.0):
        x = 0.5 * math.pi * c
        assert _one_minus_j0(x) == 1.0 - bessel_j(0, x)


def test_matched_growth_mean_keeps_its_digits_at_a_small_ratio():
    # 1 − J₀(πc/2) read 0 at c = 1e-8; the stand-in is (πc/4)² there
    lead = 2.0 * 64 * 1.5 * 17 / (4.0 * math.pi)
    got = asymptotic_mean(RegimeTag.ell_comparable(1e-8), 8, 1.5, 64)
    assert got == pytest.approx(lead * (0.25 * math.pi * 1e-8) ** 2, rel=1e-15)


def test_matched_growth_mean_refuses_a_stand_in_below_normal():
    # at c = 1e-170 (πc/4)² underflows to 0, at 1e-160 it is subnormal: a
    # raised FloatingPointError (the arithmetic fails on a valid c), not a
    # mean that mean_ratio divides by (or reads inf
    # over); the check is on the stand-in, so c_l = 0 still gives a mean of 0
    # at a c whose stand-in is normal
    for c, stand_in in ((1e-170, 0.0), (1e-160, 6.17e-321)):
        tiny = RegimeTag.ell_comparable(c)
        assert _one_minus_j0(0.5 * math.pi * tiny.c) == stand_in
        for c_ell in (1.0, 0.0):
            with pytest.raises(FloatingPointError,
                               match=r"stand-in 1 − J₀\(πc/2\) degenerate"):
                asymptotic_mean(tiny, 3, c_ell, 4)
    assert asymptotic_mean(RegimeTag.ell_comparable(2e-154), 3, 0.0, 4) == 0.0
    assert asymptotic_mean(RegimeTag.ell_comparable(2e-154), 3, 1.0, 4) > 0.0


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
# Spectrum-level mean and the degree bound
# ======================================================================

def _mean_50_digits(spectrum, factor, n):
    # 2N·factor Σ C_l (2l+1)(1 − P_l(cos(π/2N))), P_l by its recurrence at 50 digits
    with mpmath.workdps(50):
        x = mpmath.cos(mpmath.pi / (2 * n))
        p_prev, p, total = mpmath.mpf(1), x, mpmath.mpf(0)
        for ell in range(1, spectrum.l_max + 1):
            if ell >= spectrum.l_min:
                total += spectrum.cl(ell) * (2 * ell + 1) * (1 - p)
            p_prev, p = p, ((2 * ell + 1) * x * p - ell * p_prev) / (ell + 1)
        return 2 * n * factor * total


@pytest.mark.parametrize("spectrum, n", [
    (PowerSpectrum.single(8, 1.0), 4096),
    (PowerSpectrum.single(1, 1.0), 10 ** 6),
    (PowerSpectrum.single(3, 1.0), 10 ** 7),
    (PowerSpectrum.single(3, 1.0), 10 ** 9),
    (PowerSpectrum.single(512, 1.0), 1024),
    (PowerSpectrum.power_law(2.0, 0.3, 300), 1000),
], ids=["8-4096", "1-1e6", "3-1e7", "3-1e9", "512-1024", "power_law-1000"])
def test_mean_recurrence_matches_50_digits(spectrum, n):
    # the scale checks' mean, free of the cancellation in 1 − P_l(cos(π/2N))
    # that zeroes exact_mean_vnl at (3, 10⁹)
    factor = 1.0 / (4.0 * math.pi)
    want = _mean_50_digits(spectrum, factor, n)
    assert abs(_mean_v(spectrum, factor, n) - want) <= 1e-13 * want


def test_degree_bound_names_itself():
    assert MAX_DEGREE == 2 ** 21 and _degree_error(MAX_DEGREE) is None
    why = _degree_error(MAX_DEGREE + 1)
    assert why.startswith("degree 2097153 exceeds 2097152 (2^21)") and "\n" not in why


# ======================================================================
# Estimator bias
# ======================================================================

def test_bias_variant_one():
    from sphereqv.specfun import legendre_p
    assert abs(estimator_bias(1, 1, 1)) < 1e-15
    got = estimator_bias(1, 9, 16)
    assert_allclose(got, -legendre_p(9, math.cos(math.pi / 32)), rtol=1e-15)


def test_bias_variant_two_small_at_matched_growth():
    bias = estimator_bias(2, 256, 256, 1.0)
    assert abs(bias) < 0.01


def test_bias_variant_three_small_when_grid_outruns_degree():
    bias = estimator_bias(3, 8, 512)
    assert abs(bias) < 1e-3


def test_bias_variant_regime_pairing_enforced():
    # the variant fixes its regime, so only variant 2 (ell_comparable) reads c
    for variant in (1, 3):
        with pytest.raises(ValueError, match="carries no ratio c, got 0.5"):
            estimator_bias(variant, 4, 16, 0.5)
    with pytest.raises(ValueError, match="ell_comparable requires a finite c > 0, got None"):
        estimator_bias(2, 4, 16)
    with pytest.raises(ValueError, match="variant must be 1, 2 or 3, got 4"):
        estimator_bias(4, 4, 16)


def test_exact_mean_refuses_a_degree_beyond_the_bound_at_once():
    # the degree line is raised before any of the O(l) recurrence steps
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^degree 2097153 exceeds 2097152 \(2\^21\)"):
        exact_mean_vnl(2 ** 21 + 1, 1.0, 1)
    assert time.perf_counter() - start < 0.1


# ======================================================================
# The moments command's report
# ======================================================================

def _moments_table(capsys, *argv):
    assert main(["moments", *argv]) == 0
    return {key: float(val) for key, val in
            (line.split() for line in capsys.readouterr().out.splitlines())}


def test_moment_report_consistency(capsys):
    # each printed number is the library's value, bitwise after %.17g, on
    # the circle-core path (3, 24) and the dense path (40, 16)
    for ell, n in ((3, 24), (40, 16)):
        table = _moments_table(capsys, "--ell", str(ell), "--n", str(n), "--cl", "1.4")
        gram = increment_gram_fl(ell, 1.4, LineGrid(n))
        assert (gram.core is None) == (ell >= n)
        want = {"mean": exact_mean_vnl(ell, 1.4, n), "variance": exact_var_vnl(gram),
                "normalized_k3": normalized_cumulant(gram, 3),
                "normalized_k4": normalized_cumulant(gram, 4),
                "fourth_moment_bound": fourth_moment_bound(gram)}
        assert table == {key: float("%.17g" % val) for key, val in want.items()}


def test_moment_report_second_order_only(capsys):
    table = _moments_table(capsys, "--ell", "2", "--n", "8", "--cl", "1", "--p-max", "2")
    assert set(table) == {"mean", "variance", "fourth_moment_bound"}
    with pytest.raises(SystemExit) as exit_info:
        main(["moments", "--ell", "2", "--n", "8", "--cl", "1", "--p-max", "9"])
    assert exit_info.value.code == 2
