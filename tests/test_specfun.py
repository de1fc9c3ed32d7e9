"""Special-function layer checked against scipy.special and mpmath references."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special

from sphereqv import specfun
from sphereqv.covariance import LineGrid
from sphereqv.specfun import (
    bessel_j,
    harmonic_meridian_table,
    legendre_p,
)

RNG = np.random.default_rng(7121)


# ======================================================================
# Legendre polynomials
# ======================================================================

@pytest.mark.parametrize("ell", [0, 1, 2, 7, 40, 150])
def test_legendre_p_matches_reference(ell):
    x = np.concatenate([RNG.uniform(-1, 1, 200), [-1.0, 0.0, 1.0]])
    assert_allclose(legendre_p(ell, x), special.eval_legendre(ell, x),
                    rtol=0, atol=5e-13)


def test_legendre_p_scalar_and_array_agree():
    want = _frozen_legendre_p(5, np.array([0.3]))[0]
    # a Python float, a numpy scalar and a 0-d array take the float sweep
    for x in (0.3, np.float64(0.3), np.array(0.3)):
        got = legendre_p(5, x)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == want.view(np.uint64)


@pytest.mark.parametrize("size", [1, 2, 16, 17])
def test_legendre_p_small_arrays_are_bitwise_the_array_sweep(size):
    # up to 16 values sweep one Python float at a time; 17 take the array sweep
    x = np.concatenate([[-1.0, -0.0, 1.0, 1e-300], RNG.uniform(-1, 1, 13)])[:size]
    for ell in (0, 1, 8, 513):
        got = legendre_p(ell, x.reshape(1, size))
        assert got.shape == (1, size) and got.dtype == np.float64
        _assert_bitwise(got[0], _frozen_legendre_p(ell, x))


def test_legendre_domain_errors():
    with pytest.raises(ValueError):
        legendre_p(3, 1.5)
    with pytest.raises(ValueError):
        legendre_p(-1, 0.5)
    with pytest.raises(ValueError):
        legendre_p(2.5, 0.5)
    with pytest.raises(ValueError):
        legendre_p(3, [-1.0001])
    with pytest.raises(ValueError):
        legendre_p(3, np.nan)
    with pytest.raises(ValueError):
        legendre_p(3, [0.5, np.nan])


# the loop the one Legendre sweep replaced in legendre_p, frozen here as the
# reference it must reproduce bit for bit

def _frozen_legendre_p(ell, xv):
    pm1 = np.ones_like(xv)
    if ell == 0:
        return pm1
    p = xv.copy()
    for l in range(1, ell):
        pm1, p = p, ((2 * l + 1) * xv * p - l * pm1) / (l + 1)
    return p


SWEEP_X = np.concatenate([[-1.0, 0.0, 1.0, -0.5, 0.5, 1e-300],
                          RNG.uniform(-1, 1, 64),
                          np.cos(np.linspace(0, np.pi, 33))])


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 8, 64, 255, 513])
def test_legendre_functions_are_bitwise_the_frozen_loops(ell):
    _assert_bitwise(legendre_p(ell, SWEEP_X), _frozen_legendre_p(ell, SWEEP_X))
    for x in (-1.0, -0.0, 0.0, 1.0, 0.3, 1e-300):
        want = _frozen_legendre_p(ell, np.array([x]))
        _assert_bitwise(np.array([legendre_p(ell, x)]), want)


def test_legendre_p_does_not_alias_its_argument():
    x = np.array([0.1, 0.2])
    legendre_p(1, x)[0] = 5.0
    assert x[0] == 0.1


# ======================================================================
# Normalized meridian harmonics
# ======================================================================

def _reference_lambda(ell, m, theta):
    # N_lm P_l^m(cos θ) with scipy's lpmv (Condon-Shortley phase included);
    # log-space factorial ratio keeps l = 150 finite.
    logn = 0.5 * (np.log((2 * ell + 1) / (4 * np.pi))
                  + special.gammaln(ell - m + 1) - special.gammaln(ell + m + 1))
    return np.exp(logn) * special.lpmv(m, ell, np.cos(theta))


@pytest.mark.parametrize("ell", [0, 1, 3, 8, 25])
def test_harmonic_table_matches_reference(ell):
    theta = RNG.uniform(0.05, np.pi - 0.05, 40)
    table = harmonic_meridian_table(ell, theta)
    assert table.shape == (ell + 1, 40)
    for m in range(ell + 1):
        assert_allclose(table[m], _reference_lambda(ell, m, theta),
                        rtol=0, atol=1e-13)


def test_harmonic_table_high_degree_is_finite():
    theta = np.linspace(1e-3, np.pi - 1e-3, 64)
    table = harmonic_meridian_table(300, theta)
    assert np.isfinite(table).all()
    # spot-check the zonal row where the reference stays well conditioned
    assert_allclose(table[0], _reference_lambda(300, 0, theta), rtol=0, atol=1e-11)


@pytest.mark.parametrize("ell", [1, 4, 11, 60])
def test_harmonic_addition_theorem(ell):
    # along one meridian the two-point sum telescopes to the Legendre kernel
    t1 = RNG.uniform(0.1, np.pi - 0.1, 25)
    t2 = RNG.uniform(0.1, np.pi - 0.1, 25)
    a, b = harmonic_meridian_table(ell, t1), harmonic_meridian_table(ell, t2)
    lhs = a[0] * b[0] + 2.0 * np.einsum("mt,mt->t", a[1:], b[1:])
    rhs = (2 * ell + 1) / (4 * np.pi) * legendre_p(ell, np.cos(t1 - t2))
    # kernel magnitude grows like (2l+1)/4π, so scale the floor with it
    assert_allclose(lhs, rhs, rtol=0, atol=(2 * ell + 1) * 2e-14)


@pytest.mark.parametrize("theta", [
    LineGrid(4).points, LineGrid(256).points, np.arcsin([1 / np.e]),
], ids=["grid_4", "grid_256", "sin_theta_1_over_e"])
def test_addition_theorem_holds_at_the_sweep_bound(theta):
    # Σ_m (2−δ_m0) λ_lm² = (2l+1)/(4π) at the largest degree the sweep
    # accepts; at sin θ = 1/e the sectoral start leaves the normal range first
    ell = specfun._SWEEP_MAX_DEGREE
    lam = harmonic_meridian_table(ell, theta)
    diag = lam[0] ** 2 + 2.0 * np.sum(lam[1:] ** 2, axis=0)
    assert_allclose(diag, (2 * ell + 1) / (4 * np.pi), rtol=1e-10, atol=0)


@pytest.mark.parametrize("ell", [1901, 3000, 10 ** 11])
def test_harmonic_table_refuses_a_degree_beyond_the_sweep_bound(ell):
    # past 1900 the theorem above breaks (555% off at 2048, non-finite from
    # 3988); the refusal comes before any buffer is sized for the degree
    with pytest.raises(ValueError, match=f"^degree {ell} exceeds 1900"):
        harmonic_meridian_table(ell, np.array([0.3]))


def _order_major_table(ell, theta):
    # the order-by-order recurrence the degree-major sweep replaced, frozen
    # here as the reference the sweep must reproduce bit for bit
    ct, st = np.cos(theta), np.sin(theta)
    out = np.empty((ell + 1, theta.size))
    lam_mm = np.full(theta.size, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(ell + 1):
        if m > 0:
            lam_mm = -np.sqrt((2 * m + 1) / (2.0 * m)) * st * lam_mm
        if m == ell:
            out[m] = lam_mm
            break
        lm2, lm1 = lam_mm, np.sqrt(2 * m + 3.0) * ct * lam_mm
        for l in range(m + 2, ell + 1):
            a = np.sqrt((2 * l - 1.0) * (2 * l + 1.0) / ((l - m) * (l + m)))
            b = np.sqrt((2 * l + 1.0) * (l + m - 1) * (l - m - 1)
                        / ((l - m) * (l + m) * (2 * l - 3.0)))
            lm2, lm1 = lm1, a * ct * lm1 - b * lm2
        out[m] = lm1
    return out


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# poles, near-pole points where high sectoral values underflow, interior
POLAR_THETA = np.concatenate([[0.0, 1e-300, 1e-12, 1e-3, 0.02],
                              np.linspace(0.05, np.pi - 0.05, 23),
                              [np.pi - 1e-3, np.pi]])


@pytest.mark.parametrize("ell", [0, 1, 2, 8, 60, 300])
def test_sweep_is_bitwise_the_order_major_recurrence(ell):
    want = _order_major_table(ell, POLAR_THETA)
    _assert_bitwise(harmonic_meridian_table(ell, POLAR_THETA), want)
    # the blocks the samplers consume, each checked before the sweep reuses
    # its buffer
    lo = max(ell - 2, 0)
    for l, lam in enumerate(specfun._meridian_blocks(ell, POLAR_THETA)):
        if l >= lo:
            _assert_bitwise(lam, _order_major_table(l, POLAR_THETA))
    assert l == ell
    if ell == 300:  # the case covers sectoral underflow next to the pole
        assert want[ell, 3] == 0.0 and want[ell, 4] == 0.0


def test_table_column_tiles_are_bitwise_one_sweep(monkeypatch):
    # large grids sweep in column tiles; 63 values per buffer at l = 8 make
    # tiles of 7 points, the last one short
    monkeypatch.setattr(specfun, "_TILE_VALUES", 63)
    _assert_bitwise(harmonic_meridian_table(8, POLAR_THETA),
                    _order_major_table(8, POLAR_THETA))
    assert POLAR_THETA.size % 7


def test_coefficient_blocks_are_bitwise_one_sweep(monkeypatch):
    # 12 coefficients per block make blocks of degrees 2-5 (1+2+3+4 values)
    # and 6-7 (5+6), then one degree each: l = 13 (12 values) fills one,
    # l = 14 (13 values) is beyond the bound
    monkeypatch.setattr(specfun, "_COEF_VALUES", 12)
    sweep = specfun._recurrence_coefficients(14)
    coefs = list(itertools.islice(sweep, 14))
    assert next(sweep, None) is None
    assert [a.size for a, b in coefs] == [b.size for a, b in coefs] == list(range(1, 14))
    blocks = {}
    for l, (a, b) in enumerate(coefs, start=2):
        blocks.setdefault(id(a.base), []).append(l)
    assert sorted(blocks.values()) == [[2, 3, 4, 5], [6, 7]] + [[l] for l in range(8, 15)]
    _assert_bitwise(harmonic_meridian_table(14, POLAR_THETA),
                    _order_major_table(14, POLAR_THETA))
    for l, lam in enumerate(specfun._meridian_blocks(14, POLAR_THETA)):
        _assert_bitwise(lam, _order_major_table(l, POLAR_THETA))
    assert l == 14


# ======================================================================
# Bessel J0 / J2
# ======================================================================

def test_bessel_matches_reference_both_branches():
    # small and large arguments against 40-digit mpmath at the exact binary x
    x = np.concatenate([np.linspace(0.0, 7.999, 400),
                        np.linspace(8.0, 300.0, 600),
                        [1e4, 3e5, 1e6]])
    with mpmath.workdps(40):
        for order in (0, 2):
            want = [float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in x]
            assert_allclose(bessel_j(order, x), want, rtol=0, atol=1e-14)


def test_bessel_scalar_and_errors():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(2, 0.0) == 0.0
    assert isinstance(bessel_j(0, 5.0), float)
    with pytest.raises(ValueError):
        bessel_j(1, 2.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(0, np.nan)
    with pytest.raises(ValueError):
        bessel_j(2, [1.0, np.nan])


def test_bessel_first_zero_bracketed():
    # j_{0,1} = 2.404825557695773; sign change must bracket it tightly
    lo, hi = 2.40482555, 2.40482556
    assert bessel_j(0, lo) > 0.0 > bessel_j(0, hi)



# ======================================================================
# The standard normal CDF
# ======================================================================

def _neighbours(values):
    """Each value with its np.nextafter neighbours, for both signs."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, -values])
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


# erfc(|x|/√2) is 0 where x²/2 > MAXLOG = 709.78..., from |x| ≈ 37.68 up:
# 64 steps of one ulp either side
_NDTR_CUT = math.sqrt(2 * specfun._MAXLOG) + np.arange(-64, 65) * np.spacing(37.68)

NDTR_INPUTS = {
    "normals": np.random.default_rng(11).standard_normal(10 ** 6),
    "uniform_40": np.random.default_rng(12).uniform(-40.0, 40.0, 10 ** 6),
    # the branch points |x|/√2 = √½, 1 and 8
    "branch_points": _neighbours([1.0, math.sqrt(2.0), 8 * math.sqrt(2.0)]),
    "underflow_cut": np.concatenate([_NDTR_CUT, -_NDTR_CUT]),
    "special": np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e300, -1e300]),
}


@pytest.mark.parametrize("x", list(NDTR_INPUTS.values()), ids=list(NDTR_INPUTS))
def test_ndtr_is_bitwise_scipy(x):
    _assert_bitwise(specfun._ndtr(x), special.ndtr(x))


def test_ndtr_underflow_cut_splits_the_probe():
    # the probe straddles the cut: Φ is 0 past it and subnormal just inside
    phi = specfun._ndtr(NDTR_INPUTS["underflow_cut"])
    assert 0.0 in phi and np.any((0.0 < phi) & (phi < 1e-300))


def test_ndtr_writes_into_out_aliasing_its_input():
    x = NDTR_INPUTS["normals"][:200_000].reshape(400, 500)
    want = special.ndtr(x)
    got = x.copy()
    assert specfun._ndtr(got, out=got) is got
    _assert_bitwise(got, want)
