"""Spectra, grids, kernels, and increment Gram matrices."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special
from scipy.linalg import toeplitz

from sphereqv import covariance as cov
from sphereqv.covariance import (
    IncrementGram,
    LineGrid,
    PowerSpectrum,
    fbm_spatial_row,
    increment_gram_fl,
    increment_row_f,
    increment_row_fl,
    rh_cross,
)
from sphereqv.simulate import FbmTarget, _meridian_basis

RNG = np.random.default_rng(40312)


def kernel(ell, c_ell, theta1, theta2):
    """E[f_l(θ1) f_l(θ2)] = c_l (2l+1)/(4π) · P_l(cos|θ1−θ2|), from scipy."""
    d = np.abs(np.asarray(theta1, dtype=float) - np.asarray(theta2, dtype=float))
    return c_ell * (2 * ell + 1) / (4.0 * math.pi) * special.eval_legendre(ell, np.cos(d))


def unit_row(ell, n):
    """increment_row_fl's row over c_l (2l+1)/(4π): the second differences of P_l(cos kh)."""
    return increment_row_fl(ell, 1.0, LineGrid(n)) / ((2 * ell + 1) / (4.0 * math.pi))


# ======================================================================
# PowerSpectrum
# ======================================================================

def test_explicit_spectrum_lookup():
    sp = PowerSpectrum.explicit([0.5, 0.0, 2.0], l_min=3)
    assert (sp.l_min, sp.l_max) == (3, 5)
    assert sp.cl(3) == 0.5 and sp.cl(5) == 2.0
    assert sp.cl(2) == 0.0 and sp.cl(6) == 0.0
    assert_allclose(sp.cl(np.array([2, 4, 9])), [0.0, 0.0, 0.0], rtol=0, atol=0)
    assert sp.tail_bound() == 0.0
    assert list(sp.degrees()) == [3, 4, 5]


def test_single_spectrum():
    sp = PowerSpectrum.single(7, 1.5)
    assert (sp.l_min, sp.l_max) == (7, 7)
    assert sp.cl(7) == 1.5 and sp.cl(8) == 0.0


def test_power_law_spectrum_values():
    sp = PowerSpectrum.power_law(2.0, 0.4, l_max=50)
    ells = np.array([1, 2, 10, 50])
    assert_allclose(sp.cl(ells), 2.0 * ells.astype(float) ** -2.4, rtol=1e-15)
    assert sp.cl(51) == 0.0


def test_power_law_tail_bound_dominates_discarded_sum():
    c0, eps, L = 1.3, 0.5, 60
    sp = PowerSpectrum.power_law(c0, eps, l_max=L)
    tail = np.arange(L + 1, 200000, dtype=float)
    discarded = c0 * np.sum((2 * tail + 1) * tail ** (-2 - eps)) / (2 * math.pi)
    assert discarded <= sp.tail_bound()
    # bound shrinks as more degrees are kept
    assert PowerSpectrum.power_law(c0, eps, l_max=2 * L).tail_bound() < sp.tail_bound()


def test_spectrum_validation():
    with pytest.raises(ValueError):
        PowerSpectrum.explicit([1.0, -0.1])
    with pytest.raises(ValueError):
        PowerSpectrum.power_law(0.0, 0.5, l_max=10)
    with pytest.raises(ValueError):
        PowerSpectrum.power_law(1.0, -0.2, l_max=10)
    for c0, eps in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            PowerSpectrum.power_law(c0, eps, l_max=10)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PowerSpectrum.explicit([1.0, bad])
    with pytest.raises(ValueError):
        PowerSpectrum(kind="weird", l_min=1, l_max=2)
    with pytest.raises(ValueError):
        PowerSpectrum(kind="explicit", l_min=5, l_max=3, values=(1.0,))


# ======================================================================
# LineGrid
# ======================================================================

def test_grid_points_and_spacing():
    g = LineGrid(4)
    assert g.spacing == math.pi / 8
    assert_allclose(g.points, np.array([1, 2, 3, 4, 5]) * math.pi / 8, rtol=1e-16)
    assert g.points[-1] > math.pi / 2


def test_grid_validation():
    with pytest.raises(ValueError):
        LineGrid(0)
    with pytest.raises(ValueError):
        LineGrid(2.5)


# ======================================================================
# Kernels and second differences
# ======================================================================

def test_kernel_on_diagonal_and_quarter_turn():
    # the kernel sum behind the full-field and fractional rows, at one degree
    w = np.array([3.0 / (4 * math.pi)])
    assert_allclose(cov._kernel_row(w, 1, np.array([1.0])), [3.0 / (4 * math.pi)],
                    rtol=1e-15)
    # P_1(cos π/2) = 0
    assert abs(cov._kernel_row(w, 1, np.array([math.cos(math.pi / 2)]))[0]) < 1e-16


def test_kernel_matches_reference_legendre():
    t1, t2 = RNG.uniform(0, math.pi, 30), RNG.uniform(0, math.pi, 30)
    got = cov._kernel_row(np.array([2.0 * 15 / (4 * math.pi)]), 7, np.cos(np.abs(t1 - t2)))
    assert_allclose(got, kernel(7, 2.0, t1, t2), rtol=0, atol=1e-14)


def test_second_difference_closed_form_degree_one():
    # 2cos(kh) - cos((k-1)h) - cos((k+1)h) = 2cos(kh)(1 - cos h)
    assert_allclose(unit_row(1, 2)[1], math.sqrt(2) - 1, rtol=1e-14)
    k = np.arange(1, 16)
    h = math.pi / 32
    assert_allclose(unit_row(1, 16)[1:], 2 * np.cos(k * h) * (1 - math.cos(h)),
                    rtol=0, atol=1e-15)


def test_second_difference_degree_zero_vanishes():
    assert not increment_row_fl(0, 1.0, LineGrid(8)).any()


def test_second_difference_small_spacing_limit():
    # 2u(kh) - u((k-1)h) - u((k+1)h) = -h² u''(kh) + O(h⁴) for u(θ)=P_l(cosθ)
    ell, theta0 = 10, 5 * math.pi / 128

    def u(th):
        return special.eval_legendre(ell, np.cos(th))

    step = 1e-5
    upp = (u(theta0 + step) - 2 * u(theta0) + u(theta0 - step)) / step ** 2
    err = []
    for n, k in ((64, 5), (128, 10)):
        h = math.pi / (2 * n)
        err.append(abs(unit_row(ell, n)[k] / (-h * h * upp) - 1.0))
    assert err[0] < 0.01
    assert err[1] < err[0]


# ======================================================================
# Increment Gram matrices
# ======================================================================

def test_row_entries_follow_kernel_differences():
    grid = LineGrid(12)
    row = increment_row_fl(3, 1.7, grid)
    a = 1.7 * 7 / (4 * math.pi)
    assert_allclose(row[0], 2 * a * (1 - special.eval_legendre(3, math.cos(grid.spacing))),
                    rtol=1e-14)
    k = np.arange(1, 12)
    h = grid.spacing

    def p3(lag):
        return special.eval_legendre(3, np.cos(lag * h))

    # each side rounds four P_3 values of magnitude ≤ 1 on its own: a few ulps of a
    assert_allclose(row[1:], a * (2 * p3(k) - p3(k - 1) - p3(k + 1)), rtol=0,
                    atol=8 * np.finfo(float).eps * a)


def test_one_by_one_gram():
    gram = increment_gram_fl(1, 1.0, LineGrid(1))
    assert gram.sigma.shape == (1, 1)
    assert_allclose(gram.trace(), 3.0 / (2 * math.pi), rtol=1e-15)


def test_gram_matches_brute_force_kernel_expansion():
    grid = LineGrid(16)
    pts = grid.points
    kmat = kernel(5, 2.0, pts[:, None], pts[None, :])
    brute = kmat[1:, 1:] - kmat[1:, :-1] - kmat[:-1, 1:] + kmat[:-1, :-1]
    assert_allclose(increment_gram_fl(5, 2.0, grid).sigma, brute, rtol=0, atol=1e-14)


def test_gram_row_sums_telescope_to_endpoint_covariance():
    grid = LineGrid(32)
    pts = grid.points
    sig = increment_gram_fl(7, 1.0, grid).sigma

    def k(a, b):
        return kernel(7, 1.0, a, b)

    want = (k(pts[1:], pts[-1]) - k(pts[1:], pts[0])
            - k(pts[:-1], pts[-1]) + k(pts[:-1], pts[0]))
    assert_allclose(sig.sum(axis=1), want, rtol=0, atol=1e-13)


def test_gram_is_toeplitz_with_constant_diagonal():
    grid = LineGrid(9)
    gram = increment_gram_fl(4, 0.8, grid)
    assert_allclose(gram.sigma, toeplitz(gram.first_row), rtol=0, atol=0)
    assert_allclose(np.diag(gram.sigma), gram.first_row[0], rtol=0, atol=0)


def test_single_degree_gram_has_low_rank():
    # the meridian restriction spans l+1 Gaussian channels, so rank ≤ l+1
    ell = 3
    sig = increment_gram_fl(ell, 1.0, LineGrid(16)).sigma
    eigs = np.linalg.eigvalsh(sig)
    assert eigs[: 16 - (ell + 1)].max() < 1e-10 * np.trace(sig)


def test_full_field_gram_psd_and_single_term_reduction():
    grid = LineGrid(64)
    sp = PowerSpectrum.power_law(1.0, 0.4, l_max=200)
    # the gram the experiment harness builds for a full-field cell
    gram = IncrementGram(grid.n, row=increment_row_f(sp, grid))
    eigs = np.linalg.eigvalsh(gram.sigma)
    assert eigs.min() > -1e-10 * gram.trace()
    # a one-degree spectrum reproduces the single-degree path exactly
    one = PowerSpectrum.single(6, 1.3)
    assert_allclose(IncrementGram(grid.n, row=increment_row_f(one, grid)).sigma,
                    increment_gram_fl(6, 1.3, grid).sigma, rtol=0, atol=1e-15)


def test_full_field_row_equals_degree_sum():
    grid = LineGrid(8)
    sp = PowerSpectrum.power_law(1.0, 0.3, l_max=40)
    want = sum(increment_row_fl(l, sp.cl(l), grid) for l in range(1, 41))
    assert_allclose(increment_row_f(sp, grid), want, rtol=0, atol=1e-14)


def test_truncation_changes_bounded_by_tail():
    grid = LineGrid(24)
    lo = PowerSpectrum.power_law(1.0, 0.5, l_max=100)
    hi = PowerSpectrum.power_law(1.0, 0.5, l_max=400)
    diff = np.abs(increment_row_f(hi, grid) - increment_row_f(lo, grid)).max()
    assert diff <= lo.tail_bound()


def test_increment_gram_shape_validation():
    g = IncrementGram(n=2, row=np.array([1.0, 0.0]))
    r = g.first_row
    r[0] = 99.0
    assert g.sigma[0, 0] == 1.0  # first_row hands out a copy
    with pytest.raises(TypeError):
        IncrementGram(n=2)
    with pytest.raises(TypeError):
        IncrementGram(n=2, sigma=np.eye(2))
    with pytest.raises(ValueError):
        IncrementGram(n=3, row=np.ones(2))
    with pytest.raises(ValueError):
        IncrementGram(n=3, row=np.ones(3), core=np.ones((2, 3)))


def test_gram_from_row_is_bitwise_the_toeplitz_matrix():
    for ell, n in ((4, 33), (9, 7)):
        grid = LineGrid(n)
        gram = increment_gram_fl(ell, 1.7, grid)
        row = increment_row_fl(ell, 1.7, grid)
        np.testing.assert_array_equal(gram.first_row, row)
        np.testing.assert_array_equal(gram.sigma, toeplitz(row))


@pytest.mark.parametrize("ell, n", [(4, 33), (8, 4096), (9, 7), (3, 1)])
def test_gram_forms_its_row_once_on_first_read(monkeypatch, ell, n):
    # the gram holds the function that forms increment_row_fl's row: with a
    # core every cumulant reads without it, and the first read of first_row
    # or sigma forms it once, bitwise; a gram with no core needs it for its trace
    grid = LineGrid(n)
    want = increment_row_fl(ell, 1.7, grid)
    calls = []

    def counted(*args):
        calls.append(args)
        return increment_row_fl(*args)

    monkeypatch.setattr(cov, "increment_row_fl", counted)
    gram = increment_gram_fl(ell, 1.7, grid)
    gram.eigenvalues()
    gram.trace()
    assert len(calls) == (0 if ell < n else 1)
    np.testing.assert_array_equal(gram.sigma, toeplitz(want))
    np.testing.assert_array_equal(gram.first_row, want)
    assert calls == [(ell, 1.7, grid)]


def test_gram_checks_a_row_given_as_a_function_when_formed():
    gram = IncrementGram(n=3, row=lambda: np.ones(2), core=np.eye(2))
    assert gram.trace() == 2.0
    with pytest.raises(ValueError, match="row must have length N"):
        gram.first_row


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1024])
def test_numpy_toeplitz_is_bitwise_scipys(n):
    rng = np.random.default_rng(n)
    row = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    assert cov.toeplitz(row).flags.c_contiguous
    np.testing.assert_array_equal(cov.toeplitz(row).view(np.uint64),
                                  toeplitz(row).view(np.uint64))


def test_increment_factor_reproduces_gram():
    # Σ = FᵀF for F the column difference of the sampler's scaled harmonic
    # table, at any l; the gram carries its (l+1)×(l+1) core exactly while
    # l+1 ≤ N (cells on both sides)
    for ell, n in ((1, 1), (1, 2), (1, 16), (3, 31), (3, 32), (6, 56), (10, 11),
                   (11, 11), (20, 6)):
        grid = LineGrid(n)
        f = np.diff(_meridian_basis(ell, 0.9, grid), axis=1)
        assert f.shape == (ell + 1, n)
        gram = increment_gram_fl(ell, 0.9, grid)
        assert_allclose(f.T @ f, gram.sigma, rtol=0, atol=1e-14 * gram.trace())
        if ell + 1 <= n:
            assert gram.core.shape == (ell + 1, ell + 1)
            assert_allclose(gram.core, gram.core.T, rtol=1e-15, atol=0)
            assert_allclose(gram.trace(), n * gram.first_row[0], rtol=1e-12)
        else:
            assert gram.core is None


# the kernel sweep and the three row bodies that now share one Legendre
# sweep and one second-difference helper, frozen as bitwise references

def _frozen_kernel_row(weights, l_min, x):
    acc = np.zeros_like(x)
    pm1 = np.ones_like(x)
    p = x.copy()
    if l_min <= 0:
        acc += weights[0 - l_min] * pm1
    for l in range(1, l_min + len(weights)):
        if l >= 2:
            pm1, p = p, ((2 * l - 1) * x * p - (l - 1) * pm1) / l
        if l >= l_min:
            acc += weights[l - l_min] * p
    return acc


def _frozen_row_fl(ell, c_ell, grid):
    n, h = grid.n, grid.spacing
    a = c_ell * (2 * ell + 1) / (4.0 * math.pi)
    xv = np.cos(np.arange(n + 1) * h)
    pm1, p = np.ones_like(xv), xv.copy()
    for l in range(1, ell):
        pm1, p = p, ((2 * l + 1) * xv * p - l * pm1) / (l + 1)
    row = np.empty(n)
    row[0] = 2.0 * a * (p[0] - p[1])
    if n > 1:
        row[1:] = a * (2.0 * p[1:n] - p[0:n - 1] - p[2:n + 1])
    return row


def _frozen_spectrum_row(spectrum, grid, four_pi):
    n, h = grid.n, grid.spacing
    ells = spectrum.degrees().astype(float)
    w = spectrum.cl(spectrum.degrees()) * (2.0 * ells + 1.0)
    if four_pi:
        w = w / (4.0 * math.pi)
    kern = _frozen_kernel_row(w, spectrum.l_min, np.cos(np.arange(n + 2) * h))
    row = np.empty(n)
    row[0] = 2.0 * (kern[0] - kern[1])
    if n > 1:
        row[1:] = 2.0 * kern[1:n] - kern[0:n - 1] - kern[2:n + 1]
    return row


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


ROW_SPECTRA = (PowerSpectrum.power_law(1.3, 0.5, 64),
               PowerSpectrum.explicit([0.5, 1.0, 0.2, 0.03], l_min=0),
               PowerSpectrum.explicit([0.0, 0.7], l_min=0),
               PowerSpectrum.explicit(RNG.uniform(0, 1, 20), l_min=1),
               PowerSpectrum.explicit([2.0, 0.1], l_min=5))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 257, 4097])
def test_rows_are_bitwise_the_frozen_loops(n):
    grid = LineGrid(n)
    for ell in (1, 2, 3, 8, 50):
        _assert_bitwise(increment_row_fl(ell, 0.7, grid),
                        _frozen_row_fl(ell, 0.7, grid))
    for sp in ROW_SPECTRA:
        _assert_bitwise(increment_row_f(sp, grid), _frozen_spectrum_row(sp, grid, True))
        _assert_bitwise(fbm_spatial_row(sp, grid), _frozen_spectrum_row(sp, grid, False))


def test_kernel_row_is_bitwise_the_frozen_loop():
    x = np.concatenate([[-1.0, 0.0, 1.0], RNG.uniform(-1, 1, 50)])
    for l_min, l_max in ((0, 1), (0, 6), (1, 1), (1, 40), (4, 9), (0, 300)):
        w = RNG.uniform(0, 2, l_max - l_min + 1)
        _assert_bitwise(cov._kernel_row(w, l_min, x), _frozen_kernel_row(w, l_min, x))


# both Szegő cores as they stood before they shared one body, frozen as
# bitwise references

def _frozen_circle_core(ell, c_ell, n):
    w, j = cov._szego(ell)
    r = np.abs(np.sin(math.pi * j / (4 * n))) * np.sqrt(c_ell * (2 * ell + 1) / math.pi * w)
    d = j[:, None] - j
    sin_quarter = np.array([0.0, 1.0, 0.0, -1.0])[(d // 2) % 4]
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = np.where(d == 0, float(n), sin_quarter / np.sin(math.pi * d / (4 * n)))
    return r[:, None] * kernel * r


def _frozen_limit_core(ell):
    w, j = cov._szego(ell)
    rb = np.abs(j) * np.sqrt(w)
    d = j[:, None] - j
    sin_quarter = np.array([0.0, 1.0, 0.0, -1.0])[(d // 2) % 4]
    with np.errstate(divide="ignore", invalid="ignore"):
        sinc = np.where(d == 0, 1.0, sin_quarter / (0.25 * math.pi * d))
    return rb[:, None] * sinc * rb


@pytest.mark.parametrize("ell", [1, 2, 3, 8, 40, 255, 1023])
def test_szego_cores_are_bitwise_the_frozen_bodies(ell):
    _assert_bitwise(cov._limit_core(ell), _frozen_limit_core(ell))
    for n in (ell + 1, 2 * ell + 3, 4096, 10 ** 6):
        _assert_bitwise(cov._circle_core(ell, 0.7, n), _frozen_circle_core(ell, 0.7, n))


# ======================================================================
# Fractional Brownian pair
# ======================================================================

def test_rh_cross_values():
    assert rh_cross(0.5, 3.0, 1.2) == pytest.approx(1.2, rel=1e-15)
    assert rh_cross(0.7, 2.0, 1.0) == pytest.approx(2.0 ** 0.4, rel=1e-15)


def test_fbm_spec_validation():
    sp = PowerSpectrum.single(2, 1.0)
    with pytest.raises(ValueError):
        FbmTarget(hurst=1.0, spectrum=sp, times=(2.0, 1.0))
    with pytest.raises(ValueError):
        FbmTarget(hurst=0.5, spectrum=sp, times=(1.0, 1.0))
    with pytest.raises(ValueError):
        FbmTarget(hurst=0.5, spectrum=sp, times=(-1.0, 2.0))
    for times in ((math.nan, 1.0), (2.0, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            FbmTarget(hurst=0.5, spectrum=sp, times=times)


def test_fbm_spatial_row_is_unnormalized_field_row():
    grid = LineGrid(10)
    sp = PowerSpectrum.explicit([0.4, 0.0, 1.1], l_min=2)
    assert_allclose(fbm_spatial_row(sp, grid),
                    4 * math.pi * increment_row_f(sp, grid), rtol=0, atol=1e-14)

