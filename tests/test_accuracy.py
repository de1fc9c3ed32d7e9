"""Accuracy of the exact side's cumulants against a 40-digit reference.

Every cumulant ``sphereqv moments`` prints for a cell with l+1 ≤ N comes from
``increment_gram_fl``'s (l+1)×(l+1) circle core. Here that core is built and
decomposed again in 40-digit mpmath, and the variance, the normalized κ3 and
κ4 and ``fourth_moment_bound`` must each lie within one stated relative bound
of it, at every cell from N = 64 to N = 2^26. The gram forms no O(lN) row
for these values, so N = 2^26 costs milliseconds. Degree 64 on the core
path, and the dense path (l+1 > N, the N×N Gram's eigenvalues, checked
against the 40-digit N×N Toeplitz of the Gram row), each have bounds of
their own.

The harness's exact columns, which strict mode trusts, are gated at the
benchmark's cells: a single degree's mean, var, k3, k4 and ks_normal
(``fourth_moment_bound``) as ``harness._cell_rows`` builds them, against the
core's trace, 2·Σ core² and eigenvalues; a full field's and a fractional
pair's mean and var from ``harness._cell_exact``, against the 40-digit kernel
row, second-differenced.

The printed mean is not gated at large N: ``exact_mean_vnl`` cancels in
1 − P_l(cos(π/2N)) and is 19% low at (3, 2^26). Routing it through the
cancellation-free ``moments._mean_v`` or the core's trace (ROADMAP item 2's
first step) is what brings it under a bound like these.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from sphereqv import harness
from sphereqv.covariance import LineGrid, PowerSpectrum, increment_gram_fl
from sphereqv.moments import exact_var_vnl, fourth_moment_bound, normalized_cumulant
from sphereqv.simulate import FbmTarget, FullField

C_ELL = 0.7

# one relative bound per value, about 2.5× the largest error measured over
# these cells: 8.1e-16 (variance), 5.6e-16 (κ3), 7.1e-16 (κ4), 3.5e-16 (bound)
BOUNDS = {"variance": 2e-15, "normalized_k3": 1.5e-15, "normalized_k4": 2e-15,
          "fourth_moment_bound": 1e-15}

CELLS = [(ell, n) for ell in (1, 3, 8) for n in (64, 4096, 2 ** 20, 2 ** 26)]

# about 2.5× the largest error measured at (64, 128) and (64, 2^20): 1.5e-15,
# 1.4e-15, 2.3e-15 and 1.1e-15, in the order of BOUNDS; 0.5 s per reference
CORE_64_BOUNDS = {"variance": 4e-15, "normalized_k3": 3.5e-15, "normalized_k4": 6e-15,
                  "fourth_moment_bound": 3e-15}

# about 2.5× the largest error measured over these cells, all at (64, 32):
# 1.8e-14, 4.8e-15, 9.6e-15 and 4.8e-15; at most 7.7e-16 up to (8, 4)
DENSE_BOUNDS = {"variance": 5e-14, "normalized_k3": 1.2e-14, "normalized_k4": 2.5e-14,
                "fourth_moment_bound": 1.2e-14}

DENSE_CELLS = [(1, 1), (3, 2), (8, 4), (16, 8), (64, 32)]


def _mp_core(ell, c_ell, n):
    """The degree-l circle core in the working precision: r_m K(j_m − j_k) r_k
    with Szegő's j_m = l − 2m and w_m = a_m a_{l−m}, a_m = C(2m, m)/4^m,
    r_m = |sin(π j_m/4N)| √(c_l (2l+1) w_m/π), K(0) = N and
    K(d) = sin(πd/4)/sin(πd/4N)."""
    a = [mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m for m in range(ell + 1)]
    j = [ell - 2 * m for m in range(ell + 1)]
    r = [abs(mpmath.sin(mpmath.pi * jm / (4 * n)))
         * mpmath.sqrt(mpmath.mpf(c_ell) * (2 * ell + 1) / mpmath.pi * a[m] * a[ell - m])
         for m, jm in enumerate(j)]

    # j_m − j_k = 2(k − m) takes 2l + 1 values
    kernel = {d: mpmath.sin(mpmath.pi * d / 4) / mpmath.sin(mpmath.pi * d / (4 * n))
              for d in range(-2 * ell, 2 * ell + 1, 2) if d}
    kernel[0] = mpmath.mpf(n)
    return mpmath.matrix([[r[m] * kernel[j[m] - j[k]] * r[k] for k in range(ell + 1)]
                          for m in range(ell + 1)])


def _mp_values(matrix):
    """The four values from a 40-digit Gram or core's eigenvalues."""
    with mpmath.workdps(40):
        eig = mpmath.eigsy(matrix, eigvals_only=True)
        var = 2 * mpmath.fsum(e ** 2 for e in eig)
        k3 = 8 * mpmath.fsum(e ** 3 for e in eig) / var ** 1.5
        k4 = 48 * mpmath.fsum(e ** 4 for e in eig) / var ** 2
        return {"variance": var, "normalized_k3": k3, "normalized_k4": k4,
                "fourth_moment_bound": mpmath.sqrt(k4 / 6)}


def _mp_row(weights, n):
    """The Gram row of the kernel u(θ) = Σ_l w_l P_l(cos θ), ``weights`` w_0..w_L,
    from its definition: 2(u_0 − u_1) and 2u_k − u_{k−1} − u_{k+1}, with
    u_k = u(kh), h = π/2N, and each P_l(cos kh) by the recurrence."""
    h = mpmath.pi / (2 * n)
    u = []
    for k in range(n + 1):
        x = mpmath.cos(k * h)
        pm1, p = mpmath.mpf(1), x
        total = weights[0] + weights[1] * x
        for l in range(1, len(weights) - 1):
            pm1, p = p, ((2 * l + 1) * x * p - l * pm1) / (l + 1)
            total += weights[l + 1] * p
        u.append(total)
    return [2 * (u[0] - u[1])] + [2 * u[k] - u[k - 1] - u[k + 1] for k in range(1, n)]


def _degree_weights(ell, c_ell):
    """The one-degree kernel's weights: c_l (2l+1)/(4π) at l, 0 below."""
    return [0] * ell + [mpmath.mpf(c_ell) * (2 * ell + 1) / (4 * mpmath.pi)]


def _row_moments(row):
    """Mean N·r_0 and variance 2[N r_0² + 2 Σ (N−k) r_k²] of a Gram row."""
    n = len(row)
    return {"mean": n * row[0],
            "var": 2 * (n * row[0] ** 2 + 2 * mpmath.fsum((n - k) * row[k] ** 2
                                                          for k in range(1, n)))}


def _core_moments(core):
    """Mean (the trace) and variance 2·Σ core² of V from a circle core."""
    size = range(core.rows)
    return {"mean": mpmath.fsum(core[m, m] for m in size),
            "var": 2 * mpmath.fsum(core[m, k] ** 2 for m in size for k in size)}


@pytest.mark.parametrize("ell, n", [(1, 64), (3, 64), (8, 64), (8, 4096), (64, 64)])
def test_reference_core_carries_the_gram_of_the_definition(ell, n):
    # the 40-digit core's trace and 2·Σ core² are the Gram row's mean and
    # variance, so the reference is the Gram's; it holds for l < 2N, where the
    # kernel's sin(πd/4N) has no zero at |d| ≤ 2l, as at (64, 64)
    with mpmath.workdps(40):
        core = _core_moments(_mp_core(ell, C_ELL, n))
        row = _row_moments(_mp_row(_degree_weights(ell, C_ELL), n))
        for key in ("mean", "var"):
            assert abs(core[key] / row[key] - 1) < 1e-25


def _within(got, want, bounds):
    """Each value of ``got`` within its bound of the 40-digit ``want``."""
    for key, bound in bounds.items():
        with mpmath.workdps(40):
            err = abs(float(mpmath.mpf(got[key]) / want[key] - 1))
        assert math.isfinite(got[key]) and err <= bound, (key, err)


def _check_values(ell, n, matrix, bounds):
    """Each value of the (l, N) cell's gram within its bound of the 40-digit
    values of ``matrix`` (a function forming it in the working precision)."""
    gram = increment_gram_fl(ell, C_ELL, LineGrid(n))
    got = {"variance": exact_var_vnl(gram),
           "normalized_k3": normalized_cumulant(gram, 3),
           "normalized_k4": normalized_cumulant(gram, 4),
           "fourth_moment_bound": fourth_moment_bound(gram)}
    with mpmath.workdps(40):
        want = _mp_values(matrix())
    _within(got, want, bounds)
    return gram


@pytest.mark.parametrize("ell, n", CELLS)
def test_core_path_values_within_their_bounds(ell, n):
    _check_values(ell, n, lambda: _mp_core(ell, C_ELL, n), BOUNDS)


@pytest.mark.parametrize("ell, n", [(64, 128), (64, 2 ** 20)])
def test_core_path_at_degree_64_within_its_bounds(ell, n):
    gram = _check_values(ell, n, lambda: _mp_core(ell, C_ELL, n), CORE_64_BOUNDS)
    assert gram.core is not None


@pytest.mark.parametrize("ell, n", DENSE_CELLS)
def test_dense_path_values_within_their_bounds(ell, n):
    def toeplitz():
        row = _mp_row(_degree_weights(ell, C_ELL), n)
        return mpmath.matrix([[row[abs(i - j)] for j in range(n)] for i in range(n)])

    gram = _check_values(ell, n, toeplitz, DENSE_BOUNDS)
    assert gram.core is None


# the harness's exact column at the benchmark's single-degree cells, many_reps'
# (3, 16) and regime_sweep's three, at C_ELL: about 2.5× the error measured,
# 1.6e-15, 3.2e-16, 1.3e-15, 1.9e-15 and 5.7e-16 at (3, 16); 1.2e-13, 6.6e-15,
# 1.6e-14, 2.2e-14 and 4.2e-15 at (64, 64); 5e-13 and 5.6e-14 at (128, 128);
# 1.8e-12 and 3.7e-15 at (256, 256). The ks_normal row's exact column is
# fourth_moment_bound. k3, k4 and the bound stop at l = 64, as mpmath.eigsy
# takes 8 s at l = 128. The means, here and below, cancel in 1 − P_l and in
# the second differences; their bounds pin today's error so that a regression
# shows (ROADMAP item 2 removes the cancellation)
HARNESS_BOUNDS = {
    (3, 16): {"mean": 4e-15, "var": 8e-16, "k3": 3.5e-15, "k4": 5e-15, "ks_normal": 1.5e-15},
    (64, 64): {"mean": 3e-13, "var": 1.7e-14, "k3": 4e-14, "k4": 5.5e-14, "ks_normal": 1.1e-14},
    (128, 128): {"mean": 1.3e-12, "var": 1.4e-13},
    (256, 256): {"mean": 4.5e-12, "var": 1e-14},
}

# the full field and the fractional pair (H 0.3, times (2, 1)) on fbm_pair's
# power law, c0 1 and ε 0.2: about 2.5× the larger error measured, field and
# pair, 5.5e-13 and 2.8e-14 at (l_max 64, N 128), 4.4e-12 and 2e-13 at (256, 512)
FIELD_BOUNDS = {(64, 128): {"mean": 1.4e-12, "var": 7e-14},
                (256, 512): {"mean": 1.1e-11, "var": 5e-13}}


@pytest.mark.parametrize("ell, n", list(HARNESS_BOUNDS))
def test_harness_single_degree_exact_column_within_its_bounds(ell, n):
    bounds = HARNESS_BOUNDS[ell, n]
    config = harness.ExperimentConfig.from_dict({
        "seed": 1, "replications": 200, "statistics": list(bounds),
        "target": {"kind": "single_ell", "c_ell": C_ELL}, "cells": [[ell, n]]})
    # the exact column reads no sample; these fill the empirical one only
    rows = harness._cell_rows(config, ell, n, config.targets[0], np.arange(1.0, 201.0))
    with mpmath.workdps(40):
        core = _mp_core(ell, C_ELL, n)
        want = _core_moments(core)
        if "k3" in bounds:
            values = _mp_values(core)
            var = values["variance"]
            want.update(k3=values["normalized_k3"] * var ** 1.5,
                        k4=values["normalized_k4"] * var ** 2,
                        ks_normal=values["fourth_moment_bound"])
    _within({r.stat: r.exact for r in rows}, want, bounds)


@functools.lru_cache(maxsize=None)
def _mp_power_law_row(l_max, n):
    """The 40-digit Gram row of Σ C_l(2l+1) P_l for the power law
    C_l = l^(−2−ε), c0 1 and ε 0.2, up to ``l_max``."""
    with mpmath.workdps(40):
        return _mp_row([0] + [(2 * l + 1) * mpmath.mpf(l) ** (-2 - mpmath.mpf(0.2))
                              for l in range(1, l_max + 1)], n)


@pytest.mark.parametrize("kind", ["full_field", "fbm"])
@pytest.mark.parametrize("l_max, n", list(FIELD_BOUNDS))
def test_harness_field_and_pair_exact_columns_within_their_bounds(l_max, n, kind):
    spectrum = PowerSpectrum.power_law(1.0, 0.2, l_max)
    with mpmath.workdps(40):
        if kind == "full_field":
            target, factor = FullField(spectrum), 1 / (4 * mpmath.pi)
        else:  # V at the first time t = 2: the factor t^(2H)
            target, factor = FbmTarget(0.3, spectrum, (2.0, 1.0)), mpmath.mpf(2) ** (2 * mpmath.mpf(0.3))
        want = _row_moments([factor * r for r in _mp_power_law_row(l_max, n)])
    _within(harness._cell_exact(target, n), want, FIELD_BOUNDS[l_max, n])
