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

The printed mean is not gated here: ``exact_mean_vnl`` cancels in
1 − P_l(cos(π/2N)) and is 19% low at (3, 2^26). Routing it through the
cancellation-free ``moments._mean_v`` or the core's trace (ROADMAP item 2's
first step) is what brings it under a bound like these.
"""

import math

import mpmath
import pytest

from sphereqv.covariance import LineGrid, increment_gram_fl
from sphereqv.moments import exact_var_vnl, fourth_moment_bound, normalized_cumulant

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

    def kernel(d):
        if d == 0:
            return mpmath.mpf(n)
        return mpmath.sin(mpmath.pi * d / 4) / mpmath.sin(mpmath.pi * d / (4 * n))

    return mpmath.matrix([[r[m] * kernel(j[m] - j[k]) * r[k] for k in range(ell + 1)]
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


def _mp_row(ell, c_ell, n):
    """The Gram row from its definition: a(2u_k − u_{k−1} − u_{k+1}) and
    2a(u_0 − u_1), u_k = P_l(cos kh) by the recurrence, a = c_l (2l+1)/(4π)."""
    h = mpmath.pi / (2 * n)
    u = []
    for k in range(n + 1):
        x = mpmath.cos(k * h)
        pm1, p = mpmath.mpf(1), x
        for l in range(1, ell):
            pm1, p = p, ((2 * l + 1) * x * p - l * pm1) / (l + 1)
        u.append(p)
    a = mpmath.mpf(c_ell) * (2 * ell + 1) / (4 * mpmath.pi)
    return [2 * a * (u[0] - u[1])] + [a * (2 * u[k] - u[k - 1] - u[k + 1])
                                      for k in range(1, n)]


@pytest.mark.parametrize("ell, n", [(1, 64), (3, 64), (8, 64), (8, 4096)])
def test_reference_core_carries_the_gram_of_the_definition(ell, n):
    # the 40-digit core's trace and variance are the Gram row's
    # N·r_0 and 2[N r_0² + 2 Σ (N−k) r_k²], so the reference is the Gram's
    with mpmath.workdps(40):
        core, row = _mp_core(ell, C_ELL, n), _mp_row(ell, C_ELL, n)
        trace = mpmath.fsum(core[m, m] for m in range(ell + 1))
        frob = mpmath.fsum(core[m, k] ** 2 for m in range(ell + 1) for k in range(ell + 1))
        row_var = n * row[0] ** 2 + 2 * mpmath.fsum((n - k) * row[k] ** 2 for k in range(1, n))
        assert abs(trace / (n * row[0]) - 1) < 1e-25
        assert abs(frob / row_var - 1) < 1e-25


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
    for key, bound in bounds.items():
        with mpmath.workdps(40):
            err = abs(float(mpmath.mpf(got[key]) / want[key] - 1))
        assert math.isfinite(got[key]) and err <= bound, (key, err)
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
        row = _mp_row(ell, C_ELL, n)
        return mpmath.matrix([[row[abs(i - j)] for j in range(n)] for i in range(n)])

    gram = _check_values(ell, n, toeplitz, DENSE_BOUNDS)
    assert gram.core is None
