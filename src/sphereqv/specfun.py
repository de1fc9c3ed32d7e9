"""Special functions for isotropic fields on the sphere, meridian geometry.

Legendre polynomials P_l and their derivatives on [-1, 1], fully normalized
associated-Legendre values (real spherical harmonics restricted to a
meridian), Bessel functions J0 and J2, and the small-angle Bessel
approximation of P_l(cos θ).

Conventions
-----------
* Degrees l are non-negative integers; orders m satisfy 0 ≤ m ≤ l.
* Angles are radians; colatitude θ ∈ [0, π].
* The meridian harmonic λ_{lm}(θ) = N_{lm} P_l^m(cos θ) carries the full
  normalization N_{lm}² = (2l+1)(l−m)! / (4π (l+m)!) and the Condon-Shortley
  phase, so that Σ_m (2−δ_{m0}) λ_{lm}(θ) λ_{lm}(θ') =
  (2l+1)/(4π) · P_l(cos(θ−θ')).

All functions are pure; none keeps mutable state, so concurrent use from any
number of workers is safe.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "legendre_p",
    "legendre_p_all",
    "legendre_p_deriv",
    "real_harmonic_meridian",
    "harmonic_meridian_table",
    "harmonic_meridian_stack",
    "bessel_j",
    "hilb_approx_p",
]


# ======================================================================
# Legendre polynomials
# ======================================================================

def _check_degree(ell):
    if int(ell) != ell or ell < 0:
        raise ValueError(f"degree must be a non-negative integer, got {ell!r}")
    return int(ell)


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("Legendre argument outside [-1, 1]")
    return x


def legendre_p(ell, x):
    """Legendre polynomial P_l(x) on [-1, 1].

    Evaluated by the upward three-term recurrence
    (l+1) P_{l+1} = (2l+1) x P_l − l P_{l−1}, which is stable on the
    whole interval and costs O(l). Accepts scalar or array ``x``.
    """
    ell = _check_degree(ell)
    x = _check_x(x)
    scalar = x.ndim == 0
    xv = np.atleast_1d(x)
    pm1 = np.ones_like(xv)
    if ell == 0:
        return float(pm1[0]) if scalar else pm1
    p = xv.copy()
    for l in range(1, ell):
        pm1, p = p, ((2 * l + 1) * xv * p - l * pm1) / (l + 1)
    return float(p[0]) if scalar else p


def legendre_p_all(ell_max, x):
    """All of P_0(x) .. P_{ell_max}(x) in one recurrence sweep.

    Returns an array of shape (ell_max+1,) + shape(x). Useful when a sum
    over degrees is needed (full-field kernels, spectra).
    """
    ell_max = _check_degree(ell_max)
    x = _check_x(x)
    xv = np.atleast_1d(x)
    out = np.empty((ell_max + 1,) + xv.shape)
    out[0] = 1.0
    if ell_max >= 1:
        out[1] = xv
    for l in range(1, ell_max):
        out[l + 1] = ((2 * l + 1) * xv * out[l] - l * out[l - 1]) / (l + 1)
    return out if np.ndim(x) else out[:, 0]


def legendre_p_deriv(ell, x):
    """Derivative P'_l(x) on [-1, 1].

    Interior points use (1−x²) P'_l = l (P_{l−1} − x P_l); the endpoints use
    the closed forms P'_l(1) = l(l+1)/2 and P'_l(−1) = (−1)^{l+1} l(l+1)/2
    to avoid the 0/0 in the interior relation.
    """
    ell = _check_degree(ell)
    x = _check_x(x)
    scalar = x.ndim == 0
    xv = np.atleast_1d(np.asarray(x, float)).copy()
    if ell == 0:
        out = np.zeros_like(xv)
        return float(out[0]) if scalar else out
    out = np.empty_like(xv)
    edge = np.abs(xv) == 1.0
    if edge.any():
        s = np.sign(xv[edge])
        out[edge] = s ** (ell + 1) * ell * (ell + 1) / 2.0
    interior = ~edge
    if interior.any():
        xi = xv[interior]
        pm1 = np.ones_like(xi)
        p = xi.copy()
        for l in range(1, ell):
            pm1, p = p, ((2 * l + 1) * xi * p - l * pm1) / (l + 1)
        # p = P_ell, pm1 = P_{ell-1}
        out[interior] = ell * (pm1 - xi * p) / (1.0 - xi * xi)
    return float(out[0]) if scalar else out


# ======================================================================
# Real normalized spherical harmonics on a meridian
# ======================================================================

# values per buffer of a table's sweep (8 MB)
_TILE_VALUES = 1 << 20


def _meridian_blocks(ell_max, theta):
    """Yield the λ_{lm}(θ) block of each degree l = 0..ell_max in turn.

    Block l has shape (l+1, len(theta)), row m = N_{lm} P_l^m(cos θ). Rows
    m ≤ l−2 come from the two previous blocks at once (the three-term
    recurrence in l, coefficients vectorized over m), then the m = l−1 and
    sectoral m = l rows (∝ sin^l θ, underflowing harmlessly to 0 near the
    poles) from the last sectoral value: O(ell_max) Python steps. The
    normalization is folded into the coefficients, so no factorial
    overflows. Each value is formed by the same operations, in the same
    order, as the order-by-order recurrence, hence bitwise equal to it.
    Blocks live in three rotating buffers: use or copy each before
    advancing the sweep.
    """
    ct, st = np.cos(theta), np.sin(theta)
    # one allocation: three separate ones were returned to the OS and
    # page-faulted again on every small table (1.7× the time at l=8, N=4096)
    bufs = np.empty((3, ell_max + 1, theta.size))
    prev2, prev = None, bufs[0][:1]
    prev[0] = 1.0 / np.sqrt(4.0 * np.pi)
    yield prev
    for l in range(1, ell_max + 1):
        lam = bufs[l % 3][:l + 1]
        if l >= 2:
            m = np.arange(l - 1)
            a = np.sqrt((2 * l - 1.0) * (2 * l + 1.0) / ((l - m) * (l + m)))
            b = np.sqrt((2 * l + 1.0) * (l + m - 1) * (l - m - 1)
                        / ((l - m) * (l + m) * (2 * l - 3.0)))
            np.multiply(a[:, None], ct, out=lam[:l - 1])
            lam[:l - 1] *= prev[:l - 1]
            prev2 *= b[:, None]  # its buffer is the next block's
            lam[:l - 1] -= prev2
        lam[l - 1] = np.sqrt(2 * l + 1.0) * ct * prev[l - 1]
        lam[l] = -np.sqrt((2 * l + 1) / (2.0 * l)) * st * prev[l - 1]
        yield lam
        prev2, prev = prev, lam


def harmonic_meridian_table(ell, theta):
    """λ_{lm}(θ) for all orders m = 0..l at the given colatitudes.

    Returns an array of shape (l+1, len(theta)). Row m holds the fully
    normalized associated-Legendre value N_{lm} P_l^m(cos θ), from the last
    block of the degree-major recurrence sweep. The sweep runs over column
    tiles of at most _TILE_VALUES // (l+1) points, so its working buffers
    stay small beside the table when len(theta) is large.
    """
    ell = _check_degree(ell)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty((ell + 1, theta.size))
    step = max(1, _TILE_VALUES // (ell + 1))
    for c in range(0, theta.size, step):
        for lam in _meridian_blocks(ell, theta[c:c + step]):
            pass
        out[:, c:c + step] = lam
    return out


def real_harmonic_meridian(ell, m, theta):
    """Single normalized harmonic value λ_{lm}(θ) on the meridian.

    θ may be scalar or array. Raises on m outside [0, l].
    """
    ell = _check_degree(ell)
    if int(m) != m or m < 0 or m > ell:
        raise ValueError(f"order m={m!r} outside [0, {ell}]")
    lam = harmonic_meridian_table(ell, theta)[int(m)]
    return float(lam[0]) if np.ndim(theta) == 0 else lam


def harmonic_meridian_stack(l_lo, l_hi, theta):
    """Packed λ_{lm} rows for every degree l in [l_lo, l_hi).

    Returns an array of shape (Σ_{l=l_lo}^{l_hi−1} (l+1), len(theta)):
    degree blocks in ascending l, block l holding rows m = 0..l. Row
    (l, m) sits at Σ_{j=l_lo}^{l−1}(j+1) + m.

    One degree-major sweep from degree 0 fills the blocks, so the cost is
    O(l_hi) Python steps and O(l_hi² · len(theta)) arithmetic regardless of
    l_lo. The samplers do not call this per degree chunk: they run the sweep
    once across all their chunks.
    """
    l_lo, l_hi = int(l_lo), int(l_hi)
    if l_lo < 0 or l_hi <= l_lo:
        raise ValueError("need 0 ≤ l_lo < l_hi")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty(((l_hi - l_lo) * (l_hi + l_lo + 1) // 2, theta.size))
    pos = 0
    for l, lam in enumerate(_meridian_blocks(l_hi - 1, theta)):
        if l >= l_lo:
            out[pos:pos + l + 1] = lam
            pos += l + 1
    return out


# ======================================================================
# Bessel J0 and J2
# ======================================================================
# Small arguments (x < 8) use the power series with term recurrences; the
# largest term there is ~1e2, so the absolute rounding floor stays below
# 1e-13. Large arguments use the Hankel form
#     J_n(x) = sqrt(2/(πx)) [ P_n(x) cos χ_n − Q_n(x) sin χ_n ],
# χ_0 = x − π/4, χ_1 = x − 3π/4, with the slowly varying amplitude/phase
# functions represented by Chebyshev tables in w = (8/x)² on [0, 1]
# (generated offline in 40-digit arithmetic; max abs error of the composed
# evaluator vs reference values is 2.3e-14 over [8, 1e6]).
# J2 = 2 J1/x − J0 for x ≥ 8; its own series below 8.

_P0_CHEB = (
    0.9994603493475188, -0.0005365220468131972, 3.075184787507414e-06,
    -5.1705945378249186e-08, 1.6306464421362878e-09, -7.864092735452029e-11,
    5.168240513356171e-12, -4.3045749279317517e-13, 4.3255559516384185e-14,
    -5.0823175318844315e-15, 6.757406102067249e-16, -1.0632203261719346e-16,
    2.7495228901651573e-18, -1.4248423100256747e-17, 5.287203355616586e-18,
)
_R0_CHEB = (
    -0.015555854605337012, 6.83851994261166e-05, -7.414498411060992e-07,
    1.7972457247993585e-08, -7.271915935539321e-10, 4.2201219047035215e-11,
    -3.206747324705689e-12, 3.006147878263496e-13, -3.3363218647270184e-14,
    4.255145851783918e-15, -6.101205881194099e-16, 9.664398449809306e-17,
    -1.6612232485259597e-17, 3.3793947835555357e-18,
)
_P1_CHEB = (
    1.0009030408600141, 0.000898989833085999, -3.987284300415295e-06,
    6.177633963552977e-08, -1.871890686066208e-09, 8.816902081342304e-11,
    -5.704819831846511e-12, 4.69952316718549e-13, -4.6793731782489136e-14,
    5.502682123830747e-15, -6.80077286424245e-16, 1.0920144236887335e-16,
    -7.517627277953488e-18, 6.074541747505188e-17, 6.8253278304269894e-18,
)
_R1_CHEB = (
    0.04677778706953533, -9.62772354915693e-05, 9.138615257958073e-07,
    -2.095978138434534e-08, 8.229193328598877e-10, -4.6863636422985364e-11,
    3.515219573063023e-12, -3.2643195113461873e-13, 3.5967476084704006e-14,
    -4.560305143258228e-15, 6.510478430355899e-16, -1.0255672003198992e-16,
    1.704281791127587e-17, -1.825880455268107e-18,
)


def _chebval01(w, coeffs):
    # Clenshaw on t = 2w - 1 in [-1, 1]
    t = 2.0 * w - 1.0
    t2 = 2.0 * t
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for c in reversed(coeffs[1:]):
        b1, b2 = t2 * b1 - b2 + c, b1
    return t * b1 - b2 + coeffs[0]


def _j0_series(x):
    q = x * x / 4.0
    term = np.ones_like(x)
    acc = term.copy()
    for k in range(1, 40):
        term = -term * q / (k * k)
        acc += term
    return acc


def _j2_series(x):
    q = x * x / 4.0
    term = q / 2.0
    acc = term.copy()
    for k in range(1, 40):
        term = -term * q / (k * (k + 2))
        acc += term
    return acc


def _j_large(order, x):
    z = 8.0 / x
    w = z * z
    if order == 0:
        P = _chebval01(w, _P0_CHEB)
        Q = z * _chebval01(w, _R0_CHEB)
        chi = x - 0.25 * np.pi
    else:
        P = _chebval01(w, _P1_CHEB)
        Q = z * _chebval01(w, _R1_CHEB)
        chi = x - 0.75 * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (P * np.cos(chi) - Q * np.sin(chi))


def bessel_j(order, x):
    """Bessel function J0(x) or J2(x) for x ≥ 0, abs error ≤ 1e-12.

    Power series below x = 8, Hankel asymptotic form with Chebyshev-fitted
    amplitude/phase functions above. ``order`` must be 0 or 2.
    """
    if order not in (0, 2):
        raise ValueError("order must be 0 or 2")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise ValueError("argument must be non-negative")
    out = np.empty_like(x)
    small = x < 8.0
    if small.any():
        xs = x[small]
        out[small] = _j0_series(xs) if order == 0 else _j2_series(xs)
    big = ~small
    if big.any():
        xb = x[big]
        if order == 0:
            out[big] = _j_large(0, xb)
        else:
            out[big] = 2.0 * _j_large(1, xb) / xb - _j_large(0, xb)
    return float(out[0]) if scalar else out


# ======================================================================
# Small-angle Bessel approximation of P_l(cos θ)
# ======================================================================

def hilb_approx_p(ell, psi_over_n):
    """Leading small-angle approximation of P_l(cos θ), θ = psi_over_n.

    Returns sqrt(θ / sin θ) · J0((l + 1/2) θ). Accurate to o(l^{-3/2} √θ)
    uniformly for θ in (0, π/2]; the argument must be strictly positive.
    """
    ell = _check_degree(ell)
    scalar = np.ndim(psi_over_n) == 0
    a = np.atleast_1d(np.asarray(psi_over_n, dtype=float))
    if np.any(a <= 0.0):
        raise ValueError("angle must be strictly positive")
    out = np.sqrt(a / np.sin(a)) * bessel_j(0, (ell + 0.5) * a)
    return float(out[0]) if scalar else np.asarray(out)
