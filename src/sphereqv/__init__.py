"""Quadratic variations of isotropic Gaussian fields along a sphere meridian.

The package simulates Gaussian isotropic random fields on the unit sphere,
restricted to a quarter-meridian grid, computes exact and asymptotic moments
of the quadratic variation of their increments, and estimates angular power
spectra and Hurst-type regularity from sampled paths. A Monte Carlo harness
reconciles the empirical and exact sides, and a command line wraps the whole
workflow.

Modules
-------
specfun
    Legendre polynomials (one recurrence sweep, also behind the full-field
    kernel rows), meridian spherical harmonics (one degree-major sweep, also
    behind the samplers), Bessel J0/J2 from scipy.special (loaded on first
    call), and the normal CDF, bitwise scipy's cephes ``ndtr``.
covariance
    Power spectra, meridian grids, increment covariance (Gram) matrices,
    fractional-Brownian spatial rows and time coupling.
moments
    Exact mean/variance/cumulants of quadratic variations, asymptotic
    formulas per regime, Gaussian fluctuation limits, distance bounds, the
    simplified estimators' normalizers and exact biases.
simulate
    Exact Gaussian sampling of single-degree and full fields and fractional
    pairs on the grid, through one batched quadratic-variation driver.
estimators
    Angular power spectrum estimators and a Hurst-exponent estimator.
harness
    Monte Carlo experiment runner with deterministic parallel streams,
    empirical cumulants with jackknife errors, report serialization.
cli
    Command line entry point (``sphereqv``).

The package root holds only ``__version__``: every public name is imported
from its module, e.g. ``from sphereqv.moments import exact_mean_vnl``.
"""

__version__ = "0.1.0"
