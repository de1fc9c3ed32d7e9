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
    call), small-angle Legendre approximation.
covariance
    Power spectra, meridian grids, increment covariance (Gram) matrices,
    fractional-Brownian time coupling.
moments
    Exact mean/variance/cumulants of quadratic variations, asymptotic
    formulas per regime, Gaussian fluctuation limits, distance bounds.
simulate
    Exact Gaussian sampling of single-degree and full fields on the grid,
    quadratic variation evaluation, batched drivers.
estimators
    Angular power spectrum estimators and a Hurst-exponent estimator.
harness
    Monte Carlo experiment runner with deterministic parallel streams,
    empirical cumulants with jackknife errors, report serialization.
cli
    Command line entry point (``sphereqv``).
"""

from .covariance import (
    FbmSpec,
    IncrementGram,
    LineGrid,
    PowerSpectrum,
    fbm_joint_gram,
    increment_gram_f,
    increment_gram_fl,
    kernel_fl,
    second_difference_p,
)
from .estimators import (
    EstimateResult,
    estimate_cl,
    estimate_cl_classical,
    estimate_cl_variant,
    estimate_hurst,
)
from .moments import (
    MomentReport,
    asymptotic_mean,
    asymptotic_var,
    estimator_bias,
    exact_mean_vnl,
    exact_var_vnl,
    fourth_moment_bound,
    fullfield_moment_orders,
    k_ell_constant,
    moment_report,
    nclt_limit_cumulant,
    normalized_cumulant,
    trace_cumulant,
)
from .simulate import (
    PathSample,
    SampleSpec,
    quadratic_variation,
    sample_f_line,
    sample_fbm_pair,
    sample_fl_line,
)
from .specfun import (
    bessel_j,
    harmonic_meridian_table,
    hilb_approx_p,
    legendre_p,
)

__version__ = "0.1.0"

__all__ = [
    "FbmSpec",
    "IncrementGram",
    "LineGrid",
    "PowerSpectrum",
    "fbm_joint_gram",
    "increment_gram_f",
    "increment_gram_fl",
    "kernel_fl",
    "second_difference_p",
    "EstimateResult",
    "estimate_cl",
    "estimate_cl_classical",
    "estimate_cl_variant",
    "estimate_hurst",
    "MomentReport",
    "asymptotic_mean",
    "asymptotic_var",
    "estimator_bias",
    "exact_mean_vnl",
    "exact_var_vnl",
    "fourth_moment_bound",
    "fullfield_moment_orders",
    "k_ell_constant",
    "moment_report",
    "nclt_limit_cumulant",
    "normalized_cumulant",
    "trace_cumulant",
    "PathSample",
    "SampleSpec",
    "quadratic_variation",
    "sample_f_line",
    "sample_fbm_pair",
    "sample_fl_line",
    "bessel_j",
    "harmonic_meridian_table",
    "hilb_approx_p",
    "legendre_p",
    "__version__",
]
