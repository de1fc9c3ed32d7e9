"""Recovering the Hurst exponent of a spherical fractional field.

Each replication simulates the coupled pair (B_t, B_s) along the meridian,
takes both quadratic variations, and estimates H from their ratio. The
median over replications lands close to the truth for rough and smooth
fields alike.
"""

import warnings

import numpy as np

from sphereqv.covariance import LineGrid, PowerSpectrum
from sphereqv.estimators import estimate_hurst
from sphereqv.simulate import FbmTarget, SampleSpec, batch_quadratic_variation

REPS = 100
N = 512
SPECTRUM = PowerSpectrum.power_law(1.0, 0.2, l_max=256)

print(f"{'H true':>7} {'median':>8} {'q25':>8} {'q75':>8}")
for h in (0.3, 0.5, 0.7):
    target = FbmTarget(hurst=h, spectrum=SPECTRUM, times=(2.0, 1.0))
    spec = SampleSpec(target=target, grid=LineGrid(N),
                      seed=int(9000 + 100 * h), replications=REPS)
    v = batch_quadratic_variation(spec, 0, REPS)
    with warnings.catch_warnings():
        # individual ratios can momentarily leave (0, 1); the median copes
        warnings.simplefilter("ignore", UserWarning)
        est = np.array([estimate_hurst(vt, vs, 2.0, 1.0) for vt, vs in v])
    q25, med, q75 = np.percentile(est, [25, 50, 75])
    print(f"{h:>7.1f} {med:>8.4f} {q25:>8.4f} {q75:>8.4f}")
