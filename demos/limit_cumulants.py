"""Normalized cumulants of the quadratic variation converge as the grid refines.

At fixed degree the centered, scaled statistic has nonvanishing third and
fourth cumulants in the fine-grid limit; the limits are eigenvalue power
sums of the limit operator, whose kernel is the increment correlation
profile, exact from its (l+1)×(l+1) limit core. The table shows the
finite-N values closing in as N⁻². Each row comes from the (l+1)×(l+1)
circle core of the increment Gram, which shares its nonzero spectrum and
tends to the limit core, so the sweep runs to N = 65536, far past the
grids an N×N Gram could hold.
"""

from sphereqv.covariance import LineGrid, increment_gram_fl
from sphereqv.moments import nclt_limit_cumulant, normalized_cumulant

ELL = 1
lim3 = nclt_limit_cumulant(ELL, 3)
lim4 = nclt_limit_cumulant(ELL, 4)
print(f"degree l = {ELL}")
print(f"limit kappa3 = {lim3:.9f}")
print(f"limit kappa4 = {lim4:.9f}")
print(f"{'N':>6} {'kappa3':>12} {'rel gap':>10} {'kappa4':>12} {'rel gap':>10}")
for n in (64, 128, 256, 512, 1024, 4096, 16384, 65536):
    gram = increment_gram_fl(ELL, 1.0, LineGrid(n))
    k3 = normalized_cumulant(gram, 3)
    k4 = normalized_cumulant(gram, 4)
    print(f"{n:>6} {k3:>12.7f} {abs(k3 - lim3) / lim3:>10.2e}"
          f" {k4:>12.7f} {abs(k4 - lim4) / lim4:>10.2e}")
print("a single chi-square(1) increment would give kappa3 = 2*sqrt(2);")
print("the limits above stay strictly below that because neighboring")
print("increments decorrelate only algebraically")
