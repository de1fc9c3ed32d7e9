"""One full verification experiment, from config dict to checked report.

Builds a small experiment in code (the CLI reads the same shape from JSON),
runs it on the calling thread, prints the CSV, and then asks the oracle
checker whether every Monte Carlo column sits within four standard errors
of its exact counterpart.
"""

from sphereqv.harness import (
    ExperimentConfig,
    check_oracle_agreement,
    run_experiment,
)

config = ExperimentConfig.from_dict({
    "seed": 20240801,
    "replications": 4000,
    "statistics": ["mean", "var", "k3", "estimator_error"],
    "target": {"kind": "single_ell", "c_ell": 1.0},
    "cells": [[2, 64], [2, 128], [2, 256]],
    "regime": {"kind": "fixed_ell"},
    "batch_size": 500,
})

report = run_experiment(config)
print(report.to_csv(), end="")

ok, checked, failures = check_oracle_agreement(report)
print(f"oracle columns checked: {checked}, within 4 SE: {ok}")
for stat, ell, n, gap in failures:
    print(f"  {stat} at (l={ell}, N={n}) off by {gap:.2f} SE")
if report.slopes:
    print("fitted sweep slopes (value, standard error):")
    for key, (val, err) in sorted(report.slopes.items()):
        print(f"  {key}: {val:.4f} ± {err:.4f}")
