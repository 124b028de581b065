"""Percentage-error bands across edge densities, at reduced run count.

Runs the (30, 50) Erdos-Renyi configuration at densities 10/30/65% with 15
runs each (the full protocol uses 100) and prints how the per-rank median
errors tighten as the graphs densify, for both estimators. Writes the
plot-ready CSV bundles into demos_out/error_bands/.
"""

import numpy as np

from kronspec.estimators import Estimator
from kronspec.experiments import ExperimentConfig, run_experiment

RUNS = 15

print(f"{'density':>8} {'estimator':>22} {'mean|median|':>13} {'within 10%':>11} {'within 2%':>10}")
for density in (0.10, 0.30, 0.65):
    bundle = run_experiment(
        ExperimentConfig(
            model="ER",
            orders=(30, 50),
            density=density,
            runs=RUNS,
            master_seed=99,
            compute_correlations=False,
            output_dir=f"demos_out/error_bands/d{int(density * 100)}",
        )
    )
    for estimator in Estimator:
        median = bundle.error_profiles[estimator].median
        print(
            f"{density:8.0%} {estimator.value:>22} {np.abs(median).mean():12.2f}% "
            f"{np.mean(np.abs(median) <= 10):11.1%} {np.mean(np.abs(median) <= 2):10.1%}"
        )

print("\nCSV bundles written under demos_out/error_bands/")
