"""Prediction error, recall-frequency inflation, and sampling budgets.

A density predictor with generalization error xi inflates the static
recall frequency by Lambda * xi to second order.  Monte Carlo confirms
the coefficient; the closed-form budget allocation then sizes each
subregion's training set under an area-wide inflation cap.
"""

import math

import numpy as np

from uavrf import (
    LearningBudget,
    RadioConfig,
    environment_preset,
    min_sampling_numbers,
    subregion_eigenvalue,
    vc_epsilon,
)
from uavrf.patterns import DENSITY_FLOOR
from uavrf.sampling import rf_increment_exact_samples

radio = RadioConfig()
urban = environment_preset("urban")
area = 1e6
battery = area / math.pi

print("Sensitivity coefficient Lambda versus density (sparse is fragile):")
for lam in (0.1, 1.0, 3.0, 10.0):
    eig = subregion_eigenvalue(lam, 0.5, urban, radio, area, battery)
    print(f"  lambda = {lam:5.1f} /m^2 -> Lambda = {eig:.4e}")

print("\nMonte-Carlo check at lambda = 10 (200k draws per point):")
lam = 10.0
eig = subregion_eigenvalue(lam, 0.5, urban, radio, area, battery)
z = np.random.default_rng(7).standard_normal(200_000)
for frac in (0.01, 0.02):
    s = frac * lam
    inc = rf_increment_exact_samples(lam, np.maximum(lam + s * z, DENSITY_FLOOR),
                                     0.5, urban, radio, area, battery)
    print(f"  stddev {s:4.2f}: measured/xi = {inc.mean() / (s * s):.4e} "
          f"vs Lambda = {eig:.4e}")

print("\nDeviation bound: quadrupling the samples halves the error term:")
for n in (1000, 4000, 16000):
    print(f"  n = {n:6d} -> eps = {vc_epsilon(1000.0, n, 0.05):.5f}")

# Lambda is below 1e-2 here, so a cap above about 0.05 /s is met by one
# sample per zone and would show no difference between the zones
print("\nSampling budget for two zones under an inflation cap of 1e-4 /s:")
budget = LearningBudget(hypothesis_volume=1000.0, confidence_delta=0.05,
                        max_training_error=0.0, max_rf_increment=1e-4)
for lam_pair in ((0.1, 0.9), (0.3, 0.7), (0.5, 0.5)):
    eigs = [subregion_eigenvalue(l, 0.5, urban, radio, area, battery) for l in lam_pair]
    alloc = min_sampling_numbers(eigs, budget)
    print(f"  densities {lam_pair}: samples {tuple(alloc.counts_int)} "
          f"(xi caps {tuple(round(x, 4) for x in alloc.xi_bounds)})")
print("the sparser zone always needs the larger training set")
