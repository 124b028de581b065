"""Estimate the product Laplacian spectrum of one random factor pair.

Draws two connected Erdos-Renyi graphs (30 and 50 vertices, 30% density),
builds the 1500-vertex Kronecker product, and compares its exact Laplacian
spectrum to both estimates. Also checks the closed form for the first-row
correlation coefficients: every r(1, j) equals the mean of the first
factor's degrees over their root mean square.
"""

import numpy as np

from kronspec import (
    GeneratorSpec,
    KroneckerLaplacian,
    correlation_profile,
    generate_connected_pair,
    mean_rms_ratio,
    normalized_estimate,
    percentage_errors,
    product_spectrum,
    sayama_spectrum,
)
from kronspec.estimators import Ordering, OrderingKind
from kronspec.spectral import factor_spectra

SEED = 7

g1, g2 = generate_connected_pair(
    GeneratorSpec("ER", 30, 0.30, seed=SEED),
    GeneratorSpec("ER", 50, 0.30, seed=SEED + 1),
)
print(f"factors: n={g1.n} (m={g1.edge_count}), n={g2.n} (m={g2.edge_count})")

op = KroneckerLaplacian(g1, g2)
exact = product_spectrum(op)
edges = 2 * g1.edge_count * g2.edge_count  # each factor edge pair gives two product edges
print(f"product: n={g1.n * g2.n}, m={edges}, lambda_max={exact[-1]:.2f}")

f1, f2 = factor_spectra(g1), factor_spectra(g2)
d1, d2 = f1.degrees, f2.degrees
(mu1, w1), (mu2, w2) = f1.laplacian, f2.laplacian
lam1, lam2 = f1.normalized.eigenvalues, f2.normalized.eigenvalues

w_est = sayama_spectrum(mu1, d1, mu2, d2)
v_est = normalized_estimate(
    lam1, d1, lam2, d2, Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=SEED)
)

for name, est in (("w-basis (correlated)", w_est), ("v-basis (uncorrelated)", v_est)):
    errors = percentage_errors(est, exact)
    q = np.percentile(np.abs(errors), [50, 90, 99])
    print(f"{name:24s} |error| median {q[0]:6.2f}%   p90 {q[1]:6.2f}%   p99 {q[2]:6.2f}%")

# first-row correlation coefficients vs the degree closed form
# the profile is row-major over (i, j) with (0, 0) dropped: row 0 leads
row = correlation_profile(op, w1, w2)[: g2.n - 1]
print()
print("r(1, j) observed:", " ".join(f"{r:.8f}" for r in row[:5]))
print("mean/RMS formula:", f"{mean_rms_ratio(g1.degrees):.8f}")
