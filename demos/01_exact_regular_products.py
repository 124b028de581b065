"""Regular factor graphs: the estimated spectra are exact.

When both factors are regular, their eigenvector bases diagonalize the
degree matrices too, so the approximation step in both estimation formulas
becomes an identity. This script builds C4 (x) K3, prints the exact product
Laplacian spectrum next to both estimates, and shows the agreement is at
machine precision.
"""

import numpy as np

from kronspec.estimators import normalized_estimate, sayama_spectrum
from kronspec.graphs import KroneckerLaplacian, build_graph, kronecker_graph
from kronspec.spectral import factor_spectra, product_spectrum

c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])

product = kronecker_graph(c4, k3)
exact = product_spectrum(KroneckerLaplacian(c4, k3))

f1, f2 = factor_spectra(c4), factor_spectra(k3)
mu1, d1 = f1.laplacian.eigenvalues, f1.degrees
mu2, d2 = f2.laplacian.eigenvalues, f2.degrees
lam1, lam2 = f1.normalized.eigenvalues, f2.normalized.eigenvalues

from_laplacian = np.sort(sayama_spectrum(mu1, d1, mu2, d2))
from_normalized = np.sort(normalized_estimate(lam1, d1, lam2, d2))

print("C4 (x) K3: 12 vertices,", product.edge_count, "edges")
print(f"{'exact':>10} {'w-basis':>10} {'v-basis':>10}")
for k in range(product.n):
    print(f"{exact[k]:10.6f} {from_laplacian[k]:10.6f} {from_normalized[k]:10.6f}")

print()
print("max |w-basis - exact|:", f"{np.abs(from_laplacian - exact).max():.2e}")
print("max |v-basis - exact|:", f"{np.abs(from_normalized - exact).max():.2e}")
