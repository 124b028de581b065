"""Closed-form correlation coefficients, bounds, and expected spectra.

The quantities here tie degree statistics of one factor graph to the
correlation coefficients of the estimated product eigenvectors:

* the coefficient for the pair (first Laplacian eigenvector, any other
  factor eigenvector) equals the arithmetic mean of the first factor's
  degrees over their root mean square;
* for Erdos-Renyi factors this coefficient is, in expectation and for
  large order, sqrt((n-1)p / (1 - p + (n-1)p));
* the normalized-basis counterpart is bounded below by
  M1 / sqrt(F * 2m) times the second factor's own coefficient, where M1,
  F and 2m are the sums of squared, cubed, and plain vertex degrees;
* the normalized Laplacian of the expected adjacency of an ER Kronecker
  product has a four-level spectrum independent of p.

Power sums are accumulated in exact integer arithmetic before the final
floating-point ratio.
"""

from __future__ import annotations

import numpy as np


def _power_sums(degrees) -> tuple[int, int, int]:
    """(sum d, sum d^2, sum d^3) of a degree sequence, as exact integers."""
    ds = [int(d) for d in degrees]
    if not ds or min(ds) < 1:
        raise ValueError("degrees must be nonempty with every entry at least 1")
    return sum(ds), sum(d * d for d in ds), sum(d * d * d for d in ds)


def mean_rms_ratio(degrees) -> float:
    """Arithmetic mean of the degrees over their root mean square.

    Always in (0, 1], with equality exactly for regular graphs. This is the
    correlation coefficient between 1 kron w_j and its image under the
    product Laplacian, for every j >= 2.
    """
    sum_d, sum_d2, _ = _power_sums(degrees)
    return sum_d / float(np.sqrt(len(degrees) * sum_d2))


def expected_r1j(n: int, p: float) -> float:
    """Large-order expectation of the mean/RMS coefficient for G(n, p).

    sqrt((n-1)p / (1 - p + (n-1)p)); increases to 1 as either n grows at
    fixed p or p tends to 1.
    """
    if n < 2:
        raise ValueError(f"order must be at least 2, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"edge probability must be in (0, 1), got {p}")
    return float(np.sqrt((n - 1) * p / (1.0 - p + (n - 1) * p)))


def rprime_lower_bound(degrees, r_j_s2: float) -> float:
    """Lower bound on the normalized-basis coefficient r'(1, j).

    M1 / sqrt(F * 2m) * r_j, where the degree indices are taken from the
    first factor and r_j is the second factor's own coefficient
    cosine(v_j, L v_j). The prefactor never exceeds 1 (Cauchy-Schwarz) and
    equals 1 exactly for regular first factors.
    """
    sum_d, sum_d2, sum_d3 = _power_sums(degrees)
    if not -1e-9 <= r_j_s2 <= 1.0 + 1e-9:
        raise ValueError(f"correlation coefficient out of [0, 1]: {r_j_s2}")
    return sum_d2 / float(np.sqrt(sum_d3 * sum_d)) * min(max(r_j_s2, 0.0), 1.0)


def asymptotic_cubic(n, p):
    """The reduced cubic (n-2)p^3 - 3(n-2)p^2 + (2n-5)p + 1, elementwise in ``n`` and ``p``."""
    return (n - 2) * p ** 3 - 3 * (n - 2) * p ** 2 + (2 * n - 5) * p + 1


def expected_kron_normalized_spectrum(n1: int, n2: int) -> list[tuple[float, int]]:
    """Four-level normalized-Laplacian spectrum of the expected ER product.

    The expected adjacency of G(n, p) is p(J - I); the normalized Laplacian
    of the Kronecker product of two of them does not depend on p and has
    eigenvalues (with multiplicities):

        0 (1), n2/(n2-1) (n2-1), n1/(n1-1) (n1-1),
        1 - 1/((n1-1)(n2-1)) ((n1-1)(n2-1)).
    """
    if n1 < 2 or n2 < 2:
        raise ValueError(f"orders must be at least 2, got ({n1}, {n2})")
    return [
        (0.0, 1),
        (n2 / (n2 - 1.0), n2 - 1),
        (n1 / (n1 - 1.0), n1 - 1),
        (1.0 - 1.0 / ((n1 - 1.0) * (n2 - 1.0)), (n1 - 1) * (n2 - 1)),
    ]


def sayama_bound_holds(mu, d) -> bool:
    """Check mu_i <= 2 d_i, with eigenvalues and degrees in any order, each paired ascending.

    This Courant-Fischer bound is what makes every Laplacian-basis
    estimated eigenvalue nonnegative under the correlated ordering.
    """
    mu = np.sort(np.asarray(mu, dtype=np.float64))
    d = np.sort(np.asarray(d, dtype=np.float64))
    if len(mu) != len(d):
        raise ValueError(f"length mismatch: {len(mu)} eigenvalues vs {len(d)} degrees")
    return bool(np.all(mu <= 2.0 * d + 1e-9))
