"""Accuracy metrics for estimated spectra and eigenvectors.

Four families of measurements:

* correlation profiles: the cosine between x and L x for every candidate
  eigenvector x = u_i kron v_j, which is 1 exactly when x is an eigenvector,
  computed in closed form from the factors of a :class:`KroneckerLaplacian`;
* percentage-error vectors between sorted estimated and sorted exact
  spectra, with the matched zero eigenvalue dropped from both;
* aggregation of per-run error vectors into median and 5/95-percentile
  bands per rank;
* Gaussian kernel density curves (Silverman bandwidth) for
  correlation-coefficient samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, KroneckerLaplacian

# percentile convention for all error bands: linear interpolation
PERCENTILE_METHOD = "linear"

# grid points of every kde curve, and per block of its kernel evaluations:
# blocks bound its working memory to KDE_BLOCK x samples, not KDE_GRID x samples
KDE_GRID = 512
KDE_BLOCK = 32


@dataclass(frozen=True)
class ErrorProfile:
    """Per-rank percentage-error statistics across independent runs.

    Entry k of ``median``, ``p5`` and ``p95`` summarizes, over runs, the
    error of rank k+2 of the sorted spectrum (rank 1, the matched zeros, is
    dropped).
    """

    median: np.ndarray
    p5: np.ndarray
    p95: np.ndarray


@dataclass(frozen=True)
class DensityCurve:
    """Smoothed probability density on an even grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def _factor_terms(basis: np.ndarray, g: Graph):
    """Per-column factor quantities behind the product cosines.

    For each column u of a basis of factor g: a = D u and c = A u, split as
    c = alpha a + c_perp with c_perp orthogonal to a. Returns (u'u, u'a,
    u'c, |a|^2, alpha, |c_perp|^2), each of length n.
    """
    basis = np.asarray(basis, dtype=np.float64)
    a = g.degrees[:, None] * basis
    c = g.adjacency @ basis
    a_sq = np.einsum("ij,ij->j", a, a)
    # a = 0 forces c = 0 (an isolated vertex has no neighbours), so alpha = 0 is exact
    alpha = np.divide(
        np.einsum("ij,ij->j", a, c), a_sq, out=np.zeros_like(a_sq), where=a_sq > 0
    )
    c_perp = c - alpha * a
    return (
        np.einsum("ij,ij->j", basis, basis),
        np.einsum("ij,ij->j", basis, a),
        np.einsum("ij,ij->j", basis, c),
        a_sq,
        alpha,
        np.einsum("ij,ij->j", c_perp, c_perp),
    )


def correlation_profile(
    op: KroneckerLaplacian, basis1: np.ndarray, basis2: np.ndarray
) -> np.ndarray:
    """Cosine between x = u_i kron v_j and L x for every column pair (i, j).

    Returns a flat array of n1*n2 - 1 values in row-major (i, j) order with
    (0, 0) left out in both bases (only in the Laplacian basis is its image
    the zero vector), so pair (i, j) sits at index ``i * n2 + j - 1``; row
    i = 0 is ``profile[:n2 - 1]``. Every cosine comes from factor-level quantities in
    O(n^3 + n1 n2), no N x N matrix: with a = D1 u, c = A1 u, b = D2 v and
    e = A2 v,

    * x'Lx = (u'a)(v'b) - (u'c)(v'e);
    * L x = a(x)b - c(x)e. Splitting c = alpha a + c_perp and
      e = beta b + e_perp gives L x = (1 - alpha beta) a(x)b - alpha a(x)e_perp
      - beta c_perp(x)b - c_perp(x)e_perp, four mutually orthogonal terms, so
      ||L x||^2 is a sum of nonnegative squares with no cancellation.
    """
    if (basis1.shape[0], basis2.shape[0]) != (op.first.n, op.second.n):
        raise ValueError(
            f"basis dimensions {basis1.shape[0]}x{basis2.shape[0]} do not match factor "
            f"orders {op.first.n}x{op.second.n}"
        )
    u_sq, u_a, u_c, a_sq, alpha, cp_sq = _factor_terms(basis1, op.first)
    v_sq, v_b, v_e, b_sq, beta, ep_sq = _factor_terms(basis2, op.second)
    numerator = np.outer(u_a, v_b) - np.outer(u_c, v_e)
    image_sq = (
        (1.0 - np.outer(alpha, beta)) ** 2 * np.outer(a_sq, b_sq)
        + np.outer(alpha ** 2 * a_sq, ep_sq)
        + np.outer(cp_sq, beta ** 2 * b_sq)
        + np.outer(cp_sq, ep_sq)
    )
    denominator = (np.sqrt(image_sq) * np.sqrt(np.outer(u_sq, v_sq))).ravel()[1:]
    if not denominator.all():
        k = int(np.argmin(denominator != 0)) + 1
        pair = divmod(k, basis2.shape[1])
        raise ValueError(f"pair {pair} maps to the zero vector; cosine undefined")
    return numerator.ravel()[1:] / denominator


def percentage_errors(estimated: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Per-rank percentage error between sorted estimated and exact spectra.

    Both spectra are sorted ascending and rank 1 (the zero eigenvalue,
    matched exactly by construction) is dropped from both, so the result has
    n1*n2 - 1 entries: 100 * (est_k - act_k) / act_k. The exact spectrum
    must contain exactly one eigenvalue at or below 1e-8 times its largest;
    more means the product was disconnected and rank pairing is meaningless.
    """
    actual = np.asarray(actual, dtype=np.float64)
    if len(estimated) != len(actual):
        raise ValueError(f"length mismatch: {len(estimated)} estimated vs {len(actual)} actual")
    if np.any(np.diff(actual) < 0):
        raise ValueError("actual spectrum must be sorted ascending")
    cutoff = 1e-8 * max(float(actual[-1]), 1e-300)
    zeros = int(np.sum(actual <= cutoff))
    if zeros != 1:
        raise ValueError(
            f"expected exactly one zero eigenvalue, found {zeros} below {cutoff:g} "
            "(disconnected product?)"
        )
    est = np.sort(estimated)
    return 100.0 * (est[1:] - actual[1:]) / actual[1:]


def aggregate_profile(error_vectors) -> ErrorProfile:
    """Stack per-run error vectors and summarize per rank.

    Percentiles use linear interpolation; the summary always satisfies
    p5 <= median <= p95 rankwise.
    """
    samples = np.asarray(list(error_vectors), dtype=np.float64)
    if samples.size == 0:
        raise ValueError("no error vectors to aggregate")
    if samples.ndim == 1:
        samples = samples[None, :]
    p5, median, p95 = np.percentile(samples, [5, 50, 95], axis=0, method=PERCENTILE_METHOD)
    return ErrorProfile(median=median, p5=p5, p95=p95)


def kde(samples: np.ndarray) -> DensityCurve:
    """Gaussian kernel density estimate on an even grid of KDE_GRID points.

    The grid spans [min - 3h, max + 3h] with h the Silverman bandwidth
    1.06 * sigma * m^(-1/5) (sigma the sample standard deviation), so the
    curve integrates to 1 up to kernel tail mass. Needs at least two
    distinct samples. Kernels are evaluated KDE_BLOCK grid points at a time;
    each grid point's sum is the same whatever the block, so the curve does
    not depend on KDE_BLOCK.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) < 2:
        raise ValueError("kernel density needs at least 2 samples")
    h = 1.06 * float(np.std(samples, ddof=1)) * len(samples) ** (-0.2)
    if h <= 0.0:
        raise ValueError("zero-variance samples; kernel density degenerate")
    grid = np.linspace(samples.min() - 3 * h, samples.max() + 3 * h, KDE_GRID)
    sums = np.empty(KDE_GRID)
    for start in range(0, KDE_GRID, KDE_BLOCK):
        z = (grid[start:start + KDE_BLOCK, None] - samples[None, :]) / h
        sums[start:start + KDE_BLOCK] = np.exp(-0.5 * z * z).sum(axis=1)
    density = sums / (len(samples) * h * math.sqrt(2 * math.pi))
    return DensityCurve(grid=grid, density=density, bandwidth=h)
