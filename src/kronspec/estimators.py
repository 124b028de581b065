"""Estimated Laplacian spectra of Kronecker products from factor spectra.

Two estimation formulas are provided. Both pair factor eigenvalues with
factor degrees positionally, with degree sequences fixed in ascending order
and the eigenvalue order controlled by a heuristic:

* the Laplacian-eigenvector estimate combines factor Laplacian eigenvalues
  mu with degrees d as ``mu_i*d'_j + d_i*mu'_j - mu_i*mu'_j``;
* the normalized-Laplacian estimate combines factor normalized-Laplacian
  eigenvalues lam as ``(lam_i + lam'_j - lam_i*lam'_j) * d_i * d'_j``.

Both return the n1*n2 estimated eigenvalues as a flat float64 array in
row-major order over the (reordered) factor indices; the corresponding
estimated eigenvectors are Kronecker products of factor eigenvector columns.
The correlated ordering (eigenvalues ascending, like the degrees) is the
default and the most accurate heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# factor eigenvalues closer to zero than this (relative to the spectrum
# scale) are snapped to exactly 0.0, so the estimate of the product's zero
# eigenvalue is an exact zero
ZERO_SNAP = 1e-12


class OrderingKind(str, Enum):
    UNCORRELATED = "Uncorrelated"
    CORRELATED = "Correlated"
    CORRELATED_RANDOMIZED = "CorrelatedRandomized"
    ANTI_CORRELATED = "AntiCorrelated"
    ANTI_CORRELATED_RANDOMIZED = "AntiCorrelatedRandomized"


_RANDOMIZED = (OrderingKind.CORRELATED_RANDOMIZED, OrderingKind.ANTI_CORRELATED_RANDOMIZED)


class Estimator(str, Enum):
    SAYAMA_LAPLACIAN = "SayamaLaplacian"
    NORMALIZED_LAPLACIAN = "NormalizedLaplacian"


@dataclass(frozen=True)
class Ordering:
    """Eigenvalue-ordering heuristic plus its randomization knobs.

    ``swap_count`` is the number of random adjacent transpositions applied
    after sorting (randomized kinds only); None means the default n // 4.
    """

    kind: OrderingKind = OrderingKind.CORRELATED
    randomization_seed: int = 0
    swap_count: int | None = None

    def __post_init__(self):
        if self.swap_count is not None and self.swap_count < 0:
            raise ValueError("swap_count must be nonnegative")
        if self.kind not in _RANDOMIZED and self.swap_count not in (None, 0):
            raise ValueError(f"swap_count must be 0 for ordering kind {self.kind.value}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "randomization_seed": self.randomization_seed,
            "swap_count": self.swap_count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Ordering":
        """Inverse of :meth:`to_dict`; absent keys take the field defaults."""
        coerce = {"kind": OrderingKind, "randomization_seed": int}
        return cls(**{key: coerce[key](v) if key in coerce else v for key, v in data.items()})


def apply_ordering(values: np.ndarray, ordering: Ordering, seed_salt: int = 0) -> np.ndarray:
    """Index permutation realizing the requested eigenvalue ordering.

    Correlated sorts ascending, AntiCorrelated descending, Uncorrelated is a
    seeded uniform shuffle, and the randomized kinds start from their sorted
    base order and apply swap_count seeded adjacent transpositions.
    ``seed_salt`` decouples the two factors of one estimate.
    """
    values = np.asarray(values)
    n = len(values)
    kind = ordering.kind
    if kind == OrderingKind.CORRELATED:
        return np.argsort(values, kind="stable")
    if kind == OrderingKind.ANTI_CORRELATED:
        return np.argsort(-values, kind="stable")
    rng = np.random.default_rng((ordering.randomization_seed, seed_salt))
    if kind == OrderingKind.UNCORRELATED:
        return rng.permutation(n)
    base = np.argsort(values, kind="stable")
    if kind == OrderingKind.ANTI_CORRELATED_RANDOMIZED:
        base = np.argsort(-values, kind="stable")
    swaps = ordering.swap_count if ordering.swap_count is not None else n // 4
    perm = base.copy()
    for _ in range(swaps):
        pos = int(rng.integers(0, n - 1))
        perm[pos], perm[pos + 1] = perm[pos + 1], perm[pos]
    return perm


def _snap_zeros(values: np.ndarray) -> np.ndarray:
    values = np.array(values, dtype=np.float64)
    scale = max(1.0, float(np.abs(values).max()))
    values[np.abs(values) <= ZERO_SNAP * scale] = 0.0
    return values


def _check_factors(values1, d1, values2, d2):
    if len(values1) != len(d1):
        raise ValueError(f"factor 1: {len(values1)} eigenvalues vs {len(d1)} degrees")
    if len(values2) != len(d2):
        raise ValueError(f"factor 2: {len(values2)} eigenvalues vs {len(d2)} degrees")
    for d in (d1, d2):
        if np.any(np.diff(d) < 0):
            raise ValueError("degree sequences must be sorted ascending")


def _combine(values1, d1, values2, d2, ordering, cell) -> np.ndarray:
    _check_factors(values1, d1, values2, d2)
    perm1 = apply_ordering(values1, ordering, seed_salt=1)
    perm2 = apply_ordering(values2, ordering, seed_salt=2)
    e1 = _snap_zeros(np.asarray(values1, dtype=np.float64)[perm1])
    e2 = _snap_zeros(np.asarray(values2, dtype=np.float64)[perm2])
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    return cell(e1[:, None], d1[:, None], e2[None, :], d2[None, :]).ravel()


def sayama_spectrum(mu1, d1, mu2, d2, ordering: Ordering = Ordering()) -> np.ndarray:
    """Estimate from factor Laplacian eigenvalues: mu_i*d'_j + d_i*mu'_j - mu_i*mu'_j.

    ``d1`` and ``d2`` must be sorted ascending; the ordering controls how the
    eigenvalues are paired against them. The entry pairing the two zero
    eigenvalues is exactly 0.
    """
    return _combine(
        mu1, d1, mu2, d2, ordering,
        lambda e1, dd1, e2, dd2: e1 * dd2 + dd1 * e2 - e1 * e2,
    )


def normalized_estimate(lam1, d1, lam2, d2, ordering: Ordering = Ordering()) -> np.ndarray:
    """Estimate from factor normalized-Laplacian eigenvalues.

    Each value is ``(lam_i + lam'_j - lam_i*lam'_j) * d_i * d'_j``, which is
    nonnegative for any ordering since every lam lies in [0, 2].
    """
    return _combine(
        lam1, d1, lam2, d2, ordering,
        lambda e1, dd1, e2, dd2: (e1 + e2 - e1 * e2) * dd1 * dd2,
    )

