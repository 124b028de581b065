"""Dense symmetric eigendecomposition and the cosine between two vectors.

Everything downstream consumes spectra through :func:`sym_eig`, which wraps
the LAPACK symmetric solver and pins down a reproducible eigenvector sign
convention (first significant component positive). Eigenvalues always come
back ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns.

    Column j of ``eigenvectors`` pairs with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


SYMMETRY_BLOCK = 256


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    """Require ``max|m - m.T| <= SYMMETRY_TOL * max(1, max|m|)``.

    Compares row blocks with the matching column blocks, so the check needs
    O(SYMMETRY_BLOCK * n) extra memory rather than N x N temporaries.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    limit = SYMMETRY_TOL * max(1.0, float(m.max()), -float(m.min()))
    for i in range(0, m.shape[0], SYMMETRY_BLOCK):
        rows = m[i:i + SYMMETRY_BLOCK]
        if np.abs(rows - m[:, i:i + SYMMETRY_BLOCK].T).max() > limit:
            raise ValueError("matrix is not symmetric")
    return m


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the first significant entry is positive."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        significant = np.nonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0]
        pivot = significant[0] if len(significant) else 0
        if col[pivot] < 0:
            vectors[:, j] = -col
    return vectors


def sym_eig(m: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Deterministic for a fixed input: eigenvalues ascending, each eigenvector
    sign-normalized so its first significant component is positive.
    Raises numpy.linalg.LinAlgError if the solver fails to converge.
    """
    m = _check_symmetric(m)
    values, vectors = np.linalg.eigh(m)
    return SpectralDecomposition(eigenvalues=values, eigenvectors=_fix_signs(vectors))


def sym_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only; cheaper than sym_eig when vectors are unused."""
    return np.linalg.eigvalsh(_check_symmetric(m))


def cosine(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors, in [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValueError("cosine undefined for a zero vector")
    return float(np.dot(x, y) / (nx * ny))
