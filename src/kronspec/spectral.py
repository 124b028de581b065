"""Dense symmetric eigendecomposition.

Everything downstream consumes spectra through :func:`sym_eig`, which checks
symmetry and returns the LAPACK solver's eigenpairs unchanged: ascending
eigenvalues, orthonormal eigenvectors and no sign promise, since every
consumer (cosines, quadratic forms, residual norms) is sign-invariant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-10


class SpectralDecomposition(NamedTuple):
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


def sym_eig(m: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix, as ``np.linalg.eigh`` returns it.

    Eigenvalues ascending, eigenvectors orthonormal, no sign promise.
    Raises numpy.linalg.LinAlgError if the solver fails to converge.
    """
    return SpectralDecomposition(*np.linalg.eigh(_check_symmetric(m)))


def sym_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues only; cheaper than sym_eig when vectors are unused."""
    return np.linalg.eigvalsh(_check_symmetric(m))
