"""Dense symmetric eigensolvers, with two entry points.

- :func:`sym_eig` and :func:`sym_eigenvalues` take matrices from outside.
  They check symmetry and return the LAPACK solver's result unchanged:
  ascending eigenvalues, orthonormal eigenvectors and no sign promise, since
  every consumer (cosines, quadratic forms, residual norms) is sign-invariant.
- :func:`owned_eigenvalues` takes a product matrix that kronspec built from
  its factors and will not read again. It skips the symmetry scan, because a
  ``Graph`` adjacency is exactly symmetric, and from order
  ``IN_PLACE_MIN_ORDER`` it lets LAPACK overwrite the matrix instead of
  copying it. It returns the same bits as ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SYMMETRY_TOL = 1e-10

# The measured crossover on 2 cores: from this order on, the in-place solve
# is no slower than eigvalsh with its copy, the scipy.linalg import (about
# 0.3 s) included, and saves the N x N copy (98 MB at N=3500), far more than
# the import's 28 MB. At N=1500 it was twice as slow and used more memory.
IN_PLACE_MIN_ORDER = 3500


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


def owned_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a C-ordered float64 matrix, symmetric by construction.

    Not checked: the caller built ``m`` and gives it up. From order
    ``IN_PLACE_MIN_ORDER`` the solve overwrites ``m``.
    """
    if m.shape[0] < IN_PLACE_MIN_ORDER:
        return np.linalg.eigvalsh(m)
    import scipy.linalg

    # m.T is a Fortran-ordered view of the same matrix, so LAPACK works in it
    return scipy.linalg.eigh(
        m.T, eigvals_only=True, overwrite_a=True, check_finite=False, driver="evd"
    )
