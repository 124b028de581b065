"""Every eigensolve of a run: the factor decompositions and the exact product spectrum.

:func:`factor_spectra` returns ``np.linalg.eigh`` results: ascending eigenvalues,
orthonormal eigenvectors and no sign promise, since every consumer (cosines,
quadratic forms, residual norms) is sign-invariant. :func:`product_spectrum`
makes every solve decision for the product Laplacian: blocks or dense, in
place or copied, solved or read from the per-process cache.

No solve scans its input for symmetry, because every matrix solved here is
built symmetric: ``Graph.__post_init__`` checks that an adjacency equals its
transpose exactly where outside input enters, and each Laplacian, block and
product is formed from such adjacencies by operations that keep the equality.
``test_owned_matrices_are_exactly_symmetric`` checks every matrix a solve receives.
"""

from __future__ import annotations

from hashlib import sha256
from typing import NamedTuple

import numpy as np

from .graphs import Graph, KroneckerLaplacian, laplacian, normalized_laplacian

# The measured crossover on 2 cores: from this order on, the in-place solve
# is no slower than eigvalsh with its copy, the scipy.linalg import (about
# 0.3 s) included, and saves the N x N copy (98 MB at N=3500), far more than
# the import's 28 MB. At N=1500 it was twice as slow and used more memory.
IN_PLACE_MIN_ORDER = 3500

# Exact product spectra kept per process before the least recently used
# one is dropped.
SPECTRUM_CACHE_ENTRIES = 2048


class FactorSpectra(NamedTuple):
    """What both estimators need from one factor graph."""

    # np.linalg.eigh results: column j of .eigenvectors pairs with .eigenvalues[j]
    laplacian: tuple[np.ndarray, np.ndarray]
    normalized: tuple[np.ndarray, np.ndarray]
    degrees: np.ndarray


def factor_spectra(g: Graph) -> FactorSpectra:
    """Both eigendecompositions of one factor (Laplacian, normalized) and its degrees."""
    return FactorSpectra(
        np.linalg.eigh(laplacian(g)), np.linalg.eigh(normalized_laplacian(g)), g.degrees
    )


def owned_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a C-ordered float64 matrix, symmetric by construction.

    The caller built ``m`` and gives it up. From order ``IN_PLACE_MIN_ORDER``
    the solve overwrites ``m`` instead of copying it, with the same bits as
    ``np.linalg.eigvalsh``.
    """
    if m.shape[0] < IN_PLACE_MIN_ORDER:
        return np.linalg.eigvalsh(m)
    import scipy.linalg

    # m.T is a Fortran-ordered view of the same matrix, so LAPACK works in it
    return scipy.linalg.eigh(
        m.T, eigvals_only=True, overwrite_a=True, check_finite=False, driver="evd"
    )


_spectra: dict[str, np.ndarray] = {}  # least recently used first


def _block_spectrum(op: KroneckerLaplacian) -> np.ndarray | None:
    """The product spectrum from small blocks if a factor is regular, else None.

    With a k-regular factor ``r`` whose adjacency has eigenvalues theta,
    ``L`` is orthogonally similar to ``blockdiag_j(k D - theta_j A)`` over
    the other factor's degrees D and adjacency A (Van Loan, JCAM 2000). The
    larger regular factor is ``r`` (the second on a tie), so the blocks have
    the smaller order; they are solved one at a time, never stacked, each
    by :func:`owned_eigenvalues` (a block is built here and dropped).
    """
    regular = [g for g in (op.second, op.first) if np.all(g.degrees == g.degrees[0])]
    if not regular:
        return None
    r = max(regular, key=lambda g: g.n)
    other = op.first if r is op.second else op.second
    kd = np.diag(r.degrees[0] * other.degrees)
    theta = np.linalg.eigvalsh(r.adjacency)
    return np.sort(np.concatenate([owned_eigenvalues(kd - t * other.adjacency) for t in theta]))


def product_spectrum(op: KroneckerLaplacian) -> np.ndarray:
    """Ascending exact eigenvalues of the product Laplacian, read-only.

    A regular factor gives n small blocks (:func:`_block_spectrum`) and no
    N x N matrix; any other product is solved densely from ``op.dense()`` by
    :func:`owned_eigenvalues`. A process solves each distinct product once:
    the spectrum is kept under a SHA-256 of the two factor adjacencies, in
    order (the degrees are their row sums), so a repeated product (the same
    seeded pair under another ordering) skips both the build and the solve.
    """
    digest = sha256()
    for g in (op.first, op.second):
        digest.update(f"{g.adjacency.shape}".encode())
        digest.update(g.adjacency.tobytes())
    key = digest.hexdigest()
    spectrum = _spectra.pop(key, None)
    if spectrum is None:
        spectrum = _block_spectrum(op)
        if spectrum is None:
            spectrum = owned_eigenvalues(op.dense())
        spectrum.setflags(write=False)
    _spectra[key] = spectrum
    if len(_spectra) > SPECTRUM_CACHE_ENTRIES:
        _spectra.pop(next(iter(_spectra)))
    return spectrum
