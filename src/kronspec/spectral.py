"""Every eigensolve kronspec makes: factor decompositions and exact product spectra.

No other module calls a numpy eigensolver: the theory checks, too, solve through
:func:`factor_spectra` and :func:`owned_eigenvalues`. :func:`factor_spectra` returns
``np.linalg.eigh`` results: ascending eigenvalues, orthonormal eigenvectors and no
sign promise, since every consumer (cosines, quadratic forms, residual norms) is
sign-invariant. :func:`product_spectrum` makes every solve decision for the product
Laplacian: blocks or dense, in place or copied, solved or read from the cache.

No solve scans its input for symmetry. ``Graph.__post_init__`` checks that
an adjacency equals its transpose exactly where outside input enters, and
each factor Laplacian and block is formed from such adjacencies by
operations that keep the equality. :func:`owned_eigenvalues` reads only the
upper triangle (diagonal included) of the matrix it is given, so the dense
product (:func:`_product_upper`) and the theory checks' expected products are
built as that triangle alone, in a buffer from :func:`upper_buffer` whose lower
triangle is left as zero pages that are never written.
``test_owned_matrices_are_exactly_symmetric`` checks every matrix a solve receives.
"""

from __future__ import annotations

import mmap
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
    """Ascending eigenvalues of a float64 symmetric matrix, from its upper triangle.

    Only the upper triangle of ``m``, diagonal included, is read, and its
    rows may be padded (:func:`upper_buffer`). The caller built ``m`` and
    gives it up. From order ``IN_PLACE_MIN_ORDER`` the solve overwrites a
    C-contiguous ``m`` instead of copying it, with the same bits as
    ``np.linalg.eigvalsh``.
    """
    # m.T is a column-major view whose lower triangle, the one LAPACK
    # reads, is m's upper triangle
    if m.shape[0] < IN_PLACE_MIN_ORDER:
        return np.linalg.eigvalsh(m.T)
    import scipy.linalg

    return scipy.linalg.eigh(
        m.T, eigvals_only=True, overwrite_a=True, check_finite=False, driver="evd"
    )


_spectra: dict[str, np.ndarray] = {}  # least recently used first


def upper_buffer(n: int) -> np.ndarray:
    """A fresh (n, n) float64 matrix of +0.0, to build a triangle for :func:`owned_eigenvalues` in.

    Write only the upper triangle (diagonal included), through slices: the
    pages that hold nothing else are never written and never committed.
    Below ``IN_PLACE_MIN_ORDER``, where ``eigvalsh`` copies the matrix
    anyway, each row is padded so that its diagonal entry, where its part of
    the triangle starts, starts a page; from that order on the rows are
    contiguous, as the in-place solve needs them.
    """
    per_page = mmap.PAGESIZE // 8
    # row stride lda with (lda + 1) entries a whole number of pages
    lda = n if n >= IN_PLACE_MIN_ORDER else -(-(n + 1) // per_page) * per_page - 1
    # private, because reading an unwritten page of a shared (shmem) mapping
    # allocates it, and no huge pages, because each would commit 2 MB around
    # the entries written into it
    buf = mmap.mmap(-1, 8 * n * lda, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    no_huge_pages = getattr(mmap, "MADV_NOHUGEPAGE", None)
    if no_huge_pages is not None:
        buf.madvise(no_huge_pages)
    return np.ndarray((n, n), np.float64, buf, strides=(8 * lda, 8))


def _product_upper(op: KroneckerLaplacian) -> np.ndarray:
    """The upper triangle of ``op``'s N x N Laplacian, diagonal included, in an upper_buffer.

    Entry for entry, signed zeros included, it is the upper triangle of
    ``diag(d1 (x) d2) + (-A1) (x) A2`` (as ``np.kron`` forms it), written one
    block row at a time from the factors; below the diagonal it is +0.0.
    """
    g, h = op.first, op.second
    m = upper_buffer(g.n * h.n)
    upper = np.triu_indices(h.n)
    for i in range(g.n):
        rows = m[i * h.n : (i + 1) * h.n]
        # block (i, j) is -A1[i, j] * A2; those right of the diagonal block in one
        # step, through a view (copy=False raises where a padded row would need a copy)
        right = rows.reshape(h.n, g.n, h.n, copy=False)[:, i + 1 :]
        np.multiply(-g.adjacency[i, i + 1 :, None], h.adjacency[:, None, :], out=right)
        block = -g.adjacency[i, i] * h.adjacency
        np.fill_diagonal(block, g.degrees[i] * h.degrees)
        rows[:, i * h.n : (i + 1) * h.n][upper] = block[upper]
    return m


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
    N x N matrix; any other product is solved densely by
    :func:`owned_eigenvalues` from the upper triangle :func:`_product_upper`
    builds. A process solves each distinct product once: the spectrum is
    kept under a SHA-256 of the two factor adjacencies, in order (the
    degrees are their row sums), so a repeated product (the same seeded pair
    under another ordering) skips both the build and the solve.
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
            spectrum = owned_eigenvalues(_product_upper(op))
        spectrum.setflags(write=False)
    _spectra[key] = spectrum
    if len(_spectra) > SPECTRUM_CACHE_ENTRIES:
        _spectra.pop(next(iter(_spectra)))
    return spectrum
