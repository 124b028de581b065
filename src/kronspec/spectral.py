"""Every eigensolve kronspec makes: factor decompositions and exact product spectra.

No other module calls a numpy eigensolver, and here only :func:`factor_spectra`
does: it returns numpy's ``eigh`` results (ascending eigenvalues, orthonormal
eigenvectors and no sign promise, since every consumer, cosines, quadratic forms
and residual norms, is sign-invariant). Every solve for eigenvalues alone, the
theory checks' and the block path's included, is :func:`owned_eigenvalues`.
:func:`product_spectrum` makes every solve decision for the product Laplacian:
blocks or one dense matrix, solved or read from the cache.

No solve scans its input for symmetry. ``Graph.__post_init__`` checks that
an adjacency equals its transpose exactly where outside input enters, and
each factor Laplacian and block is formed from such adjacencies by
operations that keep the equality. :func:`owned_eigenvalues` reads only the
upper triangle (diagonal included) of the matrix it is given, so the dense
product (:func:`_product_upper`) and the theory checks' expected products are
built as that triangle alone, in a buffer from :func:`upper_buffer` whose lower
triangle is left as zero pages that are never written.
``test_owned_matrices_are_exactly_symmetric`` checks every matrix a solve receives.

:func:`owned_eigenvalues` calls LAPACK from the library numpy links. Below
``TWO_STAGE_MIN_ORDER`` (4000) it calls ``dsyevd``, as numpy's value-only
solve does, with the same workspace, so those values have numpy's bits.
From that order up it calls ``dsyevd_2stage``, whose two-stage tridiagonal
reduction (dense to band, then band to tridiagonal; Haidar, Ltaief and
Dongarra, SC'11) does in matrix-matrix products the half of the work that
``dsyevd`` does in memory-bound matrix-vector ones: 20-27% faster at orders
4000-6000 on two cores, for a larger workspace (3.98 MiB at order 5000,
against 1.30 MiB). Only those products lose numpy's bits; they agree with
numpy's values to about 1e-14 of the largest eigenvalue.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
from hashlib import sha256
from typing import NamedTuple

import numpy as np

from .graphs import Graph, KroneckerLaplacian, laplacian, normalized_laplacian

# Exact product spectra kept per process before the least recently used
# one is dropped.
SPECTRUM_CACHE_ENTRIES = 2048

# the smallest order owned_eigenvalues solves with dsyevd_2stage, not dsyevd
TWO_STAGE_MIN_ORDER = 4000


class FactorSpectra(NamedTuple):
    """What both estimators need from one factor graph."""

    # numpy's eigh results: column j of .eigenvectors pairs with .eigenvalues[j]
    laplacian: tuple[np.ndarray, np.ndarray]
    normalized: tuple[np.ndarray, np.ndarray]
    degrees: np.ndarray


def factor_spectra(g: Graph) -> FactorSpectra:
    """Both eigendecompositions of one factor (Laplacian, normalized) and its degrees."""
    return FactorSpectra(
        np.linalg.eigh(laplacian(g)), np.linalg.eigh(normalized_laplacian(g)), g.degrees
    )


def owned_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a float64 symmetric matrix, from its upper triangle, in place.

    Only the upper triangle of ``m``, diagonal included, is read, and its
    rows may be padded (:func:`upper_buffer`). The caller built ``m`` and
    gives it up: LAPACK, from the library numpy links and with the optimal
    workspace, overwrites it. Below ``TWO_STAGE_MIN_ORDER`` the driver is
    ``dsyevd`` with the workspace numpy's own value-only solve asks for, so
    the values have that solve's bits; from that order up it is
    ``dsyevd_2stage``, whose two-stage tridiagonal reduction (dense to band,
    then band to tridiagonal) is faster there and rounds differently. Any
    matrix but a writable square float64 one with unit column stride and a
    row stride of at least its order is a ValueError, never a silent copy.
    """
    n = len(m)
    if not (
        m.dtype == np.float64
        and m.shape == (n, n)
        and m.flags.writeable
        and m.strides[1] == 8
        and m.strides[0] >= 8 * n
        and m.strides[0] % 8 == 0
    ):
        raise ValueError(
            "owned_eigenvalues needs a writable square float64 matrix with unit column stride "
            f"and a row stride of at least its order, got {m.dtype} {m.shape}, strides "
            f"{m.strides}, writable={m.flags.writeable}"
        )
    routine = "dsyevd_2stage" if n >= TWO_STAGE_MIN_ORDER else "dsyevd"
    solve, integer = _lapack(routine)
    order, work, lwork, iwork, liwork = _workspace(routine, n)
    values, info = (ctypes.c_double * n)(), integer()
    # m's rows are the columns of the column-major matrix LAPACK sees, so its
    # lower triangle ("L") is m's upper one and its leading dimension m's row stride
    a, lda, status = m.ctypes.data, ctypes.byref(integer(m.strides[0] // 8)), ctypes.byref(info)
    solve(b"N", b"L", order, a, lda, values, work(), lwork, iwork(), liwork, status, 1, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed at order {n}: info {info.value}")
    return np.frombuffer(values)


def _dsyevd_symbols(routine: str) -> list[str]:
    """The names numpy's linked LAPACK may give ``routine``, in the order they are tried.

    numpy's wheels bundle an OpenBLAS build, named ``<project>-openblas`` in
    numpy's build configuration, that prefixes every symbol ``<project>_``;
    a 64-bit-integer build also suffixes it ``64_``.
    """
    lapack = np.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    project, dash, vendor = str(lapack.get("name", "")).rpartition("-")
    prefixes = [f"{project}_"] if dash and vendor == "openblas" else []
    return [prefix + routine + suffix for prefix in [*prefixes, ""] for suffix in ("_64_", "_")]


@functools.cache
def _lapack(routine: str) -> tuple:
    """numpy's linked ``routine`` (``dsyevd`` or ``dsyevd_2stage``, which take the same
    arguments) and its Fortran integer type, looked up on the first call."""
    from numpy.linalg import _umath_linalg

    # the extension's own handle resolves the symbols of the LAPACK it links
    library = ctypes.CDLL(_umath_linalg.__file__)
    symbols = _dsyevd_symbols(routine)
    found = next((getattr(library, s) for s in symbols if hasattr(library, s)), None)
    if found is None:
        raise RuntimeError(
            f"numpy's LAPACK, linked by {_umath_linalg.__file__}, exports no {routine} "
            f"(tried {', '.join(symbols)})"
        )
    integer = ctypes.c_int64 if _umath_linalg._ilp64 else ctypes.c_int32
    count, address = ctypes.POINTER(integer), ctypes.c_void_p
    found.restype = None
    # jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, and the
    # hidden lengths of the two Fortran strings
    found.argtypes = (
        [ctypes.c_char_p] * 2
        + [count, address, count, address, address, count, address, count, count]
        + [ctypes.c_size_t] * 2
    )
    return found, integer


@functools.cache
def _workspace(routine: str, n: int) -> tuple:
    """The order and optimal-workspace arguments of an order-``n`` solve by ``routine``,
    queried once.

    Returns (n, the work buffer's type, lwork, the iwork buffer's type,
    liwork), the integers by reference. The optimal sizes are the ones
    numpy queries for ``dsyevd``: the minimal workspace leaves the
    tridiagonal reduction unblocked, which rounds differently.
    """
    solve, integer = _lapack(routine)
    ref, lwork, liwork, info = ctypes.byref, ctypes.c_double(), integer(), integer()
    query = ref(integer(-1))
    shape = ref(integer(n)), None, ref(integer(max(n, 1))), None
    solve(b"N", b"L", *shape, ref(lwork), query, ref(liwork), query, ref(info), 1, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"LAPACK {routine} workspace query failed: info {info.value}")
    size, isize = int(lwork.value), liwork.value
    work, iwork = ctypes.c_double * size, integer * isize
    return ref(integer(n)), work, ref(integer(size)), iwork, ref(integer(isize))


_spectra: dict[str, np.ndarray] = {}  # least recently used first


# the largest product a config may solve densely: (100,200), a 1.7 GB triangle
MAX_DENSE_ORDER = 20_000


def _is_regular(g: Graph) -> bool:
    """Whether every vertex of ``g`` has the same degree."""
    return bool(np.all(g.degrees == g.degrees[0]))


def check_dense_order(g: Graph, h: Graph) -> None:
    """Raise a ValueError naming the order if the product of ``g`` and ``h`` is above
    ``MAX_DENSE_ORDER`` and neither factor is regular, so it would be solved densely."""
    n = g.n * h.n
    if n > MAX_DENSE_ORDER and not (_is_regular(g) or _is_regular(h)):
        raise ValueError(
            f"the product of orders {g.n} and {h.n} has order {n}, above the dense bound "
            f"{MAX_DENSE_ORDER}, and neither factor is regular"
        )


def upper_buffer(n: int) -> np.ndarray:
    """A fresh (n, n) float64 matrix of +0.0, to build a triangle for :func:`owned_eigenvalues` in.

    Write only the upper triangle (diagonal included), through slices: the
    pages that hold nothing else are never written and never committed. Each
    row is padded so that its diagonal entry, where its part of the triangle
    starts, starts a page, and the solve works in place on that layout.
    """
    per_page = mmap.PAGESIZE // 8
    # row stride lda with (lda + 1) entries a whole number of pages
    lda = -(-(n + 1) // per_page) * per_page - 1
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
    by :func:`owned_eigenvalues` (a block is built here and dropped), as is
    a copy of ``r``'s adjacency for theta.
    """
    regular = [g for g in (op.second, op.first) if _is_regular(g)]
    if not regular:
        return None
    r = max(regular, key=lambda g: g.n)
    other = op.first if r is op.second else op.second
    kd = np.diag(r.degrees[0] * other.degrees)
    theta = owned_eigenvalues(np.array(r.adjacency))
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
            check_dense_order(op.first, op.second)
            spectrum = owned_eigenvalues(_product_upper(op))
        spectrum.setflags(write=False)
    _spectra[key] = spectrum
    if len(_spectra) > SPECTRUM_CACHE_ENTRIES:
        _spectra.pop(next(iter(_spectra)))
    return spectrum
