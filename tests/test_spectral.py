"""Eigendecomposition contract and vector utilities."""

import numpy as np
import pytest

from kronspec.graphs import build_graph, kronecker_graph, laplacian, normalized_laplacian
from kronspec.spectral import SYMMETRY_BLOCK, cosine, sym_eig, sym_eigenvalues


def test_k2_laplacian_spectrum():
    eig = sym_eig(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(eig.eigenvalues, [0, 2], atol=1e-12)


def test_star_spectrum():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    eig = sym_eig(laplacian(star))
    assert np.allclose(eig.eigenvalues, [0, 1, 1, 4], atol=1e-12)


def test_reconstruction_of_random_symmetric():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((8, 8))
    m = m + m.T
    eig = sym_eig(m)
    rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
    assert np.linalg.norm(rebuilt - m) <= 1e-9


def test_decomposition_invariants():
    rng = np.random.default_rng(29)
    m = rng.standard_normal((12, 12))
    m = m + m.T
    eig = sym_eig(m)
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    residual = m @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues[None, :]
    assert np.abs(residual).max() <= 1e-10 * np.linalg.norm(m)
    gram = eig.eigenvectors.T @ eig.eigenvectors
    assert np.abs(gram - np.eye(12)).max() <= 1e-9


def test_sign_convention_is_deterministic():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    first = sym_eig(m)
    second = sym_eig(m.copy())
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    for j in range(6):
        col = first.eigenvectors[:, j]
        pivot = np.nonzero(np.abs(col) > 1e-8 * np.abs(col).max())[0][0]
        assert col[pivot] > 0


def test_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_asymmetry_in_last_block_raises():
    # the check walks row blocks; a defect in the final, partial block counts too
    n = 2 * SYMMETRY_BLOCK + 37
    rng = np.random.default_rng(5)
    m = rng.standard_normal((n, n))
    m = m + m.T
    sym_eigenvalues(m)
    m[n - 1, 3] += 1e-6
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigenvalues(m)


def test_symmetry_tolerance_scales_with_largest_entry():
    m = np.array([[0.0, 1e6], [1e6 + 1e-5, 0.0]])  # relative gap 1e-11
    assert np.allclose(sym_eigenvalues(m), [-1e6, 1e6])
    m[1, 0] = 1e6 + 1e-3  # relative gap 1e-9, above the 1e-10 default
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigenvalues(m)


def test_connected_laplacian_kernel_is_ones():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    eig = sym_eig(laplacian(g))
    assert abs(eig.eigenvalues[0]) <= 1e-9
    ones = np.ones(5) / np.sqrt(5)
    assert np.linalg.norm(eig.eigenvectors[:, 0] - ones) <= 1e-9


def test_normalized_spectrum_bounds():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    values = sym_eigenvalues(normalized_laplacian(g))
    assert values[0] >= -1e-9 and values[-1] <= 2 + 1e-9


def test_exact_normalized_kron_decomposition():
    # eigenvalues of the product normalized Laplacian are 1 - (1-a)(1-b),
    # with v_i kron v_j as eigenvectors
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    h = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    eig_g = sym_eig(normalized_laplacian(g))
    eig_h = sym_eig(normalized_laplacian(h))
    norm_product = normalized_laplacian(kronecker_graph(g, h))
    formula = (
        1.0 - (1.0 - eig_g.eigenvalues)[:, None] * (1.0 - eig_h.eigenvalues)[None, :]
    ).ravel()
    numeric = sym_eigenvalues(norm_product)
    assert np.abs(np.sort(formula) - numeric).max() <= 1e-8
    x = np.kron(eig_g.eigenvectors, eig_h.eigenvectors)
    residual = norm_product @ x - x * formula[None, :]
    assert np.linalg.norm(residual, axis=0).max() <= 1e-8


def test_colinearity_of_ones_kron_eigenvector():
    # L(1 kron w_j) = mu_j (d kron w_j)
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    h = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    eig_h = sym_eig(laplacian(h))
    lap_product = laplacian(kronecker_graph(g, h))
    ones = np.ones(g.n)
    dvec = g.degrees.astype(float)
    for j in range(h.n):
        w = eig_h.eigenvectors[:, j]
        lhs = lap_product @ np.kron(ones, w)
        rhs = eig_h.eigenvalues[j] * np.kron(dvec, w)
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_cosine():
    x = np.array([1.0, 2.0, 3.0])
    assert cosine(x, x) == pytest.approx(1.0)
    assert cosine(x, -x) == pytest.approx(-1.0)
    assert cosine([1, 0], [0, 1]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        cosine([0.0, 0.0], [1.0, 0.0])
