"""Eigendecomposition contract and vector utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronspec import spectral
from kronspec.generators import GeneratorSpec, generate_connected
from kronspec.graphs import (
    KroneckerLaplacian,
    build_graph,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
)
from kronspec.spectral import SYMMETRY_BLOCK, owned_eigenvalues, sym_eig, sym_eigenvalues


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


def test_sym_eig_is_deterministic():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    first = sym_eig(m)
    second = sym_eig(m.copy())
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


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
    assert abs(abs(eig.eigenvectors[:, 0] @ ones) - 1) <= 1e-9  # the ones direction, either sign


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


@st.composite
def er_ws_ba_products(draw):
    """ER, WS or BA factors of order 5-17, so the product has N <= 289."""
    def factor():
        model = draw(st.sampled_from(("ER", "WS", "BA")))
        n = draw(st.integers(5, 17))
        density = draw(st.sampled_from((0.3, 0.5, 0.7)))
        return generate_connected(GeneratorSpec(model, n, density, draw(st.integers(0, 2**32 - 1))))

    return KroneckerLaplacian(factor(), factor())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(er_ws_ba_products())
def test_in_place_solve_is_bit_exact(op):
    # the order constant is patched down so the in-place scipy path runs on
    # small products; it must give eigvalsh's bits and work in m's buffer
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "IN_PLACE_MIN_ORDER", 1)
        m = op.dense()
        values = owned_eigenvalues(m)
    assert values.tobytes() == np.linalg.eigvalsh(op.dense()).tobytes()
    assert not np.array_equal(m, op.dense())


def test_in_place_solve_is_bit_exact_at_the_real_order():
    # unpatched: the smallest ER x ER product at the threshold takes the scipy path
    op = KroneckerLaplacian(
        generate_connected(GeneratorSpec("ER", 50, 0.3, 5)),
        generate_connected(GeneratorSpec("ER", 70, 0.3, 6)),
    )
    assert op.first.n * op.second.n == spectral.IN_PLACE_MIN_ORDER
    m = op.dense()
    values = owned_eigenvalues(m)
    assert not np.array_equal(m, op.dense())
    del m
    assert values.tobytes() == np.linalg.eigvalsh(op.dense()).tobytes()
