"""The eigensolves of spectral.py: factor decompositions and in-place product solves."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronspec import spectral
from kronspec.checks import complete_graph
from kronspec.generators import GeneratorSpec, generate_connected
from kronspec.graphs import (
    Graph,
    KroneckerLaplacian,
    build_graph,
    kronecker_graph,
    normalized_laplacian,
)
from kronspec.spectral import factor_spectra, owned_eigenvalues
from toolkit import BASES, dense_laplacian, er_pair, factor_graphs, property_settings, run_fresh


def generated_graphs():
    """ER, WS and BA factors of orders 8-20 at two densities, each drawn connected."""
    return [
        generate_connected(GeneratorSpec(model, n, density, seed))
        for seed, (model, n, density) in enumerate(
            (m, n, d) for m in ("ER", "WS", "BA") for n in (8, 20) for d in (0.3, 0.6)
        )
    ]


def test_k2_laplacian_spectrum():
    eig = factor_spectra(complete_graph(2)).laplacian
    assert np.allclose(eig.eigenvalues, [0, 2], atol=1e-12)


def test_star_spectrum():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    eig = factor_spectra(star).laplacian
    assert np.allclose(eig.eigenvalues, [0, 1, 1, 4], atol=1e-12)


def test_reconstruction_of_random_symmetric():
    for g, basis in product(generated_graphs(), BASES):
        eig = getattr(factor_spectra(g), basis)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.linalg.norm(rebuilt - BASES[basis](g)) <= 1e-9 * g.degrees.max()


def test_decomposition_invariants():
    # ascending eigenvalues, small residuals and orthonormal eigenvectors
    for g, basis in product(generated_graphs(), BASES):
        m, eig = BASES[basis](g), getattr(factor_spectra(g), basis)
        assert np.all(np.diff(eig.eigenvalues) >= 0)
        residual = m @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues[None, :]
        assert np.abs(residual).max() <= 1e-10 * np.linalg.norm(m)
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.abs(gram - np.eye(g.n)).max() <= 1e-9


def test_factor_spectra_is_deterministic():
    for g in generated_graphs():
        first, second = factor_spectra(g), factor_spectra(Graph(g.adjacency.copy()))
        for basis in BASES:
            for a, b in zip(getattr(first, basis), getattr(second, basis)):
                assert a.tobytes() == b.tobytes()


def test_connected_laplacian_kernel_is_ones():
    chorded_cycle = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    for g in [chorded_cycle, *generated_graphs()]:
        eig = factor_spectra(g).laplacian
        assert abs(eig.eigenvalues[0]) <= 1e-9 * g.degrees.max()
        ones = np.ones(g.n) / np.sqrt(g.n)
        # the ones direction, either sign
        assert abs(abs(eig.eigenvectors[:, 0] @ ones) - 1) <= 1e-9


def test_normalized_spectrum_bounds():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    values = factor_spectra(g).normalized.eigenvalues
    assert values[0] >= -1e-9 and values[-1] <= 2 + 1e-9


def test_exact_normalized_kron_decomposition():
    # eigenvalues of the product normalized Laplacian are 1 - (1-a)(1-b),
    # with v_i kron v_j as eigenvectors
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    h = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    eig_g = factor_spectra(g).normalized
    eig_h = factor_spectra(h).normalized
    norm_product = normalized_laplacian(kronecker_graph(g, h))
    formula = (
        1.0 - (1.0 - eig_g.eigenvalues)[:, None] * (1.0 - eig_h.eigenvalues)[None, :]
    ).ravel()
    numeric = np.linalg.eigvalsh(norm_product)
    assert np.abs(np.sort(formula) - numeric).max() <= 1e-8
    x = np.kron(eig_g.eigenvectors, eig_h.eigenvectors)
    residual = norm_product @ x - x * formula[None, :]
    assert np.linalg.norm(residual, axis=0).max() <= 1e-8


def test_colinearity_of_ones_kron_eigenvector():
    # L(1 kron w_j) = mu_j (d kron w_j)
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    h = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    eig_h = factor_spectra(h).laplacian
    lap_product = dense_laplacian(g, h)
    ones = np.ones(g.n)
    dvec = g.degrees.astype(float)
    for j in range(h.n):
        w = eig_h.eigenvectors[:, j]
        lhs = lap_product @ np.kron(ones, w)
        rhs = eig_h.eigenvalues[j] * np.kron(dvec, w)
        assert np.linalg.norm(lhs - rhs) <= 1e-8


@property_settings(40)
# ER, WS or BA factors of order 5-17, so the product has N <= 289
@given(st.builds(KroneckerLaplacian, *[factor_graphs(orders=(5, 17))] * 2))
def test_in_place_solve_is_bit_exact(op):
    # the order constant is patched down so the in-place scipy path runs on
    # small products; from the upper triangle alone it must give the bits
    # eigvalsh gives for the whole product Laplacian, and work in m's buffer
    reference = dense_laplacian(op.first, op.second)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "IN_PLACE_MIN_ORDER", 1)
        m = spectral._product_upper(op)
        values = owned_eigenvalues(m)
    assert values.tobytes() == np.linalg.eigvalsh(reference).tobytes()
    assert not np.array_equal(np.triu(m), np.triu(reference))


def test_in_place_solve_is_bit_exact_at_the_real_order():
    # unpatched: the smallest ER x ER product at the threshold takes the scipy path
    op = KroneckerLaplacian(*er_pair(50, 70, 5, 6, density=0.3))
    assert op.first.n * op.second.n == spectral.IN_PLACE_MIN_ORDER
    m = spectral._product_upper(op)
    values = owned_eigenvalues(m)
    # LAPACK's tridiagonal reduction replaced the degree products on m's diagonal
    assert not np.array_equal(np.diagonal(m), np.kron(op.first.degrees, op.second.degrees))
    del m
    reference = dense_laplacian(op.first, op.second)
    assert values.tobytes() == np.linalg.eigvalsh(reference).tobytes()


def test_in_place_product_solve_commits_about_half_the_matrix():
    # the dense product is built as the upper triangle alone, in a mapping
    # whose lower triangle is never written, so the in-place solve at the
    # real order commits about half of its N x N matrix; the full matrix
    # read 1.0x. VmHWM is read in a fresh process after scipy.linalg is
    # loaded, so only the build and the solve raise it.
    code = (
        "import scipy.linalg\n"
        "from kronspec.spectral import product_spectrum\n"
        "from kronspec.generators import GeneratorSpec, generate_connected\n"
        "from kronspec.graphs import KroneckerLaplacian\n"
        "from toolkit import peak_rss_kib\n"
        "op = KroneckerLaplacian(\n"
        "    generate_connected(GeneratorSpec('ER', 50, 0.3, 5)),\n"
        "    generate_connected(GeneratorSpec('ER', 70, 0.3, 6)),\n"
        ")\n"
        "before = peak_rss_kib()\n"
        "assert product_spectrum(op).shape == (3500,)\n"
        "print((peak_rss_kib() - before) * 1024)\n"
    )
    assert spectral.IN_PLACE_MIN_ORDER == 3500
    assert int(run_fresh(code)) < 0.75 * 8 * 3500**2
