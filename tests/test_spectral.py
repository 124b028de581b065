"""The eigensolves of spectral.py: factor decompositions and in-place product solves."""

import mmap
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kronspec
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
from toolkit import (
    BASES,
    dense_laplacian,
    er_pair,
    factor_graphs,
    fresh_peak_bytes,
    property_settings,
    run_fresh,
)


def generated_graphs():
    """ER, WS and BA factors of orders 8-20 at two densities, each drawn connected."""
    return [
        generate_connected(GeneratorSpec(model, n, density, seed))
        for seed, (model, n, density) in enumerate(
            (m, n, d) for m in ("ER", "WS", "BA") for n in (8, 20) for d in (0.3, 0.6)
        )
    ]


def test_only_spectral_calls_a_numpy_eigensolver():
    # one module decides how kronspec solves: driver, copy or in place, which triangle;
    # numpy's eigensolver gives factor_spectra its eigenvectors, and every solve for
    # eigenvalues alone is owned_eigenvalues
    sources = {f.name: f.read_text() for f in Path(kronspec.__file__).parent.glob("*.py")}
    calls = [
        (name, line.strip())
        for name, text in sorted(sources.items())
        for line in text.splitlines()
        if "linalg.eig" in line
    ]
    eigh = "np.linalg.eigh(laplacian(g)), np.linalg.eigh(normalized_laplacian(g)), g.degrees"
    assert calls == [("spectral.py", eigh)]  # the return line of factor_spectra
    assert not any("eigvalsh" in text for text in sources.values())


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
    # from the upper triangle alone, in its padded rows, the solve must give
    # the bits eigvalsh gives for the whole product Laplacian, and work in m's buffer
    reference = dense_laplacian(op.first, op.second)
    m = spectral._product_upper(op)
    assert m.strides[0] > m.itemsize * len(m)
    values = owned_eigenvalues(m)
    assert values.tobytes() == np.linalg.eigvalsh(reference).tobytes()
    assert not np.array_equal(np.triu(m), np.triu(reference))


def recorded_symbols(mp: pytest.MonkeyPatch) -> list[str]:
    """Patch spectral so each LAPACK solve records the symbol it calls; the list."""
    called, lapack = [], spectral._lapack

    def recording(routine):
        solve, integer = lapack(routine)

        def recorded(*args):
            if args[3] is not None:  # not a workspace query
                called.append(solve.__name__)
            return solve(*args)

        return recorded, integer

    mp.setattr(spectral, "_lapack", recording)
    return called


@property_settings(40)
@given(st.builds(KroneckerLaplacian, *[factor_graphs(orders=(5, 17))] * 2))
def test_two_stage_solve_in_place_matches_a_contiguous_copy(op):
    # with every order on the two-stage path, the padded triangle solved in
    # place has the bits the same driver gives on a contiguous full copy, and
    # agrees with eigvalsh to rounding
    reference = dense_laplacian(op.first, op.second)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "TWO_STAGE_MIN_ORDER", 0)
        called = recorded_symbols(mp)
        values = owned_eigenvalues(spectral._product_upper(op))
        copied = owned_eigenvalues(reference.copy())
    assert called == [called[0]] * 2 and called[0] in spectral._dsyevd_symbols("dsyevd_2stage")
    assert values.tobytes() == copied.tobytes()
    exact = np.linalg.eigvalsh(reference)
    assert np.max(np.abs(values - exact)) <= 1e-12 * exact[-1]


def assert_rows_start_their_triangle_on_a_page(m):
    diagonal = m.__array_interface__["data"][0] + np.arange(len(m)) * sum(m.strides)
    assert m.strides[1] == m.itemsize
    assert np.all(diagonal % mmap.PAGESIZE == 0)


@property_settings(20)
@given(st.builds(KroneckerLaplacian, *[factor_graphs(orders=(5, 40))] * 2))
def test_product_rows_start_their_triangle_on_a_page(op):
    # at every order each row is padded until its diagonal entry, where its
    # part of the triangle starts, starts a page: no page holds the triangle
    # of two rows, and the solve works in place on that layout
    assert_rows_start_their_triangle_on_a_page(spectral._product_upper(op))
    # the buffer alone (nothing is written) at the page edges and the dense
    # orders the benchmark solves
    for n in (1, 511, 512, 1500, 3500, 5000):
        assert_rows_start_their_triangle_on_a_page(spectral.upper_buffer(n))


def test_in_place_solve_is_bit_exact_at_the_real_order():
    # the (30,50) products of the reference figures, and the first order
    # (3500) that once took a separate solver
    for n1, n2 in ((30, 50), (50, 70)):
        op = KroneckerLaplacian(*er_pair(n1, n2, 5, 6, density=0.3))
        m = spectral._product_upper(op)
        values = owned_eigenvalues(m)
        # LAPACK's tridiagonal reduction replaced the degree products on m's diagonal
        assert not np.array_equal(np.diagonal(m), np.kron(op.first.degrees, op.second.degrees))
        del m
        reference = dense_laplacian(op.first, op.second)
        assert values.tobytes() == np.linalg.eigvalsh(reference).tobytes()


def test_order_4000_product_takes_the_two_stage_solve():
    # the first order on the two-stage path: it rounds differently from
    # eigvalsh, by about 1e-14 of the largest eigenvalue, and keeps the trace
    # identity sum(mu) = (sum d1)(sum d2)
    op = KroneckerLaplacian(*er_pair(40, 100, 5, 6, density=0.1))
    assert op.first.n * op.second.n == spectral.TWO_STAGE_MIN_ORDER
    with pytest.MonkeyPatch.context() as mp:
        called = recorded_symbols(mp)
        values = owned_eigenvalues(spectral._product_upper(op))
    assert len(called) == 1 and called[0] in spectral._dsyevd_symbols("dsyevd_2stage")
    exact = np.linalg.eigvalsh(dense_laplacian(op.first, op.second))
    assert np.max(np.abs(values - exact)) <= 1e-12 * exact[-1]
    trace = op.first.degrees.sum() * op.second.degrees.sum()
    assert abs(values.sum() - trace) <= 1e-12 * trace


def test_owned_eigenvalues_bind_numpys_lapack_under_each_thread_count():
    # the solve must call the library (and thread pool) eigvalsh calls, or
    # the dense order-1500 solve rounds differently
    code = (
        "import numpy as np\n"
        "from kronspec import spectral\n"
        "from kronspec.graphs import KroneckerLaplacian\n"
        "from toolkit import dense_laplacian, er_pair\n"
        "op = KroneckerLaplacian(*er_pair(30, 50, 5, 6, density=0.3))\n"
        "values = spectral.owned_eigenvalues(spectral._product_upper(op))\n"
        "reference = np.linalg.eigvalsh(dense_laplacian(op.first, op.second))\n"
        "print(values.tobytes() == reference.tobytes())\n"
    )
    for threads in ("1", "2"):
        assert run_fresh(code, OPENBLAS_NUM_THREADS=threads) == "True"


def test_a_dense_product_past_the_bound_is_refused_before_its_triangle(monkeypatch):
    def no_triangle(n):
        raise AssertionError("a refused product allocates no triangle")

    monkeypatch.setattr(spectral, "upper_buffer", no_triangle)
    op = KroneckerLaplacian(*er_pair(150, 150, 1, 2, density=0.1))
    message = (
        "the product of orders 150 and 150 has order 22500, above the dense bound 20000, "
        "and neither factor is regular"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        spectral.product_spectrum(op)


def test_owned_eigenvalues_rejects_what_it_cannot_solve_in_place():
    # each would need a copy, which the solve never makes silently
    square = np.eye(6)
    read_only = square.copy()
    read_only.setflags(write=False)
    padded = np.zeros((6, 8))[:, :6]
    rejected = {
        "read-only": read_only,
        "column-strided": np.zeros((6, 12))[:, ::2],
        "column-major": np.asfortranarray(np.arange(36.0).reshape(6, 6)),
        "overlapping rows": np.lib.stride_tricks.as_strided(np.zeros(40), (6, 6), (32, 8)),
        "float32": square.astype(np.float32),
        "not square": np.zeros((6, 5)),
        "three axes": np.zeros((6, 6, 6)),
    }
    for name, m in rejected.items():
        with pytest.raises(ValueError, match="owned_eigenvalues needs"):
            owned_eigenvalues(m)
    assert owned_eigenvalues(padded).tobytes() == np.zeros(6).tobytes()


def test_order_1500_product_solve_commits_its_triangle_alone():
    # the triangle's pages (12.4 MB, 0.72 of the order-1500 matrix) and the
    # solve's workspace; the copy eigvalsh makes would add the whole 17.2 MB
    setup = (
        "from kronspec.spectral import product_spectrum\n"
        "from kronspec.graphs import KroneckerLaplacian\n"
        "from toolkit import er_pair\n"
        "op = KroneckerLaplacian(*er_pair(30, 50, 5, 6, density=0.3))"
    )
    measured = "assert product_spectrum(op).shape == (1500,)"
    assert fresh_peak_bytes(setup, measured) < 15 * 2**20


def test_in_place_product_solve_commits_about_half_the_matrix():
    # the dense product is built as the upper triangle alone, in a mapping
    # whose lower triangle is never written and whose rows each start their
    # triangle on a page, so the in-place solve at order 3500 commits 0.61 of
    # its N x N matrix; contiguous rows read 0.67, the full matrix 1.0x.
    # VmHWM is read in a fresh process, so only the build and the solve raise it.
    setup = (
        "from kronspec.spectral import product_spectrum\n"
        "from kronspec.generators import GeneratorSpec, generate_connected\n"
        "from kronspec.graphs import KroneckerLaplacian\n"
        "op = KroneckerLaplacian(\n"
        "    generate_connected(GeneratorSpec('ER', 50, 0.3, 5)),\n"
        "    generate_connected(GeneratorSpec('ER', 70, 0.3, 6)),\n"
        ")"
    )
    measured = "assert product_spectrum(op).shape == (3500,)"
    assert fresh_peak_bytes(setup, measured) < 0.63 * 8 * 3500**2


def test_two_stage_product_solve_commits_about_half_the_matrix():
    # at order 4000 the two-stage solve's larger workspace still leaves the
    # build and the solve below 0.63 of the N x N matrix (0.62 measured)
    setup = (
        "from kronspec.spectral import product_spectrum\n"
        "from kronspec.graphs import KroneckerLaplacian\n"
        "from toolkit import er_pair\n"
        "op = KroneckerLaplacian(*er_pair(40, 100, 5, 6, density=0.1))"
    )
    measured = "assert product_spectrum(op).shape == (4000,)"
    assert fresh_peak_bytes(setup, measured) < 0.63 * 8 * 4000**2
