"""Matrix-free product Laplacian, closed-form correlation profiles, block spectra.

Property tests draw small factor pairs from every model, plus nearly
regular factors (a cycle with one chord, where cosines crowd against 1) and
odd cycles, and check the factor-form code against the dense references of
``toolkit``, built from ``np.kron``. Products with a regular factor (odd
cycles, ring lattices) check the engine's block path against a dense
``eigvalsh``.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kronspec import checks, spectral
from kronspec.generators import GeneratorSpec, generate_connected
from kronspec.graphs import KroneckerLaplacian, cycle_graph, laplacian
from kronspec.metrics import correlation_profile
from kronspec.theory import mean_rms_ratio
from toolkit import (
    BASES,
    SEEDS,
    complete_graph,
    dense_laplacian,
    dense_normalized,
    er_pair,
    factor_graphs,
    factor_pairs,
    property_settings,
)

PROPERTY = property_settings(60)
SMALL_PAIRS = factor_pairs(factor_graphs(("ER", "WS", "BA", "NEARLY_REGULAR", "CYCLE")))
# connected, non-bipartite and regular: an odd cycle or a ring lattice with k >= 4, so
# its product with any connected factor is connected (Weichsel), with one zero eigenvalue
REGULAR = factor_graphs(("CYCLE", "RING"), orders=(5, 40))
# rewired WS (its default beta > 0), ER or BA: almost never regular
RANDOM = factor_graphs(orders=(5, 40))


def assert_upper_triangle_of(m: np.ndarray, reference: np.ndarray) -> None:
    """``m`` holds ``reference``'s upper triangle bit for bit and +0.0 below the diagonal."""
    assert np.triu(m).tobytes() == np.triu(reference).tobytes()
    below = np.tril(m, -1)
    assert below.tobytes() == np.zeros_like(below).tobytes()


def dense_profile(g, h, basis1, basis2) -> np.ndarray:
    """cos(x, L x) for every column x of kron(basis1, basis2), (0, 0) dropped."""
    x = np.kron(basis1, basis2)
    lx = dense_laplacian(g, h) @ x
    cosines = np.einsum("dc,dc->c", x, lx) / (
        np.linalg.norm(x, axis=0) * np.linalg.norm(lx, axis=0)
    )
    return cosines[1:]


@PROPERTY
@given(factor_pairs(REGULAR, st.one_of(REGULAR, RANDOM)), st.booleans())
def test_block_spectrum_matches_dense(pair, swap):
    g, h = pair[::-1] if swap else pair
    op = KroneckerLaplacian(g, h)
    spectral._spectra.clear()
    spectrum = spectral.product_spectrum(op)
    reference = np.linalg.eigvalsh(dense_laplacian(g, h))
    scale = reference[-1]
    assert np.abs(spectrum - reference).max() <= 1e-12 * scale
    # the trace identity, and the one zero of a connected product
    trace = g.degrees.sum() * h.degrees.sum()
    assert abs(spectrum.sum() - trace) <= 1e-12 * trace
    assert np.count_nonzero(spectrum < 1e-8 * scale) == 1


@PROPERTY
@given(factor_pairs(st.one_of(REGULAR, RANDOM)))
@example((cycle_graph(13), cycle_graph(13)))
@example((cycle_graph(15), cycle_graph(13)))
def test_block_factor_is_the_larger_regular_factor(pair):
    # the second factor on a tie, so the blocks have the smaller order; None, to
    # solve densely, when neither factor's degrees are constant
    g, h = pair
    g_regular, h_regular = (np.ptp(f.degrees) == 0 for f in pair)
    if not (g_regular or h_regular):
        expected = None
    elif g_regular and not (h_regular and h.n >= g.n):
        expected = g
    else:
        expected = h
    assert spectral.block_factor(g, h) is expected


@PROPERTY
@given(
    st.one_of(SMALL_PAIRS, factor_pairs(REGULAR, RANDOM)),
    st.booleans(),
    st.integers(2, 8),
    st.integers(2, 8),
)
def test_owned_matrices_are_exactly_symmetric(pair, swap, n1, n2):
    # no solve scans its input for symmetry; this is why none needs to: every
    # factor basis and block a kronspec solve receives equals its transpose
    # exactly, and the dense product and the two expected-adjacency products
    # hold the bits of the exactly symmetric matrices they stand for in the
    # triangle LAPACK reads (the lower one of the column-major matrix at its
    # address and leading dimension), with +0.0 in the other
    g, h = pair[::-1] if swap else pair
    received = []

    def recording(name, solve):
        def kept(m):
            received.append((name, m))
            return solve(m)

        return kept

    dsyevd, integer = spectral._lapack("dsyevd")

    def lapack_recording(jobz, uplo, order, address, lda, *rest):
        if address is not None:  # not a workspace query
            n, stride = order._obj.value, lda._obj.value
            entries = ctypes.cast(address, ctypes.POINTER(ctypes.c_double))
            flat = np.ctypeslib.as_array(entries, ((n - 1) * stride + n,))
            # column j of what LAPACK reads starts at entry j * lda; copied,
            # since the solve overwrites it
            columns = np.lib.stride_tricks.as_strided(flat, (n, n), (8, 8 * stride))
            received.append(("dsyevd", columns.copy()))
        return dsyevd(jobz, uplo, order, address, lda, *rest)

    spectral._spectra.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", recording("eigh", np.linalg.eigh))
        # every order here is below TWO_STAGE_MIN_ORDER: each solve is a dsyevd
        mp.setattr(spectral, "_lapack", lambda routine: (lapack_recording, integer))
        spectral.factor_spectra(g)
        spectral.factor_spectra(h)
        spectral.product_spectrum(KroneckerLaplacian(g, h))
        checks.expected_spectrum_gap(n1, n2)
    spectral._spectra.clear()
    # two bases per factor; the regular factor's adjacency and one block per
    # vertex of it, or one dense product; the two expected-adjacency products
    regular = [f.n for f in (g, h) if np.all(f.degrees == f.degrees[0])]
    product_solves = 1 + max(regular) if regular else 1
    assert [name for name, _ in received] == ["eigh"] * 4 + ["dsyevd"] * (product_solves + 2)
    symmetric = [m for _, m in received]
    for p in (1.0, 0.3):
        bar1, bar2 = (p * (np.ones((n, n)) - np.eye(n)) for n in (n1, n2))
        assert_upper_triangle_of(symmetric.pop().T, dense_normalized(np.kron(bar1, bar2)))
    if regular:
        assert any(np.array_equal(symmetric[4], f.adjacency) for f in (g, h))
    else:
        assert_upper_triangle_of(symmetric.pop(4).T, dense_laplacian(g, h))
    assert all(np.array_equal(m, m.T) for m in symmetric)


@PROPERTY
@given(SMALL_PAIRS, st.sampled_from(sorted(BASES)))
# the cosine of pair (i, j) is read off the flat profile at its row-major index
@example(er_pair(7, 6, 71, 72, density=0.5), "normalized")
@example(er_pair(10, 8, 61, 62), "normalized")
def test_profile_matches_dense_reference(pair, basis):
    g, h = pair
    b1 = np.linalg.eigh(BASES[basis](g)).eigenvectors
    b2 = np.linalg.eigh(BASES[basis](h)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(g, h), b1, b2)
    assert profile.shape == (g.n * h.n - 1,)
    assert np.abs(profile - dense_profile(g, h, b1, b2)).max() <= 1e-12
    assert profile.min() >= 0.0
    assert profile.max() <= 1.0 + 1e-12


@PROPERTY
@given(SMALL_PAIRS, st.sampled_from(sorted(BASES)), SEEDS)
def test_profile_ignores_eigenvector_signs(pair, basis, seed):
    # eigh promises no eigenvector sign, so flipping columns must change nothing
    g, h = pair
    b1 = np.linalg.eigh(BASES[basis](g)).eigenvectors
    b2 = np.linalg.eigh(BASES[basis](h)).eigenvectors
    rng = np.random.default_rng(seed)
    flips1 = np.where(rng.random(g.n) < 0.5, -1.0, 1.0)
    flips2 = np.where(rng.random(h.n) < 0.5, -1.0, 1.0)
    op = KroneckerLaplacian(g, h)
    # array_equal counts 0.0 and -0.0 as equal
    assert np.array_equal(
        correlation_profile(op, b1 * flips1, b2 * flips2), correlation_profile(op, b1, b2)
    )


@PROPERTY
@given(SMALL_PAIRS)
@example(er_pair(12, 9, 51, 52))
def test_first_row_is_mean_over_rms(pair):
    g, h = pair
    w1 = np.linalg.eigh(laplacian(g)).eigenvectors
    w2 = np.linalg.eigh(laplacian(h)).eigenvectors
    row = correlation_profile(KroneckerLaplacian(g, h), w1, w2)[: h.n - 1]
    assert np.abs(row - mean_rms_ratio(g.degrees)).max() <= 1e-12


@PROPERTY
@given(SMALL_PAIRS, st.integers(1, 3), SEEDS)
def test_matvec_matches_dense(pair, columns, seed):
    g, h = pair
    op = KroneckerLaplacian(g, h)
    x = np.random.default_rng(seed).standard_normal((g.n * h.n, columns))
    reference = dense_laplacian(g, h)
    assert_upper_triangle_of(spectral._product_upper(op), reference)
    assert np.abs(op.matvec(x) - reference @ x).max() <= 1e-12 * max(1.0, np.abs(x).max())
    assert np.allclose(op.matvec(x[:, 0]), reference @ x[:, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("g, h", [
    (cycle_graph(5), complete_graph(4)),
    (cycle_graph(7), cycle_graph(5)),
    (complete_graph(3), complete_graph(6)),
    (cycle_graph(4), complete_graph(3)),
])
@pytest.mark.parametrize("basis", sorted(BASES))
def test_regular_factors_give_all_ones(g, h, basis):
    b1 = np.linalg.eigh(BASES[basis](g)).eigenvectors
    b2 = np.linalg.eigh(BASES[basis](h)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(g, h), b1, b2)
    assert profile.shape == (g.n * h.n - 1,)
    assert np.abs(profile - 1.0).max() <= 1e-12


def test_dense_is_bitwise_the_product_graph_laplacian():
    g = generate_connected(GeneratorSpec("ER", 9, 0.4, seed=3))
    h = generate_connected(GeneratorSpec("BA", 7, 0.5, seed=4))
    upper = spectral._product_upper(KroneckerLaplacian(g, h))
    # same bytes in the triangle LAPACK reads, signed zeros included, so the
    # eigensolver sees the same input as from the full product graph Laplacian
    assert_upper_triangle_of(upper, dense_laplacian(g, h))
    assert np.signbit(upper[0, 1:]).all()


def test_matvec_rejects_wrong_length():
    op = KroneckerLaplacian(cycle_graph(5), complete_graph(3))
    with pytest.raises(ValueError, match="expected shape"):
        op.matvec(np.ones(14))


def test_zero_image_raises():
    # K2 x K2 is two disjoint edges: u_1 kron v_1 lies in the kernel
    k2 = complete_graph(2)
    w = np.linalg.eigh(laplacian(k2)).eigenvectors
    with pytest.raises(ValueError, match=r"pair \(1, 1\) maps to the zero vector"):
        correlation_profile(KroneckerLaplacian(k2, k2), w, w)
