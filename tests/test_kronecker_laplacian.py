"""Matrix-free product Laplacian, closed-form correlation profiles, block spectra.

Property tests draw small factor pairs from every model, plus nearly
regular factors (a cycle with one chord, where cosines crowd against 1) and
odd cycles, and check the factor-form code against dense references built
here from ``np.kron``. Products with a regular factor (odd cycles, ring
lattices) check the engine's block path against a dense ``eigvalsh``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kronspec import checks, spectral
from kronspec.checks import complete_graph, cycle_graph
from kronspec.generators import GeneratorSpec, generate_connected, watts_strogatz
from kronspec.graphs import (
    KroneckerLaplacian,
    build_graph,
    is_bipartite,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
)
from kronspec.metrics import correlation_profile
from kronspec.theory import mean_rms_ratio

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
BASES = {"laplacian": laplacian, "normalized": normalized_laplacian}


@st.composite
def factor_graphs(draw):
    model = draw(st.sampled_from(("ER", "WS", "BA", "NEARLY_REGULAR", "CYCLE")))
    n = draw(st.integers(5, 11))
    if model == "CYCLE":
        return cycle_graph(n | 1)  # odd: even cycles are bipartite and regular
    if model == "NEARLY_REGULAR":
        chord = draw(st.integers(2, n - 2))
        return build_graph(n, [(v, (v + 1) % n) for v in range(n)] + [(0, chord)])
    density = draw(st.sampled_from((0.3, 0.5, 0.7)))
    seed = draw(st.integers(0, 2**32 - 1))
    return generate_connected(GeneratorSpec(model, n, density, seed))


@st.composite
def factor_pairs(draw):
    g, h = draw(factor_graphs()), draw(factor_graphs())
    # Weichsel: connected factors give a connected product unless both are bipartite
    assume(not (is_bipartite(g) and is_bipartite(h)))
    return g, h


def dense_laplacian(g, h) -> np.ndarray:
    a1 = g.adjacency.astype(np.float64)
    a2 = h.adjacency.astype(np.float64)
    return np.diag(np.kron(g.degrees, h.degrees).astype(np.float64)) - np.kron(a1, a2)


def dense_profile(g, h, basis1, basis2) -> np.ndarray:
    """cos(x, L x) for every column x of kron(basis1, basis2), (0, 0) dropped."""
    x = np.kron(basis1, basis2)
    lx = dense_laplacian(g, h) @ x
    cosines = np.einsum("dc,dc->c", x, lx) / (
        np.linalg.norm(x, axis=0) * np.linalg.norm(lx, axis=0)
    )
    return cosines[1:]


@st.composite
def regular_graphs(draw):
    """Connected, non-bipartite and regular: an odd cycle or a ring lattice with k >= 4.

    Its product with any connected factor is connected (Weichsel), so the
    product Laplacian has exactly one zero eigenvalue.
    """
    n = draw(st.integers(5, 40))
    if draw(st.booleans()):
        return cycle_graph(n | 1)
    k = draw(st.sampled_from((4, 6)))
    assume(n > k)
    return watts_strogatz(n, k, 0.0, seed=0)


@st.composite
def random_graphs(draw):
    """ER, BA or rewired WS (its default beta > 0): almost never regular."""
    model = draw(st.sampled_from(("ER", "BA", "WS")))
    n = draw(st.integers(5, 40))
    density = draw(st.sampled_from((0.3, 0.5, 0.7)))  # feasible for every model at n >= 5
    return generate_connected(GeneratorSpec(model, n, density, draw(st.integers(0, 2**32 - 1))))


@PROPERTY
@given(regular_graphs(), st.one_of(regular_graphs(), random_graphs()), st.booleans())
def test_block_spectrum_matches_dense(r, other, swap):
    g, h = (other, r) if swap else (r, other)
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
@given(
    st.one_of(factor_pairs(), st.tuples(regular_graphs(), random_graphs())),
    st.booleans(),
    st.integers(2, 8),
    st.integers(2, 8),
)
def test_owned_matrices_are_exactly_symmetric(pair, swap, n1, n2):
    # no solve scans its input for symmetry; this is why none needs to: every
    # matrix a kronspec solve receives equals its transpose exactly
    g, h = pair[::-1] if swap else pair
    solved = {"eigh": [], "eigvalsh": []}

    def recording(name, solve):
        def checked(m):
            solved[name].append(np.array_equal(m, m.T))
            return solve(m)

        return checked

    spectral._spectra.clear()
    with pytest.MonkeyPatch.context() as mp:
        for name in solved:
            mp.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
        spectral.factor_spectra(g)
        spectral.factor_spectra(h)
        spectral.product_spectrum(KroneckerLaplacian(g, h))
        checks.expected_spectrum_gap(n1, n2)
    spectral._spectra.clear()
    # two bases per factor; the regular factor's adjacency and one block per
    # vertex of it, or one dense product; the two expected-adjacency products
    regular = [f.n for f in (g, h) if np.all(f.degrees == f.degrees[0])]
    assert len(solved["eigh"]) == 4
    assert len(solved["eigvalsh"]) == (1 + max(regular) if regular else 1) + 2
    assert all(solved["eigh"]) and all(solved["eigvalsh"])


@PROPERTY
@given(factor_pairs(), st.sampled_from(sorted(BASES)))
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
@given(factor_pairs(), st.sampled_from(sorted(BASES)), st.integers(0, 2**32 - 1))
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
@given(factor_pairs())
def test_first_row_is_mean_over_rms(pair):
    g, h = pair
    w1 = np.linalg.eigh(laplacian(g)).eigenvectors
    w2 = np.linalg.eigh(laplacian(h)).eigenvectors
    row = correlation_profile(KroneckerLaplacian(g, h), w1, w2)[: h.n - 1]
    assert np.abs(row - mean_rms_ratio(g.degrees)).max() <= 1e-12


@PROPERTY
@given(factor_pairs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_matvec_matches_dense(pair, columns, seed):
    g, h = pair
    op = KroneckerLaplacian(g, h)
    x = np.random.default_rng(seed).standard_normal((g.n * h.n, columns))
    reference = dense_laplacian(g, h)
    assert np.array_equal(op.dense(), reference)
    assert np.abs(op.matvec(x) - reference @ x).max() <= 1e-12 * max(1.0, np.abs(x).max())
    assert np.allclose(op.matvec(x[:, 0]), reference @ x[:, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("g, h", [
    (cycle_graph(5), complete_graph(4)),
    (cycle_graph(7), cycle_graph(5)),
    (complete_graph(3), complete_graph(6)),
])
@pytest.mark.parametrize("basis", sorted(BASES))
def test_regular_factors_give_all_ones(g, h, basis):
    b1 = np.linalg.eigh(BASES[basis](g)).eigenvectors
    b2 = np.linalg.eigh(BASES[basis](h)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(g, h), b1, b2)
    assert np.abs(profile - 1.0).max() <= 1e-12


def test_dense_is_bitwise_the_product_graph_laplacian():
    g = generate_connected(GeneratorSpec("ER", 9, 0.4, seed=3))
    h = generate_connected(GeneratorSpec("BA", 7, 0.5, seed=4))
    dense = KroneckerLaplacian(g, h).dense()
    # same bytes, signed zeros included, so the eigensolver sees the same input
    assert dense.tobytes() == laplacian(kronecker_graph(g, h)).tobytes()


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
