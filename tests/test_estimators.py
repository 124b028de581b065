"""Estimation formulas, ordering heuristics, and their invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kronspec.checks import complete_graph, cycle_graph
from kronspec import estimators
from kronspec.estimators import (
    Estimator,
    Ordering,
    OrderingKind,
    apply_ordering,
    estimate_spectrum,
    normalized_estimate,
    resolve_ordering,
    sayama_spectrum,
)
from kronspec.generators import GeneratorSpec, generate_connected
from kronspec.graphs import (
    is_bipartite,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
)
from kronspec.spectral import factor_spectra
from kronspec.theory import sayama_bound_holds


def brute_force_product_spectrum(g, h):
    """Eigenvalues of the product Laplacian built by enumerating the definition."""
    n = g.n * h.n
    adjacency = np.zeros((n, n))
    for i in range(g.n):
        for k in range(h.n):
            for j in range(g.n):
                for l in range(h.n):
                    adjacency[i * h.n + k, j * h.n + l] = g.adjacency[i, j] * h.adjacency[k, l]
    lap = np.diag(adjacency.sum(axis=1)) - adjacency
    return np.linalg.eigvalsh(lap)


def test_apply_ordering_sorts():
    values = np.array([3.0, 1.0, 2.0])
    asc = apply_ordering(values, Ordering())
    assert values[asc].tolist() == [1.0, 2.0, 3.0]
    desc = apply_ordering(values, Ordering(kind=OrderingKind.ANTI_CORRELATED))
    assert values[desc].tolist() == [3.0, 2.0, 1.0]


def test_apply_ordering_randomized_zero_swaps_is_base():
    values = np.array([5.0, 1.0, 4.0, 2.0])
    base = apply_ordering(values, Ordering())
    randomized = apply_ordering(
        values, Ordering(kind=OrderingKind.CORRELATED_RANDOMIZED, swap_count=0)
    )
    assert np.array_equal(base, randomized)


def test_apply_ordering_uncorrelated_is_seeded():
    values = np.arange(10.0)
    a = apply_ordering(values, Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=7))
    b = apply_ordering(values, Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=7))
    assert np.array_equal(a, b)
    c = apply_ordering(values, Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=8))
    assert not np.array_equal(a, c)


def test_ordering_validation():
    with pytest.raises(ValueError):
        Ordering(kind=OrderingKind.CORRELATED, swap_count=3)
    with pytest.raises(ValueError):
        Ordering(kind=OrderingKind.CORRELATED_RANDOMIZED, swap_count=-1)
    # the seed and the swap count are nonnegative integers, checked where they enter
    with pytest.raises(ValueError, match="swap_count must be an integer"):
        Ordering(kind=OrderingKind.CORRELATED_RANDOMIZED, swap_count=1.5)
    with pytest.raises(ValueError, match="randomization_seed must be nonnegative"):
        Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=-1)
    with pytest.raises(ValueError, match="randomization_seed must be an integer"):
        Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=2.5)
    # a kind given by name becomes the enum member; an unknown name is rejected
    assert Ordering(kind="AntiCorrelated").kind is OrderingKind.ANTI_CORRELATED
    with pytest.raises(ValueError, match="'Bogus' is not a valid OrderingKind"):
        Ordering(kind="Bogus")
    with pytest.raises(ValueError, match="'Bogus' is not a valid OrderingKind"):
        Ordering(kind="Bogus", swap_count=2)
    # default swap count for randomized kinds resolves to n // 4 at apply time
    values = np.arange(8.0)
    perm = apply_ordering(values, Ordering(kind=OrderingKind.CORRELATED_RANDOMIZED))
    assert sorted(perm.tolist()) == list(range(8))


def test_ordering_rejects_a_bool_seed():
    # a bool is no integer, so no Ordering writes a config that from_dict rejects
    with pytest.raises(ValueError, match="randomization_seed must be an integer"):
        Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=True)


def test_k2_factors_match_exact_product():
    # both estimators reproduce the spectrum of K2 (x) K2: {0, 0, 2, 2}
    mu = np.array([0.0, 2.0])
    d = np.array([1, 1])
    sayama = np.sort(sayama_spectrum(mu, d, mu, d))
    normalized = np.sort(normalized_estimate(mu, d, mu, d))
    from kronspec.graphs import build_graph

    k2 = build_graph(2, [(0, 1)])
    exact = brute_force_product_spectrum(k2, k2)
    assert np.allclose(sayama, exact, atol=1e-12)
    assert np.allclose(normalized, exact, atol=1e-12)


def test_regular_factors_are_exact():
    # for regular factors the eigenvector bases diagonalize D too, so both
    # estimates equal the exact spectrum as multisets
    c4, k3 = cycle_graph(4), complete_graph(3)
    exact = brute_force_product_spectrum(c4, k3)
    mu1, d1 = np.linalg.eigvalsh(laplacian(c4)), np.sort(c4.degrees)
    mu2, d2 = np.linalg.eigvalsh(laplacian(k3)), np.sort(k3.degrees)
    lam1 = np.linalg.eigvalsh(normalized_laplacian(c4))
    lam2 = np.linalg.eigvalsh(normalized_laplacian(k3))
    assert np.abs(np.sort(sayama_spectrum(mu1, d1, mu2, d2)) - exact).max() <= 1e-9
    assert np.abs(np.sort(normalized_estimate(lam1, d1, lam2, d2)) - exact).max() <= 1e-9


def test_estimates_contain_exact_zero():
    g = generate_connected(GeneratorSpec("ER", 12, 0.4, seed=3))
    h = generate_connected(GeneratorSpec("ER", 9, 0.4, seed=4))
    mu1, d1 = np.linalg.eigvalsh(laplacian(g)), np.sort(g.degrees)
    mu2, d2 = np.linalg.eigvalsh(laplacian(h)), np.sort(h.degrees)
    lam1 = np.linalg.eigvalsh(normalized_laplacian(g))
    lam2 = np.linalg.eigvalsh(normalized_laplacian(h))
    for est in (sayama_spectrum(mu1, d1, mu2, d2), normalized_estimate(lam1, d1, lam2, d2)):
        assert est.shape == (g.n * h.n,)
        # one zero, at the pair of the two (first, under Correlated) zero eigenvalues
        assert np.count_nonzero(est == 0.0) == 1
        assert est[0] == 0.0


def test_nonnegativity_under_correlated_ordering():
    for seed in range(10):
        g = generate_connected(GeneratorSpec("ER", 15, 0.35, seed=seed))
        h = generate_connected(GeneratorSpec("ER", 11, 0.35, seed=seed + 50))
        mu1, d1 = np.linalg.eigvalsh(laplacian(g)), np.sort(g.degrees)
        mu2, d2 = np.linalg.eigvalsh(laplacian(h)), np.sort(h.degrees)
        lam1 = np.linalg.eigvalsh(normalized_laplacian(g))
        lam2 = np.linalg.eigvalsh(normalized_laplacian(h))
        assert sayama_spectrum(mu1, d1, mu2, d2).min() >= -1e-12
        assert normalized_estimate(lam1, d1, lam2, d2).min() >= -1e-12


def test_normalized_nonnegative_under_any_ordering():
    g = generate_connected(GeneratorSpec("ER", 14, 0.4, seed=21))
    h = generate_connected(GeneratorSpec("ER", 10, 0.4, seed=22))
    lam1, d1 = np.linalg.eigvalsh(normalized_laplacian(g)), np.sort(g.degrees)
    lam2, d2 = np.linalg.eigvalsh(normalized_laplacian(h)), np.sort(h.degrees)
    for kind in OrderingKind:
        est = normalized_estimate(lam1, d1, lam2, d2, Ordering(kind=kind, randomization_seed=1))
        assert est.min() >= -1e-12


def test_orderings_differ_on_irregular_factors():
    g = generate_connected(GeneratorSpec("ER", 16, 0.3, seed=33))
    h = generate_connected(GeneratorSpec("ER", 12, 0.3, seed=34))
    assert len(set(g.degrees.tolist())) > 1  # irregular by construction
    mu1, d1 = np.linalg.eigvalsh(laplacian(g)), np.sort(g.degrees)
    mu2, d2 = np.linalg.eigvalsh(laplacian(h)), np.sort(h.degrees)
    correlated = np.sort(sayama_spectrum(mu1, d1, mu2, d2, Ordering()))
    anti = np.sort(
        sayama_spectrum(mu1, d1, mu2, d2, Ordering(kind=OrderingKind.ANTI_CORRELATED))
    )
    assert not np.allclose(correlated, anti)


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="factor 1: 2 eigenvalues vs 3 degrees"):
        sayama_spectrum([0.0, 1.0], [1, 1, 1], [0.0], [1])
    with pytest.raises(ValueError, match="factor 2: 1 eigenvalues vs 2 degrees"):
        sayama_spectrum([0.0, 1.0], [1, 1], [0.0], [1, 1])


def test_estimate_spectrum_reads_each_estimators_basis_and_formula(monkeypatch):
    f1 = factor_spectra(generate_connected(GeneratorSpec("ER", 10, 0.5, seed=8)))
    f2 = factor_spectra(generate_connected(GeneratorSpec("ER", 8, 0.5, seed=9)))
    ordering = Ordering(OrderingKind.UNCORRELATED, 3)
    for estimator, basis, formula in [
        (Estimator.SAYAMA_LAPLACIAN, "laplacian", sayama_spectrum),
        (Estimator.NORMALIZED_LAPLACIAN, "normalized", normalized_estimate),
    ]:
        expected = formula(
            getattr(f1, basis).eigenvalues, f1.degrees,
            getattr(f2, basis).eigenvalues, f2.degrees, ordering,
        )
        assert np.array_equal(estimate_spectrum(estimator, f1, f2, ordering), expected)
    # a member without a row fails where it is first used, under no other member's formula
    monkeypatch.delitem(estimators._RULES, Estimator.NORMALIZED_LAPLACIAN)
    with pytest.raises(KeyError):
        resolve_ordering(ordering, Estimator.NORMALIZED_LAPLACIAN, seed=0)
    with pytest.raises(KeyError):
        estimate_spectrum(Estimator.NORMALIZED_LAPLACIAN, f1, f2, ordering)


def test_first_pair_is_ones_direction_for_laplacian_basis():
    g = generate_connected(GeneratorSpec("ER", 10, 0.5, seed=8))
    h = generate_connected(GeneratorSpec("ER", 8, 0.5, seed=9))
    w1 = np.linalg.eigh(laplacian(g)).eigenvectors
    w2 = np.linalg.eigh(laplacian(h)).eigenvectors
    vec = np.kron(w1[:, 0], w2[:, 0])
    ones = np.ones(g.n * h.n) / np.sqrt(g.n * h.n)
    assert abs(abs(vec @ ones) - 1) <= 1e-9  # the ones direction, either sign
    # exact eigenvector for eigenvalue 0 of the product Laplacian
    lap_product = laplacian(kronecker_graph(g, h))
    assert np.linalg.norm(lap_product @ vec) <= 1e-9


def test_first_normalized_pair_is_not_product_eigenvector():
    # for irregular factors, v1 kron v1 is not an eigenvector of the product
    # Laplacian (unlike the Laplacian-basis pair)
    g = generate_connected(GeneratorSpec("ER", 10, 0.4, seed=18))
    h = generate_connected(GeneratorSpec("ER", 8, 0.4, seed=19))
    assert len(set(g.degrees.tolist())) > 1
    v1 = np.linalg.eigh(normalized_laplacian(g)).eigenvectors
    v2 = np.linalg.eigh(normalized_laplacian(h)).eigenvectors
    vec = np.kron(v1[:, 0], v2[:, 0])
    lap_product = laplacian(kronecker_graph(g, h))
    image = lap_product @ vec
    # residual of the best eigenvalue fit stays far from zero
    best = image @ vec
    assert np.linalg.norm(image - best * vec) > 1e-3


# ---------------------------------------------------------------------------
# property tests: invariants over random connected factor pairs
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
ORDERINGS = st.builds(
    Ordering, kind=st.sampled_from(OrderingKind), randomization_seed=st.integers(0, 2**32 - 1)
)


@st.composite
def factor_graphs(draw, regular=False):
    """A small connected graph: ER, WS or BA, or (regular=True) a ring lattice or odd cycle."""
    n = draw(st.integers(5, 11))
    if regular:
        if draw(st.booleans()):
            return cycle_graph(n | 1)
        # WS without rewiring is the k-regular ring lattice
        return generate_connected(GeneratorSpec("WS", n, 0.5, seed=0, ws_beta=0.0))
    model = draw(st.sampled_from(("ER", "WS", "BA")))
    density = draw(st.sampled_from((0.3, 0.5, 0.7)))
    return generate_connected(GeneratorSpec(model, n, density, draw(st.integers(0, 2**32 - 1))))


@st.composite
def factor_pairs(draw, regular=False):
    g, h = draw(factor_graphs(regular)), draw(factor_graphs(regular))
    # Weichsel: connected factors give a connected product unless both are bipartite
    assume(not (is_bipartite(g) and is_bipartite(h)))
    return g, h


def both_estimates(g, h, ordering):
    d1, d2 = np.sort(g.degrees), np.sort(h.degrees)
    mu1, mu2 = np.linalg.eigvalsh(laplacian(g)), np.linalg.eigvalsh(laplacian(h))
    lam1 = np.linalg.eigvalsh(normalized_laplacian(g))
    lam2 = np.linalg.eigvalsh(normalized_laplacian(h))
    return (
        sayama_spectrum(mu1, d1, mu2, d2, ordering),
        normalized_estimate(lam1, d1, lam2, d2, ordering),
    )


@PROPERTY
@given(factor_pairs(), ORDERINGS)
def test_property_exactly_one_zero(pair, ordering):
    g, h = pair
    for est in both_estimates(g, h, ordering):
        assert est.shape == (g.n * h.n,)
        assert np.count_nonzero(est == 0.0) == 1
        if ordering.kind == OrderingKind.CORRELATED:
            assert est[0] == 0.0


@PROPERTY
@given(factor_pairs(), ORDERINGS)
def test_property_normalized_estimate_nonnegative(pair, ordering):
    _, normalized = both_estimates(*pair, ordering)
    assert normalized.min() >= 0.0


@PROPERTY
@given(factor_pairs(regular=True), ORDERINGS)
def test_property_regular_factors_exact(pair, ordering):
    g, h = pair
    exact = np.linalg.eigvalsh(laplacian(kronecker_graph(g, h)))
    for est in both_estimates(g, h, ordering):
        assert np.abs(np.sort(est) - exact).max() <= 1e-9


@PROPERTY
@given(factor_pairs(), ORDERINGS, st.integers(0, 2**32 - 1))
def test_property_degrees_in_any_order(pair, ordering, seed):
    # the estimators and the degree bound pair each factor's degrees ascending themselves
    g, h = pair
    rng = np.random.default_rng(seed)
    d1, d2 = rng.permutation(g.degrees), rng.permutation(h.degrees)
    mu1, mu2 = np.linalg.eigvalsh(laplacian(g)), np.linalg.eigvalsh(laplacian(h))
    lam1 = np.linalg.eigvalsh(normalized_laplacian(g))
    lam2 = np.linalg.eigvalsh(normalized_laplacian(h))
    sayama, normalized = both_estimates(g, h, ordering)
    assert np.array_equal(sayama_spectrum(mu1, d1, mu2, d2, ordering), sayama)
    assert np.array_equal(normalized_estimate(lam1, d1, lam2, d2, ordering), normalized)
    for mu, d in ((mu1, d1), (mu2, d2)):
        assert sayama_bound_holds(rng.permutation(mu), d) == sayama_bound_holds(mu, np.sort(d))
