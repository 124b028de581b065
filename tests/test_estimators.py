"""Estimation formulas, ordering heuristics, and their invariants."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kronspec.checks import complete_graph
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
from kronspec.graphs import cycle_graph, laplacian, normalized_laplacian
from kronspec.spectral import factor_spectra
from kronspec.theory import sayama_bound_holds
from toolkit import (
    ORDERINGS,
    SEEDS,
    brute_force_product_spectrum,
    dense_laplacian,
    er_pair,
    estimates,
    factor_graphs,
    factor_pairs,
    property_settings,
)


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
    with pytest.raises(ValueError, match="kind must be one of .*, got 'Bogus'"):
        Ordering(kind="Bogus")
    with pytest.raises(ValueError, match="kind must be one of .*, got 'Bogus'"):
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
    k2 = complete_graph(2)
    exact = brute_force_product_spectrum(k2, k2)
    for estimate in estimates(k2, k2):
        assert np.allclose(np.sort(estimate), exact, atol=1e-12)


def test_regular_factors_are_exact():
    # for regular factors the eigenvector bases diagonalize D too, so both
    # estimates equal the exact spectrum as multisets
    c4, k3 = cycle_graph(4), complete_graph(3)
    exact = brute_force_product_spectrum(c4, k3)
    for estimate in estimates(c4, k3):
        assert np.abs(np.sort(estimate) - exact).max() <= 1e-9


def test_estimates_contain_exact_zero():
    g, h = er_pair(12, 9, 3, 4)
    for est in estimates(g, h):
        assert est.shape == (g.n * h.n,)
        # one zero, at the pair of the two (first, under Correlated) zero eigenvalues
        assert np.count_nonzero(est == 0.0) == 1
        assert est[0] == 0.0


def test_nonnegativity_under_correlated_ordering():
    for seed in range(10):
        for estimate in estimates(*er_pair(15, 11, seed, seed + 50, density=0.35)):
            assert estimate.min() >= -1e-12


def test_normalized_nonnegative_under_any_ordering():
    g, h = er_pair(14, 10, 21, 22)
    for kind in OrderingKind:
        _, normalized = estimates(g, h, Ordering(kind=kind, randomization_seed=1))
        assert normalized.min() >= -1e-12


def test_orderings_differ_on_irregular_factors():
    g, h = er_pair(16, 12, 33, 34, density=0.3)
    assert len(set(g.degrees.tolist())) > 1  # irregular by construction
    correlated, _ = estimates(g, h, Ordering())
    anti, _ = estimates(g, h, Ordering(kind=OrderingKind.ANTI_CORRELATED))
    assert not np.allclose(np.sort(correlated), np.sort(anti))


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="factor 1: 2 eigenvalues vs 3 degrees"):
        sayama_spectrum([0.0, 1.0], [1, 1, 1], [0.0], [1])
    with pytest.raises(ValueError, match="factor 2: 1 eigenvalues vs 2 degrees"):
        sayama_spectrum([0.0, 1.0], [1, 1], [0.0], [1, 1])


def test_estimate_spectrum_reads_each_estimators_basis_and_formula(monkeypatch):
    f1, f2 = map(factor_spectra, er_pair(10, 8, 8, 9, density=0.5))
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
    g, h = er_pair(10, 8, 8, 9, density=0.5)
    w1 = np.linalg.eigh(laplacian(g)).eigenvectors
    w2 = np.linalg.eigh(laplacian(h)).eigenvectors
    vec = np.kron(w1[:, 0], w2[:, 0])
    ones = np.ones(g.n * h.n) / np.sqrt(g.n * h.n)
    assert abs(abs(vec @ ones) - 1) <= 1e-9  # the ones direction, either sign
    # exact eigenvector for eigenvalue 0 of the product Laplacian
    assert np.linalg.norm(dense_laplacian(g, h) @ vec) <= 1e-9


def test_first_normalized_pair_is_not_product_eigenvector():
    # for irregular factors, v1 kron v1 is not an eigenvector of the product
    # Laplacian (unlike the Laplacian-basis pair)
    g, h = er_pair(10, 8, 18, 19)
    assert len(set(g.degrees.tolist())) > 1
    v1 = np.linalg.eigh(normalized_laplacian(g)).eigenvectors
    v2 = np.linalg.eigh(normalized_laplacian(h)).eigenvectors
    vec = np.kron(v1[:, 0], v2[:, 0])
    image = dense_laplacian(g, h) @ vec
    # residual of the best eigenvalue fit stays far from zero
    best = image @ vec
    assert np.linalg.norm(image - best * vec) > 1e-3


# ---------------------------------------------------------------------------
# property tests: invariants over random connected factor pairs
# ---------------------------------------------------------------------------

PROPERTY = property_settings(40)
REGULAR = factor_graphs(("CYCLE", "RING"), ring_degrees=(2, 4, 6))
SORTED_KINDS = [kind for kind in OrderingKind if kind != OrderingKind.UNCORRELATED]
# few distinct values, so most draws hold ties
TIED_VALUES = st.lists(st.integers(0, 4).map(float), min_size=2, max_size=30).map(np.array)


@PROPERTY
@given(TIED_VALUES, st.sampled_from(SORTED_KINDS), SEEDS, st.none() | st.integers(0, 8))
def test_property_sorted_kinds_are_a_stable_sort_then_adjacent_swaps(values, kind, seed, swaps):
    descending, randomized = kind.value.startswith("Anti"), kind.value.endswith("Randomized")
    # the stable sort in the kind's direction, tied values in index order
    stable = sorted(range(len(values)), key=lambda i: -values[i] if descending else values[i])
    position = {index: p for p, index in enumerate(stable)}
    swaps = swaps if randomized else None
    default = len(values) // 4 if randomized else 0
    most = default if swaps is None else swaps
    for salt in (1, 2):
        assert apply_ordering(values, Ordering(kind, seed, 0), salt).tolist() == stable
        moved = [position[i] for i in apply_ordering(values, Ordering(kind, seed, swaps), salt)]
        assert sorted(moved) == list(range(len(values)))
        # each adjacent transposition moves the inversion count by exactly one
        inversions = sum(a > b for p, a in enumerate(moved) for b in moved[p + 1 :])
        assert inversions <= most and (most - inversions) % 2 == 0


@pytest.mark.parametrize("kind", [OrderingKind.CORRELATED, OrderingKind.ANTI_CORRELATED])
def test_unseeded_kinds_build_no_generator(monkeypatch, kind):
    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    values, degrees = np.array([2.0, 0.0, 2.0, 1.0]), np.array([1, 2, 2, 1])
    assert values[apply_ordering(values, Ordering(kind))].tolist() == sorted(
        values, reverse=kind == OrderingKind.ANTI_CORRELATED
    )
    sayama_spectrum(values, degrees, values, degrees, Ordering(kind))


@PROPERTY
@given(factor_pairs(), ORDERINGS)
@example(
    (generate_connected(GeneratorSpec("ER", 5, 0.3, seed=3)),) * 2,
    Ordering(OrderingKind.ANTI_CORRELATED_RANDOMIZED, randomization_seed=5),
)
def test_property_exactly_one_zero(pair, ordering):
    # a zero at the pair of the two (first, under Correlated) zero eigenvalues; the
    # normalized cell (1 - (1 - lam)(1 - lam')) d d' has no other, as lam = lam' = 2
    # needs both factors bipartite, but a Sayama cell mu d' + d mu' - mu mu' also
    # vanishes where mu = mu' = d + d' (3 = 1 + 2 in the example)
    g, h = pair
    sayama, normalized = estimates(g, h, ordering)
    for est in (sayama, normalized):
        assert est.shape == (g.n * h.n,)
        if ordering.kind == OrderingKind.CORRELATED:
            assert est[0] == 0.0
    assert np.count_nonzero(sayama == 0.0) >= 1
    assert np.count_nonzero(normalized == 0.0) == 1


@PROPERTY
@given(factor_pairs(), ORDERINGS)
def test_property_normalized_estimate_nonnegative(pair, ordering):
    _, normalized = estimates(*pair, ordering)
    assert normalized.min() >= 0.0


@PROPERTY
@given(factor_pairs(REGULAR), ORDERINGS)
def test_property_regular_factors_exact(pair, ordering):
    g, h = pair
    exact = np.linalg.eigvalsh(dense_laplacian(g, h))
    for est in estimates(g, h, ordering):
        assert np.abs(np.sort(est) - exact).max() <= 1e-9


@PROPERTY
@given(factor_pairs(), ORDERINGS, SEEDS)
def test_property_degrees_in_any_order(pair, ordering, seed):
    # the estimators and the degree bound pair each factor's degrees ascending themselves
    g, h = pair
    rng = np.random.default_rng(seed)
    d1, d2 = rng.permutation(g.degrees), rng.permutation(h.degrees)
    shuffled = estimates(g, h, ordering, degrees=(d1, d2))
    for estimate, reference in zip(shuffled, estimates(g, h, ordering)):
        assert np.array_equal(estimate, reference)
    for f, d in ((g, d1), (h, d2)):
        mu = np.linalg.eigvalsh(laplacian(f))
        assert sayama_bound_holds(rng.permutation(mu), d) == sayama_bound_holds(mu, np.sort(d))
