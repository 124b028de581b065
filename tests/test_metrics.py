"""Correlation profiles, percentage errors, aggregation, and KDE."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import kronspec
from kronspec.estimators import Estimator, Ordering, OrderingKind, estimate_spectrum
from kronspec.experiments import ExperimentConfig, run_single
from kronspec.generators import GeneratorSpec, generate_connected, generate_connected_pair
from kronspec.graphs import KroneckerLaplacian, cycle_graph, laplacian
from kronspec import metrics
from kronspec.metrics import (
    KDE_BLOCK,
    aggregate_profile,
    correlation_profile,
    kde,
    percentage_errors,
)
from kronspec.spectral import factor_spectra
from toolkit import (
    ORDERINGS,
    complete_graph,
    dense_laplacian,
    estimates,
    factor_pairs,
    property_settings,
    run_fresh,
)


def test_correlation_profile_exact_eigenvector_gives_one():
    # with a regular first factor, 1 kron w_j is an exact eigenvector of the
    # product Laplacian (eigenvalue k * mu_j) even for an irregular second factor
    g = cycle_graph(5)
    h = generate_connected(GeneratorSpec("ER", 9, 0.4, seed=52))
    assert len(set(h.degrees.tolist())) > 1
    w1 = np.linalg.eigh(laplacian(g)).eigenvectors
    w2 = np.linalg.eigh(laplacian(h)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(g, h), w1, w2)
    assert np.abs(profile[: h.n - 1] - 1.0).max() <= 1e-12
    assert np.abs(profile[h.n - 1:] - 1.0).max() > 1e-3  # later rows are not eigenvectors


def test_correlation_profile_rejects_mismatched_bases():
    g, h = cycle_graph(5), complete_graph(3)
    w1 = np.linalg.eigh(laplacian(g)).eigenvectors
    with pytest.raises(ValueError, match="do not match"):
        correlation_profile(KroneckerLaplacian(g, h), w1, w1)


def test_percentage_errors_scaling():
    actual = np.array([0.0, 1.0, 2.0, 4.0])
    estimated = 1.1 * actual
    errors = percentage_errors(estimated, actual)
    assert np.allclose(errors, [10.0, 10.0, 10.0])


def test_percentage_errors_sorts_estimates():
    actual = np.array([0.0, 1.0, 2.0])
    shuffled = np.array([2.2, 0.0, 1.1])
    assert np.allclose(percentage_errors(shuffled, actual), [10.0, 10.0])


def test_percentage_errors_rejects_disconnected():
    k2 = complete_graph(2)
    actual = np.linalg.eigvalsh(dense_laplacian(k2, k2))
    with pytest.raises(ValueError):
        percentage_errors(np.array([0.0, 0.0, 2.0, 2.0]), actual)
    with pytest.raises(ValueError, match="length mismatch"):
        percentage_errors(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="sorted ascending"):
        percentage_errors(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 1.0]))


def test_percentage_errors_exact_for_regular_factors():
    c4, k3 = cycle_graph(4), complete_graph(3)
    _, normalized = estimates(c4, k3)
    errors = percentage_errors(normalized, np.linalg.eigvalsh(dense_laplacian(c4, k3)))
    assert np.abs(errors).max() <= 1e-7


def errors_without_one_zero(estimated, actual):
    """The percentage errors with one exact zero of the estimate and rank 1 of the truth dropped."""
    rest = list(estimated)
    rest.remove(0.0)
    return 100.0 * (np.sort(rest) - actual[1:]) / actual[1:]


def test_percentage_errors_drop_the_zero_not_a_negative_estimate():
    # an explicit Uncorrelated pairing makes two Sayama estimates of this run negative;
    # the entry dropped must be the matched zero, not the smallest
    config = ExperimentConfig(
        model="ER", orders=(10, 12), density=0.4, master_seed=1,
        ordering=Ordering(OrderingKind.UNCORRELATED),
    )
    g, h = generate_connected_pair(*config.run_specs(0))
    sayama = Estimator.SAYAMA_LAPLACIAN
    est = estimate_spectrum(sayama, factor_spectra(g), factor_spectra(h), config.ordering)
    assert np.count_nonzero(est < 0) == 2
    assert est.min() == pytest.approx(-15.10, abs=5e-3)
    actual = np.linalg.eigvalsh(dense_laplacian(g, h))
    errors = run_single(config, 0).errors[sayama]
    assert errors[0] == pytest.approx(100.0 * (est.min() - actual[1]) / actual[1], rel=1e-12)
    assert np.allclose(errors, errors_without_one_zero(est, actual), rtol=1e-9)


@property_settings(40)
@given(factor_pairs(), ORDERINGS)
def test_property_percentage_errors_drop_one_exact_zero(pair, ordering):
    g, h = pair
    actual = np.linalg.eigvalsh(dense_laplacian(g, h))
    for est in estimates(g, h, ordering):
        errors = percentage_errors(est, actual)
        assert np.array_equal(errors, errors_without_one_zero(est, actual))


def test_aggregate_profile_single_run():
    profile = aggregate_profile([np.array([1.0, -2.0, 3.0])])
    assert np.array_equal(profile.median, [1.0, -2.0, 3.0])
    assert np.array_equal(profile.p5, profile.median)
    assert np.array_equal(profile.p95, profile.median)


def test_aggregate_profile_linear_interpolation():
    # two runs {0, 10}: median 5, p5 = 0.5, p95 = 9.5 under linear interpolation
    profile = aggregate_profile([np.array([0.0]), np.array([10.0])])
    assert profile.median[0] == pytest.approx(5.0)
    assert profile.p5[0] == pytest.approx(0.5)
    assert profile.p95[0] == pytest.approx(9.5)


def test_aggregate_profile_percentile_ordering():
    rng = np.random.default_rng(77)
    vectors = [rng.standard_normal(40) for _ in range(30)]
    profile = aggregate_profile(vectors)
    assert np.all(profile.p5 <= profile.median)
    assert np.all(profile.median <= profile.p95)


def test_aggregate_profile_all_zero():
    profile = aggregate_profile([np.zeros(5) for _ in range(4)])
    assert np.abs(profile.median).max() == 0.0
    assert np.abs(profile.p95).max() == 0.0


def test_aggregate_profile_empty_raises():
    with pytest.raises(ValueError):
        aggregate_profile([])


def test_kde_standard_normal_peak():
    rng = np.random.default_rng(41)
    samples = rng.standard_normal(10000)
    curve = kde(samples)
    peak_location = curve.grid[np.argmax(curve.density)]
    assert abs(peak_location) <= 0.15
    assert abs(curve.density.max() - 1 / np.sqrt(2 * np.pi)) <= 0.02


def test_kde_integrates_to_one():
    rng = np.random.default_rng(43)
    curve = kde(rng.normal(3.0, 0.5, size=500))
    integral = np.trapezoid(curve.density, curve.grid)
    assert abs(integral - 1.0) <= 1e-3


def test_kde_symmetric_two_point():
    curve = kde(np.array([-2.0, 2.0]))
    assert np.abs(curve.density - curve.density[::-1]).max() <= 1e-12


def test_kde_blocks_match_one_shot_evaluation(monkeypatch):
    # a grid that ends in a partial block gives the same bytes as one
    # grid x samples evaluation of the same formula
    samples = np.random.default_rng(47).normal(0.8, 0.1, size=1499)
    monkeypatch.setattr(metrics, "KDE_GRID", 3 * KDE_BLOCK + 5)
    curve = kde(samples)
    h = curve.bandwidth
    z = (curve.grid[:, None] - samples[None, :]) / h
    one_shot = np.exp(-0.5 * z * z).sum(axis=1) / (len(samples) * h * np.sqrt(2 * np.pi))
    assert curve.density.tobytes() == one_shot.tobytes()


def test_kde_degenerate_inputs():
    with pytest.raises(ValueError):
        kde(np.array([1.0]))
    with pytest.raises(ValueError):
        kde(np.array([2.0, 2.0, 2.0]))


def test_import_loads_no_scipy():
    # no source file names scipy (the solver calls the LAPACK numpy links),
    # so importing the package, the CLI or the checks leaves it unloaded
    package = Path(kronspec.__file__).resolve().parent
    names = [p.name for p in sorted(package.glob("*.py")) if "scipy" in p.read_text()]
    assert names == []
    code = (
        "import sys, kronspec, kronspec.cli, kronspec.checks; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh(code) == "[]"
