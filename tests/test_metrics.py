"""Correlation profiles, percentage errors, aggregation, and KDE."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kronspec
from kronspec.checks import complete_graph, cycle_graph
from kronspec.estimators import normalized_estimate
from kronspec.generators import GeneratorSpec, generate_connected
from kronspec.graphs import (
    KroneckerLaplacian,
    build_graph,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
)
from kronspec.metrics import (
    KDE_BLOCK,
    aggregate_profile,
    correlation_profile,
    kde,
    percentage_errors,
)
from kronspec.theory import mean_rms_ratio


def test_correlation_profile_regular_factors_all_one():
    c4, k3 = cycle_graph(4), complete_graph(3)
    w1 = np.linalg.eigh(laplacian(c4)).eigenvectors
    w2 = np.linalg.eigh(laplacian(k3)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(c4, k3), w1, w2)
    assert profile.shape == (11,)
    assert np.abs(profile - 1.0).max() <= 1e-9


def test_correlation_profile_first_row_is_mean_over_rms():
    g = generate_connected(GeneratorSpec("ER", 12, 0.4, seed=51))
    h = generate_connected(GeneratorSpec("ER", 9, 0.4, seed=52))
    w1 = np.linalg.eigh(laplacian(g)).eigenvectors
    w2 = np.linalg.eigh(laplacian(h)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(g, h), w1, w2)
    row = profile[: h.n - 1]
    assert np.abs(row - mean_rms_ratio(g.degrees)).max() <= 1e-10
    assert row.max() - row.min() <= 1e-10


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


def test_correlation_profile_values_in_range():
    g = generate_connected(GeneratorSpec("ER", 10, 0.4, seed=61))
    h = generate_connected(GeneratorSpec("ER", 8, 0.4, seed=62))
    v1 = np.linalg.eigh(normalized_laplacian(g)).eigenvectors
    v2 = np.linalg.eigh(normalized_laplacian(h)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(g, h), v1, v2)
    assert profile.min() >= -1e-12  # PSD quadratic form
    assert profile.max() <= 1.0 + 1e-12


def test_correlation_profile_restricted_pairs():
    # a subset of pairs is read off the flat profile at its row-major index
    g = generate_connected(GeneratorSpec("ER", 7, 0.5, seed=71))
    h = generate_connected(GeneratorSpec("ER", 6, 0.5, seed=72))
    v1 = np.linalg.eigh(normalized_laplacian(g)).eigenvectors
    v2 = np.linalg.eigh(normalized_laplacian(h)).eigenvectors
    profile = correlation_profile(KroneckerLaplacian(g, h), v1, v2)
    lap_product = laplacian(kronecker_graph(g, h))
    for i, j in [(0, 1), (1, 0), (3, 2), (g.n - 1, h.n - 1)]:
        x = np.kron(v1[:, i], v2[:, j])
        lx = lap_product @ x
        reference = x @ lx / (np.linalg.norm(x) * np.linalg.norm(lx))
        assert abs(profile[i * h.n + j - 1] - reference) <= 1e-12


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
    k2 = build_graph(2, [(0, 1)])
    product = kronecker_graph(k2, k2)
    actual = np.linalg.eigvalsh(laplacian(product))
    with pytest.raises(ValueError):
        percentage_errors(np.array([0.0, 0.0, 2.0, 2.0]), actual)


def test_percentage_errors_exact_for_regular_factors():
    c4, k3 = cycle_graph(4), complete_graph(3)
    lam1, d1 = np.linalg.eigvalsh(normalized_laplacian(c4)), np.sort(c4.degrees)
    lam2, d2 = np.linalg.eigvalsh(normalized_laplacian(k3)), np.sort(k3.degrees)
    actual = np.linalg.eigvalsh(laplacian(kronecker_graph(c4, k3)))
    errors = percentage_errors(normalized_estimate(lam1, d1, lam2, d2), actual)
    assert np.abs(errors).max() <= 1e-7


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
    curve = kde(samples, grid_size=1024)
    peak_location = curve.grid[np.argmax(curve.density)]
    assert abs(peak_location) <= 0.15
    assert abs(curve.density.max() - 1 / np.sqrt(2 * np.pi)) <= 0.02


def test_kde_integrates_to_one():
    rng = np.random.default_rng(43)
    curve = kde(rng.normal(3.0, 0.5, size=500))
    integral = np.trapezoid(curve.density, curve.grid)
    assert abs(integral - 1.0) <= 1e-3


def test_kde_symmetric_two_point():
    curve = kde(np.array([-2.0, 2.0]), grid_size=301)
    assert np.abs(curve.density - curve.density[::-1]).max() <= 1e-12


def test_kde_blocks_match_one_shot_evaluation():
    # a grid that ends in a partial block gives the same bytes as one
    # grid x samples evaluation of the same formula
    samples = np.random.default_rng(47).normal(0.8, 0.1, size=1499)
    grid_size = 3 * KDE_BLOCK + 5
    curve = kde(samples, grid_size=grid_size)
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
    # only spectral.py names scipy, inside the solver for large products, so
    # importing the package, the CLI or the checks leaves it unloaded
    package = Path(kronspec.__file__).resolve().parent
    names = [p.name for p in sorted(package.glob("*.py")) if "scipy" in p.read_text()]
    assert names == ["spectral.py"]
    code = (
        "import sys, kronspec, kronspec.cli, kronspec.checks; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(kronspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"
