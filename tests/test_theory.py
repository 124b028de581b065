"""Closed forms, bounds, and the expected-spectrum formula."""

import math

import numpy as np
import pytest

from kronspec import checks
from kronspec.checks import (
    complete_bipartite_graph,
    complete_graph,
    staircase_degrees,
    star_graph,
)
from kronspec.generators import GeneratorSpec, generate_connected
from kronspec.graphs import cycle_graph, laplacian
from kronspec.theory import (
    asymptotic_cubic,
    expected_kron_normalized_spectrum,
    expected_r1j,
    mean_rms_ratio,
    rprime_lower_bound,
    sayama_bound_holds,
)
from toolkit import dense_normalized


def test_mean_rms_star():
    # star on n vertices: 2 sqrt(n-1) / n
    assert mean_rms_ratio(star_graph(5).degrees) == pytest.approx(0.8, abs=1e-12)


def test_mean_rms_regular_is_one():
    assert mean_rms_ratio(complete_graph(3).degrees) == pytest.approx(1.0)
    assert mean_rms_ratio(cycle_graph(7).degrees) == pytest.approx(1.0)


def test_mean_rms_complete_bipartite():
    # K_{2, n-2} with n = 6: 2 sqrt(2n - 4) / n
    expected = 2 * math.sqrt(2 * 6 - 4) / 6
    assert mean_rms_ratio(complete_bipartite_graph(2, 4).degrees) == pytest.approx(
        expected, abs=1e-12
    )


def test_mean_rms_never_exceeds_one():
    rng = np.random.default_rng(2)
    for _ in range(200):
        degrees = rng.integers(1, 30, size=int(rng.integers(2, 40)))
        ratio = mean_rms_ratio(degrees)
        assert ratio <= 1.0 + 1e-12
        if len(set(degrees.tolist())) > 1:
            assert ratio < 1.0


def test_mean_rms_validation():
    with pytest.raises(ValueError):
        mean_rms_ratio([])
    with pytest.raises(ValueError):
        mean_rms_ratio([0, 1, 2])


def test_staircase_limit():
    # degrees 1..k, k+1, k+1, k+2..2k+1 approach sqrt(3)/2 from above
    assert abs(mean_rms_ratio(staircase_degrees(500)) - math.sqrt(3) / 2) <= 1e-3
    closer = mean_rms_ratio(staircase_degrees(2000))
    further = mean_rms_ratio(staircase_degrees(50))
    limit = math.sqrt(3) / 2
    assert abs(closer - limit) < abs(further - limit)


def test_expected_r1j_values():
    assert expected_r1j(30, 0.1) == pytest.approx(math.sqrt(2.9 / 3.8), abs=1e-12)
    # increases toward 1 in p and in n
    assert expected_r1j(30, 0.999) > 0.999
    grid = [expected_r1j(n, 0.3) for n in (10, 30, 100, 300, 1000)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert grid[-1] > 0.995


def test_expected_r1j_grid_holds_its_claim():
    entry = checks.expected_r1j_grid()
    assert entry["pass"] is True
    assert entry["observed"] == {
        f"n={n},p={p}": expected_r1j(n, p) for n in (30, 50, 100, 200) for p in (0.1, 0.3, 0.65)
    }


@pytest.mark.parametrize("broken", [
    lambda n, p: 1.0 / n,  # decreasing in n
    lambda n, p: 1.0 - p / 2 - 1.0 / n,  # decreasing in p
    lambda n, p: n * p / 10,  # increasing in both, but leaves (0, 1)
])
def test_expected_r1j_grid_fails_a_broken_formula(monkeypatch, broken):
    monkeypatch.setattr(checks, "expected_r1j", broken)
    assert checks.expected_r1j_grid()["pass"] is False


def test_expected_r1j_validation():
    with pytest.raises(ValueError):
        expected_r1j(1, 0.5)
    with pytest.raises(ValueError):
        expected_r1j(10, 0.0)


def test_rprime_lower_bound_regular():
    assert rprime_lower_bound(complete_graph(4).degrees, 1.0) == pytest.approx(1.0)


def test_rprime_lower_bound_star():
    # star K_{1,3}: M1 = 12, F = 30, 2m = 6 -> 12 / sqrt(180)
    value = rprime_lower_bound(star_graph(4).degrees, 1.0)
    assert value == pytest.approx(12 / math.sqrt(180), abs=1e-12)


def test_rprime_lower_bound_never_exceeds_input():
    rng = np.random.default_rng(9)
    for _ in range(100):
        degrees = rng.integers(1, 20, size=int(rng.integers(2, 30)))
        r = float(rng.uniform(0, 1))
        assert rprime_lower_bound(degrees, r) <= r + 1e-12
    for r in (-0.1, 1.1):
        with pytest.raises(ValueError, match="out of"):
            rprime_lower_bound(complete_graph(4).degrees, r)


def test_asymptotic_inequality_examples():
    assert asymptotic_cubic(1, 0.5) >= 0
    assert asymptotic_cubic(2, 0.9) >= 0
    # (1-p)^3 at n = 1, exactly zero at p -> 1
    assert asymptotic_cubic(1, 0.99) >= 0


def test_asymptotic_inequality_spot_grid():
    for n in (1, 2, 3, 10, 100, 500):
        for p in np.arange(0.01, 1.0, 0.01):
            assert asymptotic_cubic(n, float(p)) >= 0


def test_expected_spectrum_small_case():
    values: dict[float, int] = {}
    for v, m in expected_kron_normalized_spectrum(3, 3):
        values[round(v, 12)] = values.get(round(v, 12), 0) + m
    assert values[0.0] == 1
    assert values[1.5] == 4  # n/(n-1) = 1.5 from both factor levels, 2 + 2
    assert values[0.75] == 4


def test_expected_spectrum_multiplicities_sum():
    for n1, n2 in ((2, 2), (3, 7), (30, 50)):
        levels = expected_kron_normalized_spectrum(n1, n2)
        assert sum(m for _, m in levels) == n1 * n2
    with pytest.raises(ValueError):
        expected_kron_normalized_spectrum(1, 5)


def test_expected_spectrum_matches_numeric_oracle():
    # the p factor cancels in the normalized Laplacian of p(J - I) kron p(J - I)
    n1, n2 = 5, 7
    closed = np.sort(
        np.concatenate(
            [np.full(m, v) for v, m in expected_kron_normalized_spectrum(n1, n2)]
        )
    )
    for p in (0.1, 0.65, 1.0):
        bar1 = p * (np.ones((n1, n1)) - np.eye(n1))
        bar2 = p * (np.ones((n2, n2)) - np.eye(n2))
        numeric = np.linalg.eigvalsh(dense_normalized(np.kron(bar1, bar2)))
        assert np.abs(numeric - closed).max() <= 1e-8


def test_sayama_bound_star():
    star = star_graph(4)
    mu = np.linalg.eigvalsh(laplacian(star))
    assert sayama_bound_holds(mu, np.sort(star.degrees))


def test_sayama_bound_regular():
    c5 = cycle_graph(5)
    assert sayama_bound_holds(np.linalg.eigvalsh(laplacian(c5)), np.sort(c5.degrees))


def test_sayama_bound_random_sweep():
    for seed in range(50):
        g = generate_connected(GeneratorSpec("ER", 20, 0.4, seed=seed))
        mu = np.linalg.eigvalsh(laplacian(g))
        assert sayama_bound_holds(mu, np.sort(g.degrees))


def test_sayama_bound_validation():
    with pytest.raises(ValueError):
        sayama_bound_holds([0.0, 1.0], [1.0])
