"""Random graph generators: determinism, moments, density targeting."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given

from kronspec import generators
from kronspec.experiments import ExperimentConfig
from kronspec.generators import (
    GenerationError,
    GeneratorSpec,
    barabasi_albert,
    density_to_params,
    derive_seed,
    erdos_renyi,
    generate_connected,
    generate_connected_pair,
    watts_strogatz,
)
from kronspec.graphs import is_bipartite, is_connected, kronecker_graph, write_edge_list
from toolkit import config_spec_pairs, property_settings


@pytest.fixture
def edge_list_text(tmp_path):
    def text(g) -> str:
        write_edge_list(g, tmp_path / "g.edges")
        return (tmp_path / "g.edges").read_text()

    return text


def test_er_determinism(edge_list_text):
    a = erdos_renyi(40, 0.3, seed=123)
    b = erdos_renyi(40, 0.3, seed=123)
    assert edge_list_text(a) == edge_list_text(b)
    c = erdos_renyi(40, 0.3, seed=124)
    assert edge_list_text(a) != edge_list_text(c)


def test_er_tiny_graph():
    g = erdos_renyi(2, 0.999999, seed=0)
    assert g.edge_count == 1


def test_er_mean_degree_moment():
    # binomial moments: mean degree (n-1)p, checked within 3 sigma of the
    # 50-seed sample mean
    n, p, seeds = 200, 0.3, 50
    expected = (n - 1) * p
    sample = [erdos_renyi(n, p, seed=s).degrees.mean() for s in range(seeds)]
    sigma_mean = np.sqrt((n - 1) * p * (1 - p) / n) / np.sqrt(seeds)
    assert abs(np.mean(sample) - expected) <= 3 * sigma_mean


def test_er_degree_distribution_moments():
    n, p = 200, 0.3
    degrees = np.concatenate([erdos_renyi(n, p, seed=s).degrees for s in range(200)])
    assert abs(degrees.mean() - (n - 1) * p) <= 0.1 * (n - 1) * p
    assert abs(degrees.var() - (n - 1) * p * (1 - p)) <= 0.1 * (n - 1) * p * (1 - p)


def test_ws_ring_lattice():
    g = watts_strogatz(10, 4, beta=0.0, seed=1)
    assert np.all(g.degrees == 4)
    c6 = watts_strogatz(6, 2, beta=0.0, seed=1)
    assert sorted(c6.edges()) == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_ws_edge_count_preserved():
    for seed in range(20):
        g = watts_strogatz(30, 6, beta=0.4, seed=seed)
        assert g.edge_count == 30 * 6 // 2


def test_ws_parameter_validation():
    with pytest.raises(ValueError):
        watts_strogatz(10, 3, 0.2, 0)
    with pytest.raises(ValueError):
        watts_strogatz(10, 10, 0.2, 0)
    with pytest.raises(ValueError, match="rewiring probability"):
        watts_strogatz(10, 4, 1.5, 0)


def test_ba_tree_and_edge_count():
    g = barabasi_albert(20, 1, seed=5)
    assert g.edge_count == 19
    assert is_connected(g)
    for seed in range(20):
        m = 3
        g = barabasi_albert(25, m, seed=seed)
        assert g.edge_count == m * (m + 1) // 2 + (25 - m - 1) * m
        assert is_connected(g)


def test_ba_determinism(edge_list_text):
    a = barabasi_albert(30, 2, seed=9)
    b = barabasi_albert(30, 2, seed=9)
    assert edge_list_text(a) == edge_list_text(b)


def test_density_to_params_er():
    spec = GeneratorSpec("ER", 50, 0.10, seed=0)
    assert density_to_params(spec) == {"p": 0.10}


def test_density_to_params_ws():
    spec = GeneratorSpec("WS", 30, 0.30, seed=0)
    # 0.30 * 29 = 8.7 -> nearest even 8
    assert density_to_params(spec)["k"] == 8
    with pytest.raises(ValueError):
        density_to_params(GeneratorSpec("WS", 30, 0.02, seed=0))


def test_density_to_params_ba():
    # n=50, target 0.10: edge counts 49.5m - m^2/2 give m=3 as the closest
    spec = GeneratorSpec("BA", 50, 0.10, seed=0)
    assert density_to_params(spec)["m_attach"] == 3
    # the scan beats its neighbors
    pairs = 50 * 49 / 2
    for m, edges in ((2, 97), (3, 144), (4, 190)):
        assert abs(144 / pairs - 0.10) <= abs(edges / pairs - 0.10)


def test_generate_connected(edge_list_text):
    g = generate_connected(GeneratorSpec("ER", 50, 0.3, seed=77))
    assert is_connected(g)
    # BA is always connected: first draw is returned unchanged
    spec = GeneratorSpec("BA", 40, 0.2, seed=3)
    assert edge_list_text(generate_connected(spec)) == edge_list_text(
        barabasi_albert(40, density_to_params(spec)["m_attach"], seed=3)
    )


def test_generate_connected_exhausts_retries():
    # far below the connectivity threshold: essentially never connected
    spec = GeneratorSpec("ER", 30, 0.02, seed=1)
    with pytest.raises(GenerationError):
        generate_connected(spec)


def test_generate_connected_pair_product_connected():
    for seed in range(5):
        s1 = GeneratorSpec("ER", 12, 0.3, seed=seed)
        s2 = GeneratorSpec("ER", 15, 0.3, seed=seed + 100)
        g1, g2 = generate_connected_pair(s1, s2)
        assert is_connected(g1) and is_connected(g2)
        assert not (is_bipartite(g1) and is_bipartite(g2))
        assert is_connected(kronecker_graph(g1, g2))


def test_generate_connected_pair_fails_for_even_cycles(monkeypatch):
    draws = []
    draw = generators._draw
    monkeypatch.setattr(
        generators, "_draw", lambda spec, seed: draws.append(seed) or draw(spec, seed)
    )
    pairs = [
        (GeneratorSpec("CYCLE", 6, 0.5, seed=0), GeneratorSpec("CYCLE", 8, 0.5, seed=0)),
        # m_attach = 1: BA draws trees
        (GeneratorSpec("BA", 30, 0.05, seed=0), GeneratorSpec("BA", 50, 0.05, seed=0)),
        # ring degree 2 and no rewiring: WS draws the even cycles C30 and C50
        (GeneratorSpec("WS", 30, 0.05, 0, 0.0), GeneratorSpec("WS", 50, 0.05, 0, 0.0)),
    ]
    for s1, s2 in pairs:
        draws.clear()
        with pytest.raises(GenerationError, match="bipartite"):
            generate_connected_pair(s1, s2)
        # no seed makes either factor non-bipartite, so the pair fails without redrawing
        assert len(draws) == 2


def first_non_bipartite_redraw(spec):
    """The first non-bipartite graph among the pair rule's redraws of ``spec``."""
    redraws = (
        generate_connected(replace(spec, seed=derive_seed(spec.seed, "nonbipartite", k)))
        for k in range(1, generators.MAX_ATTEMPTS)
    )
    return next(g for g in redraws if not is_bipartite(g))


def test_generate_connected_pair_redraws_a_bipartite_second_factor():
    tree = GeneratorSpec("BA", 10, 0.2, seed=4)
    assert density_to_params(tree) == {"m_attach": 1}
    spec2 = GeneratorSpec("ER", 8, 0.3, seed=1)
    assert is_bipartite(generate_connected(spec2))
    g1, g2 = generate_connected_pair(tree, spec2)
    assert is_bipartite(g1) and not is_bipartite(g2)
    assert np.array_equal(g2.adjacency, first_non_bipartite_redraw(spec2).adjacency)


def test_generate_connected_pair_redraws_the_first_factor_if_the_second_cannot_change():
    spec1 = GeneratorSpec("ER", 8, 0.3, seed=1)
    assert is_bipartite(generate_connected(spec1))
    k2 = GeneratorSpec("ER", 2, 0.3, seed=0)
    g1, g2 = generate_connected_pair(spec1, k2)
    assert not is_bipartite(g1) and g2.n == 2
    assert np.array_equal(g1.adjacency, first_non_bipartite_redraw(spec1).adjacency)


@property_settings(100)
@given(config_spec_pairs())
@example(ExperimentConfig(model="ER", orders=(8, 2), density=0.3, master_seed=2).run_specs(0))
@example(ExperimentConfig(model="BA", orders=(5, 12), density=0.3).run_specs(0))  # a tree first
@example(ExperimentConfig(model="CYCLE", orders=(4, 5), density=0.5).run_specs(0))
def test_generate_connected_pair_connects_every_pair_a_config_accepts(specs):
    g1, g2 = generate_connected_pair(*specs)
    assert is_connected(g1) and is_connected(g2)
    assert is_connected(kronecker_graph(g1, g2))


def test_generate_connected_pair_gives_up_after_max_attempts(monkeypatch):
    monkeypatch.setattr(generators, "is_bipartite", lambda g: True)
    s1 = GeneratorSpec("ER", 12, 0.3, seed=0)
    s2 = GeneratorSpec("ER", 15, 0.3, seed=1)
    with pytest.raises(GenerationError, match="no non-bipartite factor"):
        generate_connected_pair(s1, s2)


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("XX", 10, 0.5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec("ER", 10, 1.5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec("ER", 1, 0.5, seed=0)
    with pytest.raises(ValueError, match="order"):
        GeneratorSpec("ER", 10.5, 0.5, seed=0)
    with pytest.raises(ValueError, match="ws_beta"):
        GeneratorSpec("WS", 10, 0.5, seed=0, ws_beta=1.5)
    with pytest.raises(ValueError, match="edge probability"):
        erdos_renyi(10, 1.0, seed=0)
    with pytest.raises(ValueError, match="attachment count"):
        barabasi_albert(10, 10, seed=0)


def test_generated_graphs_are_simple():
    for g in (
        erdos_renyi(25, 0.4, seed=2),
        watts_strogatz(25, 6, 0.5, seed=2),
        barabasi_albert(25, 4, seed=2),
    ):
        assert np.all(np.diagonal(g.adjacency) == 0)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert set(np.unique(g.adjacency)) <= {0, 1}
