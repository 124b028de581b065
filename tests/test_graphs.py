"""Graph construction, matrix builders, Kronecker products, and edge-list IO."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronspec.generators import barabasi_albert, erdos_renyi, watts_strogatz
from kronspec.graphs import (
    Graph,
    KroneckerLaplacian,
    build_graph,
    cycle_graph,
    edge_density,
    is_bipartite,
    is_connected,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
    read_edge_list,
    write_edge_list,
)
from toolkit import SEEDS, fresh_peak_bytes, property_settings, two_coloring


def k2():
    return build_graph(2, [(0, 1)])


def triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def star4():
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


def test_build_graph_basics():
    g = k2()
    assert g.degrees.tolist() == [1, 1]
    assert triangle().degrees.tolist() == [2, 2, 2]
    assert star4().degrees.tolist() == [3, 1, 1, 1]


def test_build_graph_ignores_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(0, [])


def test_graph_is_immutable():
    g = triangle()
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0


def test_graph_equality_compares_adjacency():
    # each comparison is a plain bool, not an array
    assert (cycle_graph(5) == cycle_graph(5)) is True
    assert (cycle_graph(5) == triangle()) is False
    assert (triangle() == triangle().adjacency) is False
    assert (triangle() != star4()) is True
    product = KroneckerLaplacian(triangle(), star4())
    assert (product == KroneckerLaplacian(triangle(), star4())) is True
    assert (product != KroneckerLaplacian(star4(), triangle())) is True
    with pytest.raises(TypeError):
        hash(triangle())


@pytest.mark.parametrize(
    "adjacency, message",
    [
        (np.zeros((0, 0)), "must be nonempty"),
        (np.zeros((2, 3)), "must be square"),
        ([[0, 1], [0, 0]], "must be symmetric"),
        ([[1, 0], [0, 0]], "must have zero diagonal"),
        ([[0, 0.5], [0.5, 0]], "entries must be 0 or 1"),
        ([[0, 2], [2, 0]], "entries must be 0 or 1"),
        ([[0, -1], [-1, 0]], "entries must be 0 or 1"),
        ([[0, np.inf], [np.inf, 0]], "entries must be 0 or 1"),
        # NaN equals nothing, not even its mirror entry
        ([[0, np.nan], [np.nan, 0]], "must be symmetric"),
    ],
    ids=["empty", "non-square", "asymmetric", "nonzero-diagonal", "half-entry", "two-entry",
         "negative-entry", "infinite-entry", "nan-entry"],
)
def test_graph_rejects_malformed_adjacency(adjacency, message):
    with pytest.raises(ValueError, match=f"^adjacency {message}"):
        Graph(np.asarray(adjacency))


@pytest.mark.parametrize(
    "g",
    [
        erdos_renyi(9, 0.4, seed=1),
        watts_strogatz(9, 4, 0.3, seed=2),
        barabasi_albert(9, 2, seed=3),
        cycle_graph(7),
        kronecker_graph(triangle(), star4()),
    ],
    ids=["ER", "WS", "BA", "CYCLE", "kronecker"],
)
def test_graphs_hold_read_only_float64_adjacency(g):
    assert g.adjacency.dtype == np.float64 and g.degrees.dtype == np.float64
    assert not g.adjacency.flags.writeable and not g.degrees.flags.writeable
    assert np.array_equal(g.degrees, g.adjacency.sum(axis=1))


def test_laplacian_small_cases():
    assert np.array_equal(laplacian(k2()), [[1, -1], [-1, 1]])
    lap = laplacian(triangle())
    assert np.array_equal(np.diag(lap), [2, 2, 2])
    assert lap[0, 1] == -1


def test_laplacian_row_sums_zero():
    for g in (k2(), triangle(), star4()):
        assert np.abs(laplacian(g).sum(axis=1)).max() == 0.0


def test_star_laplacian_spectrum():
    # characteristic polynomial of the star is x(x-1)^2(x-4)
    values = np.linalg.eigvalsh(laplacian(star4()))
    assert np.allclose(np.sort(values), [0, 1, 1, 4], atol=1e-12)


def test_normalized_laplacian_small_cases():
    assert np.allclose(normalized_laplacian(k2()), [[1, -1], [-1, 1]])
    norm = normalized_laplacian(triangle())
    # regular graph: normalized Laplacian is L / d
    assert np.allclose(norm, laplacian(triangle()) / 2.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(norm)), [0, 1.5, 1.5], atol=1e-12)


def test_normalized_laplacian_rejects_isolated_vertex():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        normalized_laplacian(g)


def test_normalized_laplacian_spectrum_range_and_kernel():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(4, 15))
        adjacency = (rng.random((n, n)) < 0.5).astype(np.int8)
        adjacency = np.triu(adjacency, 1)
        adjacency = adjacency + adjacency.T
        if np.any(adjacency.sum(axis=1) == 0):
            continue
        g = Graph(adjacency)
        norm = normalized_laplacian(g)
        values, vectors = np.linalg.eigh(norm)
        assert values.min() >= -1e-9 and values.max() <= 2 + 1e-9
        # eigenvector for 0 is parallel to D^{1/2} 1
        expected = np.sqrt(g.degrees.astype(float))
        expected /= np.linalg.norm(expected)
        if is_connected(g):
            assert min(
                np.linalg.norm(vectors[:, 0] - expected),
                np.linalg.norm(vectors[:, 0] + expected),
            ) < 1e-8


def test_kronecker_graph_matches_definition():
    # enumerate the adjacency rule directly: (g,h) ~ (g',h') iff both edges exist
    for a, b in ((k2(), k2()), (k2(), triangle()), (triangle(), star4())):
        product = kronecker_graph(a, b)
        for i in range(a.n):
            for k in range(b.n):
                for j in range(a.n):
                    for l in range(b.n):
                        expected = a.adjacency[i, j] * b.adjacency[k, l]
                        assert product.adjacency[i * b.n + k, j * b.n + l] == expected
        assert product.adjacency.tobytes() == np.kron(a.adjacency, b.adjacency).tobytes()


def test_a_product_graph_holds_its_adjacency_about_once():
    # the product is formed of 1-byte factors, and the Graph makes the one
    # float64 copy and checks it through 1-byte temporaries: 1.25 of the float64
    # adjacency, against 2.13 when np.kron formed it in float64
    n1, n2 = 30, 51
    setup = "from kronspec.graphs import cycle_graph, kronecker_graph\n"
    setup += f"g, h = cycle_graph({n1}), cycle_graph({n2})"
    peak = fresh_peak_bytes(setup, f"assert kronecker_graph(g, h).n == {n1 * n2}")
    assert peak < 1.5 * 8 * (n1 * n2) ** 2


def test_kronecker_k2_k2():
    product = kronecker_graph(k2(), k2())
    assert product.edges() == [(0, 3), (1, 2)]
    assert not is_connected(product)


def test_kronecker_k2_triangle_is_six_cycle():
    product = kronecker_graph(k2(), triangle())
    assert product.n == 6 and product.edge_count == 6
    assert is_connected(product)
    assert np.all(product.degrees == 2)


def test_kronecker_with_edgeless_factor():
    k1 = build_graph(1, [])
    product = kronecker_graph(triangle(), k1)
    assert product.edge_count == 0


def test_kronecker_degrees_multiply():
    rng = np.random.default_rng(11)
    g = build_graph(8, [(int(u), int(v)) for u, v in rng.integers(0, 8, (14, 2)) if u != v])
    h = build_graph(6, [(int(u), int(v)) for u, v in rng.integers(0, 6, (9, 2)) if u != v])
    product = kronecker_graph(g, h)
    for _ in range(1000):
        i = int(rng.integers(0, g.n))
        k = int(rng.integers(0, h.n))
        assert product.degrees[i * h.n + k] == g.degrees[i] * h.degrees[k]


def test_product_laplacian_identity():
    # L of the product equals D1 (x) D2 - A1 (x) A2
    g, h = triangle(), star4()
    product = kronecker_graph(g, h)
    direct = laplacian(product)
    d1 = np.diag(g.degrees.astype(float))
    d2 = np.diag(h.degrees.astype(float))
    composed = np.kron(d1, d2) - np.kron(g.adjacency, h.adjacency).astype(float)
    assert np.array_equal(direct, composed)


def test_connectivity_and_bipartiteness():
    assert is_connected(triangle())
    assert not is_connected(build_graph(2, []))
    assert is_bipartite(k2())
    assert is_bipartite(star4())
    assert not is_bipartite(triangle())
    # every component is colored: an odd cycle away from vertex 0 is found
    k2_and_triangle = build_graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert not is_connected(k2_and_triangle) and not is_bipartite(k2_and_triangle)
    assert is_bipartite(build_graph(6, [(0, 1), (3, 4), (4, 5)]))
    assert is_bipartite(build_graph(4, [])) and is_bipartite(build_graph(1, []))


@property_settings(300)
@given(st.integers(1, 14), st.sampled_from((0.0, 0.05, 0.15, 0.3, 0.6, 1.0)), SEEDS)
def test_graph_checks_match_a_two_coloring(n, p, seed):
    # sparse draws are disconnected, often with odd cycles away from vertex 0
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, 1)
    g = Graph(upper | upper.T)
    assert (is_connected(g), is_bipartite(g)) == two_coloring(g)


def test_edge_density():
    assert edge_density(k2()) == 1.0
    assert edge_density(triangle()) == 1.0
    assert edge_density(star4()) == 0.5


def test_normalized_laplacian_is_a_new_writable_array():
    g = triangle()
    before = g.adjacency.copy()
    norm = normalized_laplacian(g)
    assert norm.flags.writeable
    assert not np.shares_memory(norm, g.adjacency)
    assert np.array_equal(g.adjacency, before)


@property_settings(40)
@given(st.integers(2, 257), SEEDS)
def test_normalized_laplacian_matches_whole_matrix_formula(n, seed):
    # a random graph; every vertex keeps a neighbor on a cycle (n = 2: one edge)
    m = np.random.default_rng(seed).random((n, n)) < 0.5
    m[np.arange(n), (np.arange(n) + 1) % n] = True
    upper = np.triu(m | m.T, 1)
    g = Graph(upper | upper.T)
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    expected = -np.outer(inv_sqrt, inv_sqrt) * g.adjacency
    np.fill_diagonal(expected, expected.diagonal() + 1.0)
    lap = normalized_laplacian(g)
    # the same bits as the whole-matrix formula, signed zeros included
    assert np.array_equal(lap, expected)
    assert np.array_equal(np.signbit(lap), np.signbit(expected))
    assert np.array_equal(lap, lap.T)


def test_edge_list_round_trip(tmp_path):
    g = star4()
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    text = path.read_text()
    assert text.splitlines()[0] == "4 3"
    back = read_edge_list(path)
    assert np.array_equal(back.adjacency, g.adjacency)
    # and the writer output is canonical
    write_edge_list(back, tmp_path / "back.edges")
    assert (tmp_path / "back.edges").read_text() == text


def test_edge_list_file_round_trip(tmp_path):
    g = triangle()
    path = tmp_path / "g.edges"
    write_edge_list(g, str(path))
    back = read_edge_list(str(path))
    assert back.edges() == g.edges()


def edge_list_file(tmp_path, text: str):
    path = tmp_path / "g.edges"
    path.write_text(text)
    return path


def test_read_edge_list_rejects_malformed(tmp_path):
    with pytest.raises(ValueError, match="expected 2 edges, found 1"):
        read_edge_list(edge_list_file(tmp_path, "3 2\n0 1\n"))
    with pytest.raises(ValueError, match="header 'n m' missing"):
        read_edge_list(edge_list_file(tmp_path, ""))


def test_read_edge_list_holds_the_edges_its_header_counts(tmp_path):
    # "1 0" repeats "0 1", so the three edges of the header are two distinct ones
    with pytest.raises(ValueError, match="3 edges, but 2 are distinct"):
        read_edge_list(edge_list_file(tmp_path, "3 3\n0 1\n1 0\n1 2\n"))


def test_read_edge_list_names_a_token_that_is_no_integer(tmp_path):
    with pytest.raises(ValueError, match="edge-list token '1.5' must be an integer"):
        read_edge_list(edge_list_file(tmp_path, "3 1\n0 1.5\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        # a token that is no number gets the integer rule's message
        ("3 1\n0 abc\n", "edge-list token 'abc' must be an integer, got 'abc'"),
        # an integer past 2**53 keeps its value: no float rounds it to 9007199254740992
        ("9007199254740993 0\n", "graph order must be at most 10000, got 9007199254740993"),
        ("3 1\n0 9007199254740993\n", "edge (0, 9007199254740993) out of range for order 3"),
    ],
    ids=["word", "huge-order", "huge-endpoint"],
)
def test_read_edge_list_judges_each_token_at_its_exact_value(tmp_path, text, message):
    with pytest.raises(ValueError) as raised:
        read_edge_list(edge_list_file(tmp_path, text))
    assert str(raised.value) == message


def test_read_edge_list_takes_integral_float_tokens(tmp_path):
    assert read_edge_list(edge_list_file(tmp_path, "3.0 1\n0 1e0\n")).edges() == [(0, 1)]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else [])


@property_settings(60)
@given(graphs())
def test_property_edge_list_round_trip(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n == g.n
    assert np.array_equal(back.adjacency, g.adjacency)
