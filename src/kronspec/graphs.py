"""Simple undirected graphs as dense adjacency matrices.

Provides the matrix constructions everything else is built on: adjacency,
degree, Laplacian ``L = D - A`` and normalized Laplacian
``I - D^{-1/2} A D^{-1/2}``, the cycle graph, the Kronecker (direct) product
of graphs, the product Laplacian in factor form (:class:`KroneckerLaplacian`),
and a plain-text edge-list format.

Graphs are immutable once built: the adjacency and degree arrays are marked
read-only, and degrees are cached at construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: symmetric 0/1 adjacency with zero diagonal.

    ``degrees[i]`` always equals the i-th adjacency row sum.
    """

    n: int
    adjacency: np.ndarray  # (n, n) int8, read-only
    degrees: np.ndarray    # (n,) int64, read-only

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph order must be positive, got {self.n}")
        if self.adjacency.shape != (self.n, self.n):
            raise ValueError("adjacency shape does not match order")
        if self.degrees.shape != (self.n,):
            raise ValueError("degree vector shape does not match order")

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return list(zip(rows.tolist(), cols.tolist()))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from an edge list.

    Duplicate edges are ignored. Self-loops and out-of-range endpoints raise
    ValueError.
    """
    if n < 1:
        raise ValueError(f"graph order must be positive, got {n}")
    adjacency = np.zeros((n, n), dtype=np.int8)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        adjacency[u, v] = 1
        adjacency[v, u] = 1
    degrees = adjacency.sum(axis=1, dtype=np.int64)
    return Graph(n=n, adjacency=_frozen(adjacency), degrees=_frozen(degrees))


def from_adjacency(adjacency: np.ndarray) -> Graph:
    """Wrap a symmetric 0/1 matrix with zero diagonal as a Graph."""
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError("adjacency must be square")
    if not np.array_equal(adjacency, adjacency.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(np.diagonal(adjacency) != 0):
        raise ValueError("adjacency must have zero diagonal")
    adjacency = adjacency.astype(np.int8)
    degrees = adjacency.sum(axis=1, dtype=np.int64)
    return Graph(n=n, adjacency=_frozen(adjacency), degrees=_frozen(degrees))


def cycle_graph(n: int) -> Graph:
    """The cycle C_n: vertex v adjacent to v - 1 and v + 1 (mod n)."""
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian matrix ``L = D - A`` as float64. Row sums are exactly zero."""
    lap = -g.adjacency.astype(np.float64)
    np.fill_diagonal(lap, g.degrees.astype(np.float64))
    return lap


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``.

    Requires every degree >= 1; eigenvalues of the result lie in [0, 2].
    """
    if np.any(g.degrees < 1):
        isolated = int(np.argmin(g.degrees))
        raise ValueError(f"vertex {isolated} is isolated; normalized Laplacian undefined")
    return normalized_laplacian_of(g.adjacency.astype(np.float64))


def normalized_laplacian_of(matrix: np.ndarray) -> np.ndarray:
    """Normalized Laplacian of a symmetric nonnegative matrix.

    Degrees are row sums. Used for weighted matrices such as expected
    adjacency matrices, where entries are probabilities rather than 0/1.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    deg = matrix.sum(axis=1)
    if np.any(deg <= 0):
        raise ValueError("zero row sum; normalized Laplacian undefined")
    inv_sqrt = 1.0 / np.sqrt(deg)
    # outer() makes the scaling factor exactly symmetric in floating point
    lap = -np.outer(inv_sqrt, inv_sqrt) * matrix
    np.fill_diagonal(lap, lap.diagonal() + 1.0)
    return lap


def kronecker_graph(g: Graph, h: Graph) -> Graph:
    """Kronecker (direct) product of two graphs.

    Vertex (i, k) maps to row-major index ``i * |h| + k``, so the adjacency
    matrix of the product is exactly ``np.kron`` of the factor adjacencies,
    and the degree of (i, k) is ``deg_g(i) * deg_h(k)``.
    """
    adjacency = np.kron(g.adjacency, h.adjacency)
    degrees = np.kron(g.degrees, h.degrees)
    return Graph(n=g.n * h.n, adjacency=_frozen(adjacency), degrees=_frozen(degrees))


@dataclass(frozen=True)
class KroneckerLaplacian:
    """Laplacian ``L = D1 (x) D2 - A1 (x) A2`` of a Kronecker product, kept in factor form.

    Holds the factor degrees and float64 adjacencies only; the product
    vertex (i, k) has row-major index ``i * n2 + k`` as in
    :func:`kronecker_graph`. A vector x of length n1*n2 reshaped to an
    (n1, n2) matrix X maps to ``d1 d2' .* X - A1 X A2`` (Van Loan, "The
    ubiquitous Kronecker product", JCAM 2000), so :meth:`matvec` costs
    O(n1 n2 (n1 + n2)) per vector instead of O((n1 n2)^2).
    """

    degrees1: np.ndarray    # (n1,) float64
    degrees2: np.ndarray    # (n2,) float64
    adjacency1: np.ndarray  # (n1, n1) float64
    adjacency2: np.ndarray  # (n2, n2) float64

    @classmethod
    def of(cls, g: Graph, h: Graph) -> "KroneckerLaplacian":
        return cls(
            degrees1=_frozen(g.degrees.astype(np.float64)),
            degrees2=_frozen(h.degrees.astype(np.float64)),
            adjacency1=_frozen(g.adjacency.astype(np.float64)),
            adjacency2=_frozen(h.adjacency.astype(np.float64)),
        )

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``L @ x`` for a vector (N,) or a stack of column vectors (N, k)."""
        x = np.asarray(x, dtype=np.float64)
        n1, n2 = len(self.degrees1), len(self.degrees2)
        if x.shape[0] != n1 * n2 or x.ndim > 2:
            raise ValueError(f"expected shape ({n1 * n2},) or ({n1 * n2}, k), got {x.shape}")
        cube = x.reshape(n1, n2, -1)
        # A2 acts on the second index, then A1 on the first
        mixed = (self.adjacency1 @ (self.adjacency2 @ cube).reshape(n1, -1)).reshape(cube.shape)
        scaled = np.multiply.outer(self.degrees1, self.degrees2)[:, :, None] * cube
        return (scaled - mixed).reshape(x.shape)

    def dense(self) -> np.ndarray:
        """The N x N matrix ``diag(kron(d1, d2)) - kron(A1, A2)`` as float64.

        Built straight from the factors, never through the int8 product
        :class:`Graph`; entry for entry (signed zeros included) it equals
        ``laplacian(kronecker_graph(g, h))``.
        """
        lap = np.kron(-self.adjacency1, self.adjacency2)
        np.fill_diagonal(lap, np.kron(self.degrees1, self.degrees2))
        return lap


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches every vertex."""
    reached = np.zeros(g.n, dtype=bool)
    reached[0] = True
    frontier = np.zeros(g.n, dtype=bool)
    frontier[0] = True
    adj = g.adjacency != 0
    while frontier.any():
        neighbors = adj[frontier].any(axis=0)
        frontier = neighbors & ~reached
        reached |= frontier
    return bool(reached.all())


def is_bipartite(g: Graph) -> bool:
    """Standard BFS 2-coloring test, per connected component."""
    color = np.full(g.n, -1, dtype=np.int8)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in np.nonzero(g.adjacency[u])[0]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(int(v))
                elif color[v] == color[u]:
                    return False
    return True


def edge_density(g: Graph) -> float:
    """Fraction of vertex pairs that are edges: 2|E| / (n(n-1))."""
    if g.n < 2:
        return 0.0
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def write_edge_list(g: Graph, dest: str | IO[str]) -> None:
    """Write the plain-text edge-list format: "n m" then one "u v" per edge.

    Edges come out sorted (u < v, lexicographic) so the output is a
    deterministic function of the graph.
    """
    lines = [f"{g.n} {g.edge_count}\n"]
    lines.extend(f"{u} {v}\n" for u, v in g.edges())
    if hasattr(dest, "write"):
        dest.writelines(lines)
    else:
        with open(dest, "w") as fh:
            fh.writelines(lines)


def read_edge_list(src: str | IO[str]) -> Graph:
    """Read the edge-list format written by :func:`write_edge_list`."""
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(src) as fh:
            text = fh.read()
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge-list header 'n m' missing")
    n, m = int(tokens[0]), int(tokens[1])
    if len(tokens) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges, found {(len(tokens) - 2) // 2}")
    pairs = np.array(tokens[2:], dtype=np.int64).reshape(m, 2)
    return build_graph(n, [(int(u), int(v)) for u, v in pairs])
