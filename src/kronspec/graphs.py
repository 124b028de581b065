"""Simple undirected graphs as dense adjacency matrices.

Provides the matrix constructions everything else is built on: adjacency,
degree, Laplacian ``L = D - A`` and normalized Laplacian
``I - D^{-1/2} A D^{-1/2}``, the cycle graph, the Kronecker (direct) product
of graphs, the product Laplacian in factor form (:class:`KroneckerLaplacian`),
and a plain-text edge-list format.

A :class:`Graph` is one float64 adjacency matrix, checked when the graph is
built and read-only after; its order and degrees are derived from it.
"""

from __future__ import annotations

import numbers
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

# The largest graph order accepted: its dense adjacency alone is 800 MB.
MAX_ORDER = 10_000


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class InputError(ValueError):
    """A value rejected where it enters kronspec, by an entry rule that names it."""


def _as_float(key: str, value) -> float:
    """A finite number as a float; an InputError naming ``key`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # numpy's numbers too
        raise InputError(f"{key} must be a number, got {value!r}")
    # a Python number: numpy would cast the float64 max below to a float32's own type
    value = value.item() if isinstance(value, np.generic) else value
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity (json.load reads both), huge ints
        raise InputError(f"{key} must be finite, got {value!r}")
    return float(value)


def _as_int(key: str, value, low: int | None = None, high: int | None = None) -> int:
    """An integer given to kronspec, as an int; an InputError naming ``key`` otherwise.

    Any integer type (numpy's too) or an integral finite float is an
    integer, a bool is not. A value below ``low`` or above ``high``, when
    given, is rejected.
    """
    if isinstance(value, float) and _as_float(key, value).is_integer():
        value = int(value)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"{key} must be an integer, got {value!r}")
    value = operator.index(value)
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise InputError(f"{key} must be {bound}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{key} must be at most {high}, got {value}")
    return value


def _as_member(key: str, value, enum: type[Enum]) -> Enum:
    """A member of ``enum`` or its value, as the member; an InputError naming ``key`` otherwise."""
    try:
        return enum(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum)
        raise InputError(f"{key} must be one of {allowed}, got {value!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: symmetric 0/1 adjacency with zero diagonal.

    Built from the adjacency alone, which is kept as a read-only float64
    copy, the one float copy made, and checked through one n x n boolean
    temporary at a time; ``n`` is its order and ``degrees`` its row sums.
    Graphs with equal adjacencies are equal.
    """

    adjacency: np.ndarray  # (n, n) float64, read-only
    n: int = field(init=False)
    degrees: np.ndarray = field(init=False)  # (n,) float64, read-only

    def __post_init__(self):
        adjacency = np.array(self.adjacency, dtype=np.float64)
        if adjacency.size == 0:
            raise ValueError("adjacency must be nonempty")
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adjacency.shape}")
        if not np.array_equal(adjacency, adjacency.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diagonal(adjacency) != 0):
            raise ValueError("adjacency must have zero diagonal")
        # an entry is 0 or 1 iff it equals its own test for nonzero
        binary = adjacency != 0
        if not np.equal(binary, adjacency, out=binary).all():
            raise ValueError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", _frozen(adjacency))
        object.__setattr__(self, "n", len(adjacency))
        object.__setattr__(self, "degrees", _frozen(adjacency.sum(axis=1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and np.array_equal(self.adjacency, other.adjacency)

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        rows, cols = np.nonzero(np.triu(self.adjacency))
        return list(zip(rows.tolist(), cols.tolist()))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from an edge list.

    ``n`` is an integer by :func:`_as_int`, 1 to ``MAX_ORDER``, checked before
    anything is allocated. Duplicate edges are ignored. Self-loops and
    out-of-range endpoints raise ValueError. The edges are set in a 1-byte
    matrix, so the graph's float64 adjacency is the one float copy.
    """
    n = _as_int("graph order", n, 1, MAX_ORDER)
    adjacency = np.zeros((n, n), dtype=np.int8)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        adjacency[u, v] = 1
        adjacency[v, u] = 1
    return Graph(adjacency)


def cycle_graph(n: int) -> Graph:
    """The cycle C_n: vertex v adjacent to v - 1 and v + 1 (mod n)."""
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian matrix ``L = D - A`` as float64. Row sums are exactly zero."""
    lap = -g.adjacency
    np.fill_diagonal(lap, g.degrees)
    return lap


def require_no_isolated_vertex(g: Graph) -> None:
    """Raise ValueError naming the first isolated vertex of ``g``, if it has one.

    Read from the degrees alone: every degree >= 1 is what
    :func:`normalized_laplacian` needs.
    """
    if not g.degrees.all():
        raise ValueError(f"vertex {np.argmin(g.degrees)} is isolated; no normalized Laplacian")


def normalized_laplacian(g: Graph) -> np.ndarray:
    """Normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``, as a new array.

    Requires every degree >= 1 (:func:`require_no_isolated_vertex`);
    eigenvalues of the result lie in [0, 2]. Entry (i, j) is
    ``(a_i * -a_j) A_ij`` with ``a = deg**-1/2``, exactly symmetric.
    """
    require_no_isolated_vertex(g)
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    lap = g.adjacency * np.outer(inv_sqrt, -inv_sqrt)
    np.fill_diagonal(lap, lap.diagonal() + 1.0)
    return lap


def kronecker_graph(g: Graph, h: Graph) -> Graph:
    """Kronecker (direct) product of two graphs.

    Vertex (i, k) maps to row-major index ``i * |h| + k``, so the adjacency
    matrix of the product is exactly ``np.kron`` of the factor adjacencies,
    and the degree of (i, k) is ``deg_g(i) * deg_h(k)``. The product is formed
    of 1-byte factors, so the graph's float64 adjacency is the one float copy.
    """
    return Graph(np.kron(g.adjacency.astype(np.int8), h.adjacency.astype(np.int8)))


@dataclass(frozen=True)
class KroneckerLaplacian:
    """Laplacian ``L = D1 (x) D2 - A1 (x) A2`` of a Kronecker product, kept in factor form.

    Holds the two factor graphs only; the product vertex (i, k) has
    row-major index ``i * n2 + k`` as in :func:`kronecker_graph`. A vector x
    of length n1*n2 reshaped to an (n1, n2) matrix X maps to
    ``d1 d2' .* X - A1 X A2`` (Van Loan, "The ubiquitous Kronecker product",
    JCAM 2000), so :meth:`matvec` costs O(n1 n2 (n1 + n2)) per vector
    instead of O((n1 n2)^2).
    """

    first: Graph
    second: Graph

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``L @ x`` for a vector (N,) or a stack of column vectors (N, k)."""
        g, h = self.first, self.second
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != g.n * h.n or x.ndim > 2:
            raise ValueError(f"expected shape ({g.n * h.n},) or ({g.n * h.n}, k), got {x.shape}")
        cube = x.reshape(g.n, h.n, -1)
        # A2 acts on the second index, then A1 on the first
        mixed = (g.adjacency @ (h.adjacency @ cube).reshape(g.n, -1)).reshape(cube.shape)
        scaled = np.multiply.outer(g.degrees, h.degrees)[:, :, None] * cube
        return (scaled - mixed).reshape(x.shape)


def _search(g: Graph, every_component: bool) -> np.ndarray:
    """The step at which a breadth-first search from vertex 0 reaches each vertex, -1 if never.

    With ``every_component``, the search goes on from the lowest unreached
    vertex whenever its frontier empties, so in each component the steps are
    the depths from the component's first vertex plus one constant.
    """
    adj = g.adjacency != 0
    step = np.full(g.n, -1)
    frontier, level = np.arange(g.n) == 0, 0
    while frontier.any():
        step[frontier] = level
        frontier = adj[frontier].any(axis=0) & (step < 0)
        if every_component and not frontier.any() and (step < 0).any():
            frontier = np.arange(g.n) == np.argmax(step < 0)
        level += 1
    return step


def is_connected(g: Graph) -> bool:
    """True iff a breadth-first search from vertex 0 reaches every vertex."""
    return bool((_search(g, every_component=False) >= 0).all())


def is_bipartite(g: Graph) -> bool:
    """True iff the parity of the search step 2-colors every component: an odd vertex
    has no odd neighbor and an even vertex only odd ones (else an odd cycle closes)."""
    odd = _search(g, every_component=True) % 2
    return np.array_equal(g.adjacency @ odd, np.where(odd, 0.0, g.degrees))


def edge_density(g: Graph) -> float:
    """Fraction of vertex pairs that are edges: 2|E| / (n(n-1))."""
    if g.n < 2:
        return 0.0
    return 2.0 * g.edge_count / (g.n * (g.n - 1))


def write_edge_list(g: Graph, path: str | Path) -> None:
    """Write the plain-text edge-list format to ``path``: "n m" then one "u v" per edge.

    Edges come out sorted (u < v, lexicographic) so the output is a
    deterministic function of the graph.
    """
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        fh.writelines(f"{u} {v}\n" for u, v in g.edges())


def _number(token: str):
    """``token`` as an int if it reads as one, else as a float, else as itself: the integer
    rule judges a token by its exact value (``3.0`` passes) and names what is no integer."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return token


def read_edge_list(path: str | Path) -> Graph:
    """Read the edge-list format written by :func:`write_edge_list` from ``path``.

    Every token is a nonnegative integer by :func:`_as_int`, and the header's
    ``m`` must count the distinct edges, so the graph writes back unchanged.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("edge-list header 'n m' missing")
    n, m, *ends = (_as_int(f"edge-list token {t!r}", _number(t), 0) for t in tokens)
    if len(ends) != 2 * m:
        raise ValueError(f"expected {m} edges, found {len(ends) // 2}")
    g = build_graph(n, zip(ends[0::2], ends[1::2]))
    if g.edge_count != m:
        raise ValueError(f"edge-list header counts {m} edges, but {g.edge_count} are distinct")
    return g
