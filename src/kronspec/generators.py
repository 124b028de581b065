"""Random graph generators with density targeting and connectivity retries.

Three models: Erdos-Renyi G(n, p), Watts-Strogatz ring rewiring, and
Barabasi-Albert preferential attachment seeded from a clique core. Every
generator is a pure function of its seed, so identical specs give identical
graphs byte-for-byte.

Density targeting maps a requested edge density onto each model's natural
knob: p for ER, the (even) ring degree k for WS, and the attachment count
for BA. WS and BA can only approximate a density target, so callers should
report the achieved density alongside the requested one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph, _as_int, cycle_graph, is_bipartite, is_connected

MODELS = ("ER", "WS", "BA", "CYCLE")

DEFAULT_WS_BETA = 0.25

# draws per connected factor, and draws of a factor redrawn for a connected product
MAX_ATTEMPTS = 50


class GenerationError(RuntimeError):
    """Raised when connectivity retries are exhausted."""


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labeled parts (SHA-256 based)."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything needed to reproduce one random graph draw.

    ``n`` (at least 2) and ``seed`` (at least 0) are ints by ``graphs._as_int``.
    """

    model: str
    n: int
    target_density: float
    seed: int
    ws_beta: float = DEFAULT_WS_BETA

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        object.__setattr__(self, "n", _as_int("order", self.n, 2))
        object.__setattr__(self, "seed", _as_int("seed", self.seed, 0))
        if self.model != "CYCLE" and not 0.0 < self.target_density < 1.0:
            raise ValueError(f"target density must be in (0, 1), got {self.target_density}")
        if not 0.0 <= self.ws_beta <= 1.0:
            raise ValueError(f"ws_beta must be in [0, 1], got {self.ws_beta}")


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each unordered pair is an edge independently with probability p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"edge probability must be in (0, 1), got {p}")
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, k=1)
    mask = rng.random(len(rows)) < p
    adjacency = np.zeros((n, n), dtype=np.int8)
    adjacency[rows[mask], cols[mask]] = 1
    adjacency |= adjacency.T
    return Graph(adjacency)


def watts_strogatz(n: int, k: int, beta: float, seed: int) -> Graph:
    """Ring lattice with k nearest neighbors, each edge rewired with probability beta.

    Rewiring keeps the near endpoint and moves the far one to a uniform
    target, skipping self-loops and duplicates, so the edge count is always
    exactly n*k/2.
    """
    if k % 2 != 0 or not 2 <= k < n:
        raise ValueError(f"ring degree must be even with 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {beta}")
    rng = np.random.default_rng(seed)
    adjacency = np.zeros((n, n), dtype=np.int8)
    for offset in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + offset) % n
            adjacency[u, v] = 1
            adjacency[v, u] = 1
    for offset in range(1, k // 2 + 1):
        for u in range(n):
            if rng.random() >= beta:
                continue
            v = (u + offset) % n
            # candidate targets: not u, not already adjacent to u
            candidates = np.nonzero(adjacency[u] == 0)[0]
            candidates = candidates[candidates != u]
            if len(candidates) == 0:
                continue
            w = int(rng.choice(candidates))
            adjacency[u, v] = 0
            adjacency[v, u] = 0
            adjacency[u, w] = 1
            adjacency[w, u] = 1
    return Graph(adjacency)


def barabasi_albert(n: int, m_attach: int, seed: int) -> Graph:
    """Preferential attachment from a clique core of m_attach + 1 vertices.

    Each new vertex attaches to m_attach distinct existing vertices chosen
    with probability proportional to current degree. Always connected;
    edge count is C(m+1, 2) + (n - m - 1) * m.
    """
    if not 1 <= m_attach < n:
        raise ValueError(f"attachment count must satisfy 1 <= m < n, got m={m_attach}, n={n}")
    rng = np.random.default_rng(seed)
    core = m_attach + 1
    adjacency = np.zeros((n, n), dtype=np.int8)
    adjacency[:core, :core] = 1
    np.fill_diagonal(adjacency, 0)
    degrees = adjacency.sum(axis=1, dtype=np.float64)
    for v in range(core, n):
        available = np.arange(v)
        weights = degrees[:v].copy()
        targets = []
        for _ in range(m_attach):
            probs = weights / weights.sum()
            t = int(rng.choice(available, p=probs))
            targets.append(t)
            weights[t] = 0.0
        for t in targets:
            adjacency[v, t] = 1
            adjacency[t, v] = 1
            degrees[t] += 1
        degrees[v] = m_attach
    return Graph(adjacency)


def _ba_edge_count(n: int, m: int) -> int:
    return m * (m + 1) // 2 + (n - m - 1) * m


def density_to_params(spec: GeneratorSpec) -> dict:
    """Translate a density target into the model generator's keyword arguments.

    ER: p = target. WS: k = nearest even integer to target*(n-1). BA: the
    attachment count whose construction edge count lands closest to the
    target density. The keys are the generator's own keyword names.
    """
    n, target = spec.n, spec.target_density
    if spec.model == "ER":
        return {"p": target}
    if spec.model == "WS":
        k = 2 * int(np.floor(target * (n - 1) / 2.0 + 0.5))
        if k < 2 or k >= n:
            raise ValueError(
                f"density {target} infeasible for WS at order {n} (ring degree {k})"
            )
        return {"k": k, "beta": spec.ws_beta}
    if spec.model == "BA":
        pairs = n * (n - 1) / 2.0
        # min keeps the first of equally close counts
        best = min(range(1, n), key=lambda m: abs(_ba_edge_count(n, m) / pairs - target))
        return {"m_attach": best}
    return {}  # CYCLE has no density knob


def bipartite_for_every_seed(spec: GeneratorSpec) -> bool:
    """True when every connected graph ``spec`` can draw is bipartite, whatever its seed.

    That is K2 (order 2), an even cycle (CYCLE, or WS with ring degree 2 and
    no rewiring) and a tree (BA attaching one edge per new vertex).
    """
    params = density_to_params(spec)
    if spec.model == "BA":
        return params["m_attach"] == 1
    ring = spec.model == "CYCLE" or (spec.model == "WS" and params["k"] == 2 and spec.ws_beta == 0)
    return spec.n == 2 or (ring and spec.n % 2 == 0)


def _draw(spec: GeneratorSpec, seed: int) -> Graph:
    if spec.model == "CYCLE":
        return cycle_graph(spec.n)
    generator = {"ER": erdos_renyi, "WS": watts_strogatz, "BA": barabasi_albert}[spec.model]
    return generator(spec.n, seed=seed, **density_to_params(spec))


def generate_connected(spec: GeneratorSpec) -> Graph:
    """Draw until connected, re-seeding deterministically per attempt.

    Attempt 0 uses the spec seed itself; attempt t uses a sub-seed derived
    from (seed, t). Raises GenerationError once MAX_ATTEMPTS attempts fail.
    """
    for attempt in range(MAX_ATTEMPTS):
        seed = spec.seed if attempt == 0 else derive_seed(spec.seed, "retry", attempt)
        g = _draw(spec, seed)
        if is_connected(g):
            return g
    raise GenerationError(f"no connected graph after {MAX_ATTEMPTS} attempts for {spec}")


def generate_connected_pair(spec1: GeneratorSpec, spec2: GeneratorSpec) -> tuple[Graph, Graph]:
    """Connected factor pair whose Kronecker product is itself connected.

    The product of two connected graphs is connected iff at least one factor
    is non-bipartite, so bipartiteness of the factors is what gets checked;
    the product is never built here. When both draws are bipartite, the
    second factor is redrawn (with derived sub-seeds) until it is not, or the
    first when no seed can make the second non-bipartite
    (:func:`bipartite_for_every_seed`). A pair whose specs are both
    bipartite for every seed fails at once.
    """
    g1 = generate_connected(spec1)
    g2 = generate_connected(spec2)
    if not (is_bipartite(g1) and is_bipartite(g2)):
        return g1, g2
    redraw_first = bipartite_for_every_seed(spec2)
    if redraw_first and bipartite_for_every_seed(spec1):
        raise GenerationError(f"both factors are bipartite for every seed: {spec1}, {spec2}")
    spec = spec1 if redraw_first else spec2
    for attempt in range(1, MAX_ATTEMPTS):
        g = generate_connected(replace(spec, seed=derive_seed(spec.seed, "nonbipartite", attempt)))
        if not is_bipartite(g):
            return (g, g2) if redraw_first else (g1, g)
    raise GenerationError(
        f"no non-bipartite factor after {MAX_ATTEMPTS} attempts for pair ({spec1}, {spec2})"
    )
