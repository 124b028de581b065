"""What the test modules share: factor strategies, dense references, fresh processes.

Each helper is written here once. pytest puts this directory on ``sys.path``,
so test modules import it as ``toolkit``; :func:`run_fresh` puts it on a
child's ``PYTHONPATH`` as well, so code run there can import it too.
"""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
from hypothesis import assume, reject, settings
from hypothesis import strategies as st

from kronspec.estimators import Ordering, OrderingKind, normalized_estimate, sayama_spectrum
from kronspec.experiments import ExperimentConfig
from kronspec.generators import GeneratorSpec, generate_connected, watts_strogatz
from kronspec.graphs import (
    build_graph,
    cycle_graph,
    is_bipartite,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
)

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

BASES = {"laplacian": laplacian, "normalized": normalized_laplacian}
SEEDS = st.integers(0, 2**32 - 1)
ORDERINGS = st.builds(Ordering, kind=st.sampled_from(OrderingKind), randomization_seed=SEEDS)
RANDOM_MODELS = ("ER", "WS", "BA")
DENSITIES = (0.3, 0.5, 0.7)  # feasible for every random model at order 5 and above


# ---------------------------------------------------------------------------
# inputs: hypothesis strategies and fixed factor pairs
# ---------------------------------------------------------------------------


def property_settings(max_examples: int) -> settings:
    """The settings of every property test: the same examples on every run, no deadline."""
    return settings(max_examples=max_examples, deadline=None, derandomize=True, database=None)


@st.composite
def factor_graphs(draw, models=RANDOM_MODELS, orders=(5, 11), ring_degrees=(4, 6)):
    """A connected factor from one of ``models``, its order in the inclusive range ``orders``.

    ER, WS (rewired, at its default beta) and BA draw at a density in
    ``DENSITIES`` from a drawn seed. CYCLE is the odd cycle on ``n | 1``
    vertices. RING is the unrewired ring lattice of a degree in
    ``ring_degrees`` below n: regular, and non-bipartite from degree 4.
    NEARLY_REGULAR is the n-cycle with one chord, where cosines crowd
    against 1.
    """
    model = draw(st.sampled_from(models))
    n = draw(st.integers(*orders))
    if model == "CYCLE":
        return cycle_graph(n | 1)
    if model == "RING":
        k = draw(st.sampled_from(ring_degrees))
        assume(k < n)
        return watts_strogatz(n, k, 0.0, seed=0)
    if model == "NEARLY_REGULAR":
        chord = draw(st.integers(2, n - 2))
        return build_graph(n, [(v, (v + 1) % n) for v in range(n)] + [(0, chord)])
    density = draw(st.sampled_from(DENSITIES))
    return generate_connected(GeneratorSpec(model, n, density, draw(SEEDS)))


@st.composite
def factor_pairs(draw, first=factor_graphs(), second=None):
    """A factor from ``first`` and one from ``second`` (default ``first``), product connected."""
    g, h = draw(first), draw(first if second is None else second)
    # Weichsel: connected factors give a connected product unless both are bipartite
    assume(not (is_bipartite(g) and is_bipartite(h)))
    return g, h


# per model, densities at which a connected draw, and a non-bipartite one where a
# factor can be, come within generate_connected_pair's redraws at every order from 2
PAIR_DENSITIES = {"ER": (0.5, 0.7), "WS": (0.3, 0.5, 0.7), "BA": (0.1, 0.3, 0.5), "CYCLE": (0.5,)}


@st.composite
def config_spec_pairs(draw):
    """The factor specs of one run of an ``ExperimentConfig`` that accepts them, orders 2-12.

    The domain holds order 2 (K2), BA trees (``m_attach == 1``), even cycles
    and unrewired even WS rings on either side; configs whose two factors
    are bipartite for every seed, or whose WS density is infeasible, are
    rejected as the config rejects them.
    """
    model = draw(st.sampled_from(sorted(PAIR_DENSITIES)))
    try:
        config = ExperimentConfig(
            model=model,
            orders=(draw(st.integers(2, 12)), draw(st.integers(2, 12))),
            density=draw(st.sampled_from(PAIR_DENSITIES[model])),
            master_seed=draw(SEEDS),
            ws_beta=draw(st.sampled_from((0.0, 0.25))),
        )
    except ValueError:
        reject()
    return config.run_specs(0)


def star_graph(n: int):
    """The star on n vertices, centre 0."""
    return build_graph(n, [(0, v) for v in range(1, n)])


def complete_graph(n: int):
    """K_n."""
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(a: int, b: int):
    """K_{a,b}: vertices 0..a-1 on one side, a..a+b-1 on the other."""
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def er_pair(n1, n2, seed1, seed2, density=0.4):
    """Connected ER factors of orders n1 and n2 at one density, from two seeds."""
    return (
        generate_connected(GeneratorSpec("ER", n1, density, seed=seed1)),
        generate_connected(GeneratorSpec("ER", n2, density, seed=seed2)),
    )


# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------


def dense_laplacian(g, h) -> np.ndarray:
    """The product graph's Laplacian: ``-kron(A1, A2)``, degree products on the diagonal.

    Every zero off the diagonal is -0.0, as in the matrix kronspec solves.
    """
    return laplacian(kronecker_graph(g, h))


def dense_normalized(m: np.ndarray) -> np.ndarray:
    """The normalized Laplacian of a symmetric weighted matrix, degrees its row sums.

    Entry (i, j) is ``(a_i * -a_j) m_ij`` with ``a = deg**-1/2``, then 1 is
    added on the diagonal: the arithmetic of ``normalized_laplacian``, so a
    0/1 adjacency gives its bits.
    """
    inv_sqrt = 1.0 / np.sqrt(m.sum(axis=1))
    lap = m * np.outer(inv_sqrt, -inv_sqrt)
    np.fill_diagonal(lap, lap.diagonal() + 1.0)
    return lap


def two_coloring(g) -> tuple[bool, bool]:
    """``(connected, bipartite)`` by a plain 2-coloring walk, one component at a time."""
    color = np.full(g.n, -1)
    components, bipartite = 0, True
    for start in range(g.n):
        if color[start] != -1:
            continue
        components += 1
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in np.nonzero(g.adjacency[u])[0]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
    return components == 1, bipartite


def brute_force_product_spectrum(g, h) -> np.ndarray:
    """Eigenvalues of the product Laplacian built by enumerating the definition."""
    n = g.n * h.n
    adjacency = np.zeros((n, n))
    for i in range(g.n):
        for k in range(h.n):
            for j in range(g.n):
                for l in range(h.n):
                    adjacency[i * h.n + k, j * h.n + l] = g.adjacency[i, j] * h.adjacency[k, l]
    return np.linalg.eigvalsh(np.diag(adjacency.sum(axis=1)) - adjacency)


def estimates(g, h, ordering=Ordering(), degrees=None):
    """(Sayama, normalized) estimates for g x h, each factor solved by a dense ``eigvalsh``.

    ``degrees`` replaces the factors' sorted degree sequences; the formulas
    take them in any order.
    """
    d1, d2 = degrees or (np.sort(g.degrees), np.sort(h.degrees))
    mu1, mu2 = (np.linalg.eigvalsh(laplacian(f)) for f in (g, h))
    lam1, lam2 = (np.linalg.eigvalsh(normalized_laplacian(f)) for f in (g, h))
    return (
        sayama_spectrum(mu1, d1, mu2, d2, ordering),
        normalized_estimate(lam1, d1, lam2, d2, ordering),
    )


# ---------------------------------------------------------------------------
# fresh processes
# ---------------------------------------------------------------------------


def run_fresh(code: str, **env: str) -> str:
    """Run ``code`` in a fresh Python process; return its standard output, stripped.

    The child finds ``src/`` as pytest does (``pythonpath`` in pyproject.toml),
    then this directory, then any inherited ``PYTHONPATH``; ``env`` sets
    further variables. A nonzero exit raises ``CalledProcessError``.
    """
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    return out.stdout.strip()


def fresh_peak_bytes(setup: str, measured: str) -> int:
    """How far ``measured`` raises a fresh process's peak RSS over its baseline, in bytes.

    The child runs ``setup`` (imports, inputs), reads its peak RSS (VmHWM)
    as the baseline, runs ``measured`` and reads it again, all by
    :func:`run_fresh`. Not ``ru_maxrss``: a child's starts at the RSS of
    the process that started it (pytest). The child imports nothing to read
    VmHWM, since an import can shift what later allocations cost (importing
    this module, hence hypothesis, has moved an order-1500 solve's measured
    peak by 1.2 MiB).
    """
    code = (
        "def peak_rss_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        f"{setup}\n"
        "before = peak_rss_kib()\n"
        f"{measured}\n"
        "print((peak_rss_kib() - before) * 1024)\n"
    )
    return int(run_fresh(code))
