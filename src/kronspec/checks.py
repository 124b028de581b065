"""Numerical verification of the closed forms, bounds, and identities.

Each check function is a seeded, deterministic driver that measures the gap
between a predicted quantity and what the estimators, or the product
Laplacian applied to explicitly formed vectors, actually produce on
generated graphs, returning ``{"inputs", "predicted", "observed", "pass"}``.
``experiments.theory_suite`` packages them into the theory report emitted
by the CLI; the acceptance tests call them individually and assert their
stated tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import normalized_estimate, sayama_spectrum
from .generators import GeneratorSpec, derive_seed, generate_connected
from .graphs import (
    KroneckerLaplacian,
    build_graph,
    cycle_graph,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
    normalized_laplacian_of,
)
from .theory import (
    asymptotic_cubic,
    expected_kron_normalized_spectrum,
    expected_r1j,
    mean_rms_ratio,
    rprime_lower_bound,
    sayama_bound_holds,
)


def _er_pairs(seed, tag: str, count: int):
    """Connected ER factor pairs: orders in [8, 20], density in [0.25, 0.7], from the seed."""
    for t in range(count):
        rng = np.random.default_rng(derive_seed(seed, tag, t))
        n1, n2 = int(rng.integers(8, 21)), int(rng.integers(8, 21))
        p = float(rng.uniform(0.25, 0.7))
        g1 = generate_connected(GeneratorSpec("ER", n1, p, derive_seed(seed, tag, t, "a")))
        g2 = generate_connected(GeneratorSpec("ER", n2, p, derive_seed(seed, tag, t, "b")))
        yield g1, g2


def _first_row_cosines(op: KroneckerLaplacian, basis1, basis2) -> np.ndarray:
    """cos(x, L x) for x = u_0 kron v_j, j = 1..n2-1, each x formed explicitly.

    Goes through the matvec, not through metrics.correlation_profile: the
    checks below verify the closed forms that profile is built on.
    """
    x = np.kron(basis1[:, :1], basis2[:, 1:])
    lx = op.matvec(x)
    norms = np.linalg.norm(x, axis=0) * np.linalg.norm(lx, axis=0)
    return np.einsum("dc,dc->c", x, lx) / norms


def star_graph(n: int):
    return build_graph(n, [(0, v) for v in range(1, n)])


def complete_graph(n: int):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite_graph(a: int, b: int):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def staircase_degrees(k: int) -> list[int]:
    """Degree sequence 1,...,k, k+1, k+1, k+2,...,2k+1 of order 2k+2."""
    return list(range(1, k + 1)) + [k + 1, k + 1] + list(range(k + 2, 2 * k + 2))


def closed_form_mean_rms() -> dict:
    """Star, complete-bipartite, and regular mean/RMS ratios vs closed forms."""
    cases = {
        "star_n5": (star_graph(5).degrees, 2 * math.sqrt(4) / 5),
        "complete_bipartite_2_4": (
            complete_bipartite_graph(2, 4).degrees,
            2 * math.sqrt(2 * 6 - 4) / 6,
        ),
        "triangle_regular": (complete_graph(3).degrees, 1.0),
    }
    predicted = {name: p for name, (_, p) in cases.items()}
    observed = {name: mean_rms_ratio(degrees) for name, (degrees, _) in cases.items()}
    worst = max(abs(observed[name] - predicted[name]) for name in cases)
    return {
        "inputs": {"cases": sorted(cases)},
        "predicted": predicted,
        "observed": {**observed, "max_abs_gap": worst},
        "pass": worst <= 1e-12,
    }


def staircase_limit() -> dict:
    """Monotone-staircase degree sequence: ratio tends to sqrt(3)/2."""
    k, tolerance = 500, 1e-3
    observed = mean_rms_ratio(staircase_degrees(k))
    limit = math.sqrt(3) / 2
    return {
        "inputs": {"k": k, "tolerance": tolerance},
        "predicted": limit,
        "observed": observed,
        "pass": abs(observed - limit) <= tolerance,
    }


def asymptotic_inequality_grid() -> dict:
    """The reduced cubic stays nonnegative over the whole (n, p) grid."""
    n_max, p_step = 500, 0.01
    ps = np.arange(p_step, 1.0, p_step)
    values = asymptotic_cubic(np.arange(1, n_max + 1)[:, None], ps)
    all_hold = bool((values >= -1e-12).all())
    return {
        "inputs": {"n_max": n_max, "p_step": p_step, "p_count": len(ps)},
        "predicted": "polynomial >= 0 everywhere",
        "observed": {"all_hold": all_hold, "min_value": float(values.min())},
        "pass": all_hold,
    }


def expected_r1j_grid() -> dict:
    orders, densities = (30, 50, 100, 200), (0.10, 0.30, 0.65)
    values = {f"n={n},p={p}": expected_r1j(n, p) for n in orders for p in densities}
    return {
        "inputs": {"orders": list(orders), "densities": list(densities)},
        "predicted": None,
        "observed": values,
        "pass": True,
    }


def expected_spectrum_gap(n1: int, n2: int) -> dict:
    """Closed-form four-level spectrum vs a direct eigensolve, per p."""
    probs, tolerance = (0.3, 1.0), 1e-8
    levels = expected_kron_normalized_spectrum(n1, n2)
    closed = np.sort(np.concatenate([np.full(mult, value) for value, mult in levels]))
    worst = 0.0
    for p in probs:
        bar1, bar2 = (p * (np.ones((n, n)) - np.eye(n)) for n in (n1, n2))
        numeric = np.linalg.eigvalsh(normalized_laplacian_of(np.kron(bar1, bar2)))
        worst = max(worst, float(np.abs(numeric - closed).max()))
    return {
        "inputs": {"orders": [n1, n2], "probs": list(probs), "tolerance": tolerance},
        "predicted": [[value, mult] for value, mult in levels],
        "observed": {"max_abs_gap": worst},
        "pass": worst <= tolerance,
    }


def sayama_nonnegativity_sweep(graph_count: int, seed: int) -> dict:
    """Random connected ER sweep: mu_i <= 2 d_i and nonnegative estimates.

    Graphs are checked individually for the degree bound, then consecutive
    graphs are paired up and both estimators evaluated under the correlated
    ordering; the smallest estimated value over all pairs is reported.
    """
    if graph_count < 2:
        raise ValueError(f"graph_count must be at least 2 to form a pair, got {graph_count}")
    n_range, p_range, floor = [10, 40], [0.3, 0.7], -1e-12
    rng = np.random.default_rng(seed)
    spectra = []
    for t in range(graph_count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*p_range))
        g = generate_connected(GeneratorSpec("ER", n, p, derive_seed(seed, "sweep", t)))
        mu = np.linalg.eigvalsh(laplacian(g))
        spectra.append((mu, np.linalg.eigvalsh(normalized_laplacian(g)), g.degrees))
    bound_failures = sum(not sayama_bound_holds(mu, d) for mu, _, d in spectra)
    min_sayama = min_normalized = math.inf
    for (mu1, lam1, d1), (mu2, lam2, d2) in zip(spectra[0::2], spectra[1::2]):
        min_sayama = min(min_sayama, float(sayama_spectrum(mu1, d1, mu2, d2).min()))
        min_normalized = min(min_normalized, float(normalized_estimate(lam1, d1, lam2, d2).min()))
    return {
        "inputs": {
            "graph_count": graph_count, "n_range": n_range, "p_range": p_range, "seed": seed
        },
        "predicted": {"bound_failures": 0, "min_estimate_floor": floor},
        "observed": {
            "bound_failures": bound_failures,
            "min_sayama_estimate": min_sayama,
            "min_normalized_estimate": min_normalized,
        },
        "pass": bound_failures == 0 and min_sayama >= floor and min_normalized >= floor,
    }


def er_r1j_monte_carlo(draws: int, seed: int) -> dict:
    """Sample mean of the observed r(1, j) against the ER expectation formula.

    The second factor is a fixed 5-cycle (regular and non-bipartite), which
    leaves r(1, j) a function of the first factor's degrees only. The first
    Laplacian eigenvector of a connected graph is the constant vector, and
    the cosine is scale-free, so u_1 is passed as all ones, not solved for.
    """
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    n, p, tolerance = 200, 0.3, 0.02
    h = cycle_graph(5)
    eig_h = np.linalg.eigh(laplacian(h))
    means = []
    for t in range(draws):
        g = generate_connected(GeneratorSpec("ER", n, p, derive_seed(seed, "er_mc", t)))
        op = KroneckerLaplacian(g, h)
        means.append(np.mean(_first_row_cosines(op, np.ones((n, 1)), eig_h.eigenvectors)))
    observed_mean = float(np.mean(means))
    predicted = expected_r1j(n, p)
    return {
        "inputs": {"draws": draws, "n": n, "p": p, "seed": seed, "tolerance": tolerance},
        "predicted": predicted,
        "observed": {"mean": observed_mean, "abs_gap": abs(observed_mean - predicted)},
        "pass": abs(observed_mean - predicted) <= tolerance,
    }


def r1j_closed_form_gap(seed: int) -> dict:
    """Observed r(1, j) vs the mean/RMS formula, and its j-independence."""
    pairs, tolerance = 20, 1e-10
    max_gap = max_spread = 0.0
    for g1, g2 in _er_pairs(seed, "r1j", pairs):
        w1 = np.linalg.eigh(laplacian(g1)).eigenvectors
        w2 = np.linalg.eigh(laplacian(g2)).eigenvectors
        observed = _first_row_cosines(KroneckerLaplacian(g1, g2), w1, w2)
        max_gap = max(max_gap, float(np.abs(observed - mean_rms_ratio(g1.degrees)).max()))
        max_spread = max(max_spread, float(observed.max() - observed.min()))
    return {
        "inputs": {"pairs": pairs, "seed": seed, "tolerance": tolerance},
        "predicted": "r(1,j) = mean(d)/rms(d), identical over j",
        "observed": {"max_abs_gap": max_gap, "max_row_spread": max_spread},
        "pass": max_gap <= tolerance and max_spread <= tolerance,
    }


def colinearity_residual(seed: int) -> dict:
    """Residual of L (1 kron w_j) = mu_j (d kron w_j) over random pairs."""
    pairs, tolerance = 20, 1e-8
    worst = 0.0
    for g1, g2 in _er_pairs(seed, "colin", pairs):
        eig2 = np.linalg.eigh(laplacian(g2))
        op = KroneckerLaplacian(g1, g2)
        lhs = op.matvec(np.kron(np.ones((g1.n, 1)), eig2.eigenvectors))
        rhs = np.kron(g1.degrees[:, None], eig2.eigenvectors) * eig2.eigenvalues
        worst = max(worst, float(np.linalg.norm(lhs - rhs, axis=0).max()))
    return {
        "inputs": {"pairs": pairs, "seed": seed, "tolerance": tolerance},
        "predicted": 0.0,
        "observed": {"max_residual": worst},
        "pass": worst <= tolerance,
    }


def normalized_decomposition_gaps(seed: int) -> dict:
    """Exact product decomposition: eigenvalues 1 - (1-lam_i)(1-lam_j), vectors v_i kron v_j."""
    pairs, tolerance = 20, 1e-8
    max_value_gap = max_vector_residual = 0.0
    for g1, g2 in _er_pairs(seed, "decomp", pairs):
        eig1 = np.linalg.eigh(normalized_laplacian(g1))
        eig2 = np.linalg.eigh(normalized_laplacian(g2))
        norm_product = normalized_laplacian(kronecker_graph(g1, g2))
        formula = (1.0 - np.outer(1.0 - eig1.eigenvalues, 1.0 - eig2.eigenvalues)).ravel()
        numeric = np.linalg.eigvalsh(norm_product)
        max_value_gap = max(max_value_gap, float(np.abs(np.sort(formula) - numeric).max()))
        x = np.kron(eig1.eigenvectors, eig2.eigenvectors)
        residual = norm_product @ x - x * formula
        max_vector_residual = max(
            max_vector_residual, float(np.linalg.norm(residual, axis=0).max())
        )
    return {
        "inputs": {"pairs": pairs, "seed": seed, "tolerance": tolerance},
        "predicted": 0.0,
        "observed": {
            "max_eigenvalue_gap": max_value_gap,
            "max_vector_residual": max_vector_residual,
        },
        "pass": max_value_gap <= tolerance and max_vector_residual <= tolerance,
    }


def rprime_bound_slack(seed: int) -> dict:
    """Observed r'(1, j) against its degree-index lower bound, two variants.

    The stated bound M1/sqrt(2mF) * cosine(v_j, L2 v_j) fails on a large
    fraction of random pairs: its derivation silently replaces
    ||D2 v|| + ||A2 v|| by the smaller ||L2 v||, flipping an inequality.
    The corrected variant keeps the triangle-inequality denominator
    ||D2 v|| + ||A2 v|| and does hold, so it is what the pass flag tracks;
    the stated variant's minimum slack is reported alongside.
    """
    pairs, slack_floor = 50, -1e-9
    stated, corrected = [], []
    for g1, g2 in _er_pairs(seed, "rprime", pairs):
        v1 = np.linalg.eigh(normalized_laplacian(g1)).eigenvectors
        v2 = np.linalg.eigh(normalized_laplacian(g2)).eigenvectors
        row = _first_row_cosines(KroneckerLaplacian(g1, g2), v1, v2)
        v = v2[:, 1:]
        lap2_v = laplacian(g2) @ v
        dots = np.einsum("dc,dc->c", v, lap2_v)
        r_j = dots / (np.linalg.norm(v, axis=0) * np.linalg.norm(lap2_v, axis=0))
        deg2_v, adj2_v = g2.degrees[:, None] * v, g2.adjacency @ v
        r_j_corrected = dots / (np.linalg.norm(deg2_v, axis=0) + np.linalg.norm(adj2_v, axis=0))
        for observed, r, r_corrected in zip(row, r_j, r_j_corrected):
            stated.append(observed - rprime_lower_bound(g1.degrees, float(r)))
            corrected.append(observed - rprime_lower_bound(g1.degrees, float(r_corrected)))
    min_slack_stated, min_slack_corrected = float(min(stated)), float(min(corrected))
    return {
        "inputs": {"pairs": pairs, "seed": seed, "slack_floor": slack_floor},
        "predicted": "r'(1,j) >= M1/sqrt(2mF) * r_j (corrected r_j denominator)",
        "observed": {
            "min_slack_corrected": min_slack_corrected,
            "min_slack_stated": min_slack_stated,
            "stated_bound_holds": bool(min_slack_stated >= slack_floor),
        },
        "pass": min_slack_corrected >= slack_floor,
    }

