"""Numerical verification of the closed forms, bounds, and identities.

Each check function is a seeded, deterministic driver that measures the gap
between a predicted quantity and what the estimators, or the product
Laplacian applied to explicitly formed vectors, actually produce on
generated graphs, returning ``{"inputs", "predicted", "observed", "pass"}``.
``full_report`` packages them into the theory report emitted by the CLI;
the acceptance tests call them individually and assert their stated
tolerances.
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
from .spectral import cosine, sym_eig, sym_eigenvalues
from .theory import (
    asymptotic_inequality_holds,
    expected_kron_normalized_spectrum,
    expected_r1j,
    mean_rms_ratio,
    rprime_lower_bound,
    sayama_bound_holds,
)


def _er_pair(seed, tag: str, t: int, n_lo=8, n_hi=20, p_lo=0.25, p_hi=0.7):
    """One connected ER factor pair with sizes and density drawn from the seed."""
    rng = np.random.default_rng(derive_seed(seed, tag, t))
    n1 = int(rng.integers(n_lo, n_hi + 1))
    n2 = int(rng.integers(n_lo, n_hi + 1))
    p = float(rng.uniform(p_lo, p_hi))
    g1 = generate_connected(GeneratorSpec("ER", n1, p, derive_seed(seed, tag, t, "a")))
    g2 = generate_connected(GeneratorSpec("ER", n2, p, derive_seed(seed, tag, t, "b")))
    return g1, g2


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


def staircase_limit(k: int = 500) -> dict:
    """Monotone-staircase degree sequence: ratio tends to sqrt(3)/2."""
    observed = mean_rms_ratio(staircase_degrees(k))
    limit = math.sqrt(3) / 2
    return {
        "inputs": {"k": k, "tolerance": 1e-3},
        "predicted": limit,
        "observed": observed,
        "pass": abs(observed - limit) <= 1e-3,
    }


def asymptotic_inequality_grid(n_max: int = 500, p_step: float = 0.01) -> dict:
    """The reduced cubic stays nonnegative over the whole (n, p) grid."""
    ps = np.arange(p_step, 1.0, p_step)
    min_value = math.inf
    all_hold = True
    for n in range(1, n_max + 1):
        values = (n - 2) * ps ** 3 - 3 * (n - 2) * ps ** 2 + (2 * n - 5) * ps + 1
        min_value = min(min_value, float(values.min()))
        all_hold = all_hold and all(asymptotic_inequality_holds(n, float(p)) for p in ps)
    return {
        "inputs": {"n_max": n_max, "p_step": p_step, "p_count": len(ps)},
        "predicted": "polynomial >= 0 everywhere",
        "observed": {"all_hold": bool(all_hold), "min_value": min_value},
        "pass": bool(all_hold),
    }


def expected_r1j_grid(orders=(30, 50, 100, 200), densities=(0.10, 0.30, 0.65)) -> dict:
    values = {f"n={n},p={p}": expected_r1j(n, p) for n in orders for p in densities}
    return {
        "inputs": {"orders": list(orders), "densities": list(densities)},
        "predicted": None,
        "observed": values,
        "pass": True,
    }


def expected_spectrum_gap(n1: int, n2: int, probs=(0.3, 1.0)) -> dict:
    """Closed-form four-level spectrum vs a direct eigensolve, per p."""
    levels = expected_kron_normalized_spectrum(n1, n2)
    closed = np.sort(np.concatenate([np.full(mult, value) for value, mult in levels]))
    worst = 0.0
    for p in probs:
        bar1 = p * (np.ones((n1, n1)) - np.eye(n1))
        bar2 = p * (np.ones((n2, n2)) - np.eye(n2))
        numeric = sym_eigenvalues(normalized_laplacian_of(np.kron(bar1, bar2)))
        worst = max(worst, float(np.abs(numeric - closed).max()))
    return {
        "inputs": {"orders": [n1, n2], "probs": list(probs), "tolerance": 1e-8},
        "predicted": [[value, mult] for value, mult in levels],
        "observed": {"max_abs_gap": worst},
        "pass": worst <= 1e-8,
    }


def sayama_nonnegativity_sweep(graph_count: int = 1000, n_max: int = 40, seed: int = 7) -> dict:
    """Random connected ER sweep: mu_i <= 2 d_i and nonnegative estimates.

    Graphs are checked individually for the degree bound, then consecutive
    graphs are paired up and both estimators evaluated under the correlated
    ordering; the smallest estimated value over all pairs is reported.
    """
    rng = np.random.default_rng(seed)
    bound_failures = 0
    spectra = []
    for t in range(graph_count):
        n = int(rng.integers(10, n_max + 1))
        p = float(rng.uniform(0.3, 0.7))
        g = generate_connected(GeneratorSpec("ER", n, p, derive_seed(seed, "sweep", t)))
        mu = sym_eigenvalues(laplacian(g))
        lam = sym_eigenvalues(normalized_laplacian(g))
        d = np.sort(g.degrees)
        if not sayama_bound_holds(mu, d):
            bound_failures += 1
        spectra.append((mu, lam, d))
    min_sayama = math.inf
    min_normalized = math.inf
    for t in range(0, graph_count - 1, 2):
        mu_a, lam_a, d_a = spectra[t]
        mu_b, lam_b, d_b = spectra[t + 1]
        min_sayama = min(min_sayama, float(sayama_spectrum(mu_a, d_a, mu_b, d_b).min()))
        min_normalized = min(
            min_normalized, float(normalized_estimate(lam_a, d_a, lam_b, d_b).min())
        )
    observed = {
        "bound_failures": bound_failures,
        "min_sayama_estimate": min_sayama,
        "min_normalized_estimate": min_normalized,
    }
    return {
        "inputs": {"graph_count": graph_count, "n_range": [10, n_max], "p_range": [0.3, 0.7], "seed": seed},
        "predicted": {"bound_failures": 0, "min_estimate_floor": -1e-12},
        "observed": observed,
        "pass": bound_failures == 0 and min_sayama >= -1e-12 and min_normalized >= -1e-12,
    }


def er_r1j_monte_carlo(draws: int = 100, n: int = 200, p: float = 0.3, seed: int = 11) -> dict:
    """Sample mean of the observed r(1, j) against the ER expectation formula.

    The second factor is a fixed 5-cycle (regular and non-bipartite), which
    leaves r(1, j) a function of the first factor's degrees only.
    """
    h = cycle_graph(5)
    eig_h = sym_eig(laplacian(h))
    means = []
    for t in range(draws):
        g = generate_connected(GeneratorSpec("ER", n, p, derive_seed(seed, "er_mc", t)))
        w1 = sym_eig(laplacian(g)).eigenvectors
        op = KroneckerLaplacian.of(g, h)
        means.append(np.mean(_first_row_cosines(op, w1, eig_h.eigenvectors)))
    observed_mean = float(np.mean(means))
    predicted = expected_r1j(n, p)
    return {
        "inputs": {"draws": draws, "n": n, "p": p, "seed": seed, "tolerance": 0.02},
        "predicted": predicted,
        "observed": {"mean": observed_mean, "abs_gap": abs(observed_mean - predicted)},
        "pass": abs(observed_mean - predicted) <= 0.02,
    }


def r1j_closed_form_gap(pair_count: int = 20, seed: int = 23) -> dict:
    """Observed r(1, j) vs the mean/RMS formula, and its j-independence."""
    max_gap = 0.0
    max_spread = 0.0
    for t in range(pair_count):
        g1, g2 = _er_pair(seed, "r1j", t)
        w1 = sym_eig(laplacian(g1)).eigenvectors
        w2 = sym_eig(laplacian(g2)).eigenvectors
        observed = _first_row_cosines(KroneckerLaplacian.of(g1, g2), w1, w2)
        predicted = mean_rms_ratio(g1.degrees)
        max_gap = max(max_gap, float(np.abs(observed - predicted).max()))
        max_spread = max(max_spread, float(observed.max() - observed.min()))
    return {
        "inputs": {"pairs": pair_count, "seed": seed, "tolerance": 1e-10},
        "predicted": "r(1,j) = mean(d)/rms(d), identical over j",
        "observed": {"max_abs_gap": max_gap, "max_row_spread": max_spread},
        "pass": max_gap <= 1e-10 and max_spread <= 1e-10,
    }


def colinearity_residual(pair_count: int = 20, seed: int = 31) -> dict:
    """Residual of L (1 kron w_j) = mu_j (d kron w_j) over random pairs."""
    worst = 0.0
    for t in range(pair_count):
        g1, g2 = _er_pair(seed, "colin", t)
        eig2 = sym_eig(laplacian(g2))
        op = KroneckerLaplacian.of(g1, g2)
        ones = np.ones((g1.n, 1))
        dvec = g1.degrees.astype(np.float64)[:, None]
        lhs = op.matvec(np.kron(ones, eig2.eigenvectors))
        rhs = np.kron(dvec, eig2.eigenvectors) * eig2.eigenvalues[None, :]
        worst = max(worst, float(np.linalg.norm(lhs - rhs, axis=0).max()))
    return {
        "inputs": {"pairs": pair_count, "seed": seed, "tolerance": 1e-8},
        "predicted": 0.0,
        "observed": {"max_residual": worst},
        "pass": worst <= 1e-8,
    }


def normalized_decomposition_gaps(pair_count: int = 20, seed: int = 37) -> dict:
    """Exact product decomposition: eigenvalues 1 - (1-lam_i)(1-lam_j), vectors v_i kron v_j."""
    max_value_gap = 0.0
    max_vector_residual = 0.0
    for t in range(pair_count):
        g1, g2 = _er_pair(seed, "decomp", t)
        eig1 = sym_eig(normalized_laplacian(g1))
        eig2 = sym_eig(normalized_laplacian(g2))
        norm_product = normalized_laplacian(kronecker_graph(g1, g2))
        formula = (
            1.0
            - (1.0 - eig1.eigenvalues)[:, None] * (1.0 - eig2.eigenvalues)[None, :]
        ).ravel()
        numeric = sym_eigenvalues(norm_product)
        max_value_gap = max(
            max_value_gap, float(np.abs(np.sort(formula) - numeric).max())
        )
        x = np.kron(eig1.eigenvectors, eig2.eigenvectors)
        residual = norm_product @ x - x * formula[None, :]
        max_vector_residual = max(
            max_vector_residual, float(np.linalg.norm(residual, axis=0).max())
        )
    return {
        "inputs": {"pairs": pair_count, "seed": seed, "tolerance": 1e-8},
        "predicted": 0.0,
        "observed": {
            "max_eigenvalue_gap": max_value_gap,
            "max_vector_residual": max_vector_residual,
        },
        "pass": max_value_gap <= 1e-8 and max_vector_residual <= 1e-8,
    }


def rprime_bound_slack(pair_count: int = 50, seed: int = 41) -> dict:
    """Observed r'(1, j) against its degree-index lower bound, two variants.

    The stated bound M1/sqrt(2mF) * cosine(v_j, L2 v_j) fails on a large
    fraction of random pairs: its derivation silently replaces
    ||D2 v|| + ||A2 v|| by the smaller ||L2 v||, flipping an inequality.
    The corrected variant keeps the triangle-inequality denominator
    ||D2 v|| + ||A2 v|| and does hold, so it is what the pass flag tracks;
    the stated variant's minimum slack is reported alongside.
    """
    min_slack_stated = math.inf
    min_slack_corrected = math.inf
    for t in range(pair_count):
        g1, g2 = _er_pair(seed, "rprime", t)
        eig1 = sym_eig(normalized_laplacian(g1))
        eig2 = sym_eig(normalized_laplacian(g2))
        lap2 = laplacian(g2)
        deg2 = np.diag(g2.degrees.astype(np.float64))
        adj2 = g2.adjacency.astype(np.float64)
        row = _first_row_cosines(
            KroneckerLaplacian.of(g1, g2), eig1.eigenvectors, eig2.eigenvectors
        )
        lap2_v = lap2 @ eig2.eigenvectors
        for j in range(1, g2.n):
            v = eig2.eigenvectors[:, j]
            r_j = cosine(v, lap2_v[:, j])
            r_j_corrected = float(
                (v @ lap2_v[:, j])
                / (np.linalg.norm(deg2 @ v) + np.linalg.norm(adj2 @ v))
            )
            observed = float(row[j - 1])
            min_slack_stated = min(
                min_slack_stated, observed - rprime_lower_bound(g1.degrees, r_j)
            )
            min_slack_corrected = min(
                min_slack_corrected, observed - rprime_lower_bound(g1.degrees, r_j_corrected)
            )
    return {
        "inputs": {"pairs": pair_count, "seed": seed, "slack_floor": -1e-9},
        "predicted": "r'(1,j) >= M1/sqrt(2mF) * r_j (corrected r_j denominator)",
        "observed": {
            "min_slack_corrected": float(min_slack_corrected),
            "min_slack_stated": float(min_slack_stated),
            "stated_bound_holds": bool(min_slack_stated >= -1e-9),
        },
        "pass": min_slack_corrected >= -1e-9,
    }


def full_report(
    seed: int = 12345,
    er_draws: int = 100,
    graph_count: int = 1000,
    pair_count: int = 50,
) -> dict:
    """All theory checks, keyed by name, each {inputs, predicted, observed, pass}."""
    report = {
        "mean_rms_closed_forms": closed_form_mean_rms(),
        "staircase_limit": staircase_limit(),
        "asymptotic_inequality_grid": asymptotic_inequality_grid(),
        "expected_r1j_grid": expected_r1j_grid(),
        "expected_spectrum_small": expected_spectrum_gap(5, 7),
        "expected_spectrum_desk": expected_spectrum_gap(30, 50),
        "sayama_nonnegativity": sayama_nonnegativity_sweep(graph_count=graph_count, seed=seed),
        "er_r1j_monte_carlo": er_r1j_monte_carlo(draws=er_draws, seed=seed),
        "r1j_closed_form": r1j_closed_form_gap(seed=seed),
        "colinearity": colinearity_residual(seed=seed),
        "normalized_decomposition": normalized_decomposition_gaps(seed=seed),
        "rprime_lower_bound": rprime_bound_slack(pair_count=pair_count, seed=seed),
    }
    report["all_pass"] = all(
        entry.get("pass", True) for entry in report.values() if isinstance(entry, dict)
    )
    return report
