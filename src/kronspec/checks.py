"""Numerical verification of the closed forms, bounds, and identities.

Each check function is a seeded, deterministic driver that measures the gap
between a predicted quantity and what the estimators, or the product
Laplacian applied to explicitly formed vectors, actually produce on
generated graphs, returning ``{"inputs", "predicted", "observed", "pass"}``.
:func:`theory_suite` packages them into the theory report emitted by the
CLI; the acceptance tests call them individually and assert their stated
tolerances.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .estimators import normalized_estimate, sayama_spectrum
from .experiments import MAX_RUNS, _write_json, version_string
from .generators import GeneratorSpec, derive_seed, generate_connected
from .graphs import (
    KroneckerLaplacian,
    _as_int,
    build_graph,
    cycle_graph,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
)
from .spectral import factor_spectra, owned_eigenvalues, upper_buffer
from .theory import (
    asymptotic_cubic,
    expected_kron_normalized_spectrum,
    expected_r1j,
    mean_rms_ratio,
    rprime_lower_bound,
    sayama_bound_holds,
)


# the (least, most) value of each integer argument of theory_suite: graphs at least a
# pair, and both sizes at most a config's runs; the sweep checks its graphs, the
# Monte-Carlo check its draws, and every seeded check its seed, against these too
_BOUNDS = {"seed": (0, None), "draws": (1, MAX_RUNS), "graphs": (2, MAX_RUNS)}


def _er_pairs(seed, tag: str, count: int):
    """Seeded connected ER pairs, orders 8-20, density 0.25-0.7: (product, factor_spectra x2)."""
    seed = _as_int("seed", seed, *_BOUNDS["seed"])
    for t in range(count):
        rng = np.random.default_rng(derive_seed(seed, tag, t))
        n1, n2 = int(rng.integers(8, 21)), int(rng.integers(8, 21))
        p = float(rng.uniform(0.25, 0.7))
        g1 = generate_connected(GeneratorSpec("ER", n1, p, derive_seed(seed, tag, t, "a")))
        g2 = generate_connected(GeneratorSpec("ER", n2, p, derive_seed(seed, tag, t, "b")))
        yield KroneckerLaplacian(g1, g2), factor_spectra(g1), factor_spectra(g2)


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
    """The ER expectation of r(1, j) over an (n, p) grid: in (0, 1) and increasing in n and p."""
    orders, densities = (30, 50, 100, 200), (0.10, 0.30, 0.65)
    values = {f"n={n},p={p}": expected_r1j(n, p) for n in orders for p in densities}
    grid = np.reshape(list(values.values()), (len(orders), len(densities)))
    inside = bool(((grid > 0) & (grid < 1)).all())
    increasing = bool((np.diff(grid, axis=0) > 0).all() and (np.diff(grid, axis=1) > 0).all())
    return {
        "inputs": {"orders": list(orders), "densities": list(densities)},
        "predicted": "in (0, 1), strictly increasing in n at each p and in p at each n",
        "observed": values,
        "pass": inside and increasing,
    }


def _expected_normalized_upper(bar1: np.ndarray, bar2: np.ndarray) -> np.ndarray:
    """The upper triangle of the normalized Laplacian of the weights ``np.kron(bar1, bar2)``.

    Built from one block row of ``np.kron(bar1, bar2)`` at a time into an
    :func:`upper_buffer`, so no N x N array is made. The degrees are whole
    rows' sums, ``inv = deg**-1/2``, each entry is scaled by ``inv_r * -inv_c``,
    then 1 is added on the diagonal: the arithmetic of :func:`normalized_laplacian`,
    with row sums for degrees.
    """
    n1, n2 = len(bar1), len(bar2)
    inv_sqrt = 1.0 / np.sqrt(np.concatenate([np.kron(row, bar2).sum(axis=1) for row in bar1]))
    m = upper_buffer(n1 * n2)
    upper = np.triu_indices(n2)
    for i in range(n1):
        start, stop = i * n2, (i + 1) * n2
        block = np.kron(bar1[i, i:], bar2) * np.outer(inv_sqrt[start:stop], -inv_sqrt[start:])
        np.fill_diagonal(block, block.diagonal() + 1.0)
        m[start:stop, stop:] = block[:, n2:]
        m[start:stop, start:stop][upper] = block[:, :n2][upper]
    return m


def expected_spectrum_gap(n1: int, n2: int) -> dict:
    """Closed-form four-level spectrum vs a direct eigensolve, per p.

    The normalized Laplacian of each expected adjacency ``kron(bar1, bar2)``
    is built as the upper triangle ``owned_eigenvalues`` reads
    (:func:`_expected_normalized_upper`) and solved in place, so a solve
    holds that triangle's pages and the solver's workspace.
    """
    probs, tolerance = (0.3, 1.0), 1e-8
    levels = expected_kron_normalized_spectrum(n1, n2)
    closed = np.sort(np.concatenate([np.full(mult, value) for value, mult in levels]))
    worst = 0.0
    for p in probs:
        bar1, bar2 = (p * (np.ones((n, n)) - np.eye(n)) for n in (n1, n2))
        numeric = owned_eigenvalues(_expected_normalized_upper(bar1, bar2))
        worst = max(worst, float(np.abs(numeric - closed).max()))
    return {
        "inputs": {"orders": [n1, n2], "probs": list(probs), "tolerance": tolerance},
        "predicted": [[value, mult] for value, mult in levels],
        "observed": {"max_abs_gap": worst},
        "pass": worst <= tolerance,
    }


def sayama_nonnegativity_sweep(graphs: int, seed: int) -> dict:
    """Random connected ER sweep: mu_i <= 2 d_i and nonnegative estimates.

    Graphs are checked individually for the degree bound, then consecutive
    graphs are paired up and both estimators evaluated under the correlated
    ordering; the smallest estimated value over all pairs is reported.
    """
    graphs = _as_int("graphs", graphs, *_BOUNDS["graphs"])
    seed = _as_int("seed", seed, *_BOUNDS["seed"])
    n_range, p_range, floor = [10, 40], [0.3, 0.7], -1e-12
    rng = np.random.default_rng(seed)
    spectra = []
    for t in range(graphs):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(*p_range))
        g = generate_connected(GeneratorSpec("ER", n, p, derive_seed(seed, "sweep", t)))
        mu = owned_eigenvalues(laplacian(g))
        spectra.append((mu, owned_eigenvalues(normalized_laplacian(g)), g.degrees))
    bound_failures = sum(not sayama_bound_holds(mu, d) for mu, _, d in spectra)
    min_sayama = min_normalized = math.inf
    for (mu1, lam1, d1), (mu2, lam2, d2) in zip(spectra[0::2], spectra[1::2]):
        min_sayama = min(min_sayama, float(sayama_spectrum(mu1, d1, mu2, d2).min()))
        min_normalized = min(min_normalized, float(normalized_estimate(lam1, d1, lam2, d2).min()))
    return {
        "inputs": {
            "graph_count": graphs, "n_range": n_range, "p_range": p_range, "seed": seed
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
    draws = _as_int("draws", draws, *_BOUNDS["draws"])
    seed = _as_int("seed", seed, *_BOUNDS["seed"])
    n, p, tolerance = 200, 0.3, 0.02
    h = cycle_graph(5)
    w_h = factor_spectra(h).laplacian.eigenvectors
    means = []
    for t in range(draws):
        g = generate_connected(GeneratorSpec("ER", n, p, derive_seed(seed, "er_mc", t)))
        op = KroneckerLaplacian(g, h)
        means.append(np.mean(_first_row_cosines(op, np.ones((n, 1)), w_h)))
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
    for op, f1, f2 in _er_pairs(seed, "r1j", pairs):
        observed = _first_row_cosines(op, f1.laplacian.eigenvectors, f2.laplacian.eigenvectors)
        max_gap = max(max_gap, float(np.abs(observed - mean_rms_ratio(f1.degrees)).max()))
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
    for op, f1, f2 in _er_pairs(seed, "colin", pairs):
        mu2, w2 = f2.laplacian
        lhs = op.matvec(np.kron(np.ones((op.first.n, 1)), w2))
        rhs = np.kron(f1.degrees[:, None], w2) * mu2
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
    for op, f1, f2 in _er_pairs(seed, "decomp", pairs):
        (lam1, v1), (lam2, v2) = f1.normalized, f2.normalized
        norm_product = normalized_laplacian(kronecker_graph(op.first, op.second))
        formula = (1.0 - np.outer(1.0 - lam1, 1.0 - lam2)).ravel()
        x = np.kron(v1, v2)
        residual = norm_product @ x - x * formula
        # the solve takes over norm_product, so it comes after the residual
        numeric = owned_eigenvalues(norm_product)
        max_value_gap = max(max_value_gap, float(np.abs(np.sort(formula) - numeric).max()))
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
    for op, f1, f2 in _er_pairs(seed, "rprime", pairs):
        v2, g2 = f2.normalized.eigenvectors, op.second
        row = _first_row_cosines(op, f1.normalized.eigenvectors, v2)
        v = v2[:, 1:]
        lap2_v = laplacian(g2) @ v
        dots = np.einsum("dc,dc->c", v, lap2_v)
        r_j = dots / (np.linalg.norm(v, axis=0) * np.linalg.norm(lap2_v, axis=0))
        deg2_v, adj2_v = g2.degrees[:, None] * v, g2.adjacency @ v
        r_j_corrected = dots / (np.linalg.norm(deg2_v, axis=0) + np.linalg.norm(adj2_v, axis=0))
        for observed, r, r_corrected in zip(row, r_j, r_j_corrected):
            stated.append(observed - rprime_lower_bound(f1.degrees, float(r)))
            corrected.append(observed - rprime_lower_bound(f1.degrees, float(r_corrected)))
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


def theory_suite(
    output_dir: str | None = None,
    seed: int = 12345,
    draws: int = 100,
    graphs: int = 1000,
) -> dict:
    """Run every closed-form/bound/Monte-Carlo check and report pass/fail.

    Returns the report dict; also writes theory_report.json when an output
    directory is given. Each check seeds itself, so the order they run in
    changes no result: the order-1500 desk check runs first and the
    normalized decomposition check second, the others after them.
    """
    # all three are checked before the first check runs
    seed = _as_int("seed", seed, *_BOUNDS["seed"])
    draws = _as_int("draws", draws, *_BOUNDS["draws"])
    graphs = _as_int("graphs", graphs, *_BOUNDS["graphs"])
    report = {
        # The desk check's order-1500 triangle (about 12 MB) sets the suite's
        # peak RSS, so it goes on the heap as it is after import, before the
        # draws and the sweep grow it. The decomposition check's threaded BLAS
        # calls follow it and take up the idle spin of BLAS's second thread.
        "expected_spectrum_desk": expected_spectrum_gap(30, 50),
        "normalized_decomposition": normalized_decomposition_gaps(seed=seed),
        "er_r1j_monte_carlo": er_r1j_monte_carlo(draws=draws, seed=seed),
        "sayama_nonnegativity": sayama_nonnegativity_sweep(graphs, seed),
        "mean_rms_closed_forms": closed_form_mean_rms(),
        "staircase_limit": staircase_limit(),
        "asymptotic_inequality_grid": asymptotic_inequality_grid(),
        "expected_r1j_grid": expected_r1j_grid(),
        "expected_spectrum_small": expected_spectrum_gap(5, 7),
        "r1j_closed_form": r1j_closed_form_gap(seed=seed),
        "colinearity": colinearity_residual(seed=seed),
        "rprime_lower_bound": rprime_bound_slack(seed=seed),
    }
    report["all_pass"] = all(entry["pass"] for entry in report.values())
    report["version"] = version_string()
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "theory_report.json", report)
    return report
