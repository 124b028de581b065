"""Correctness checks on the reports a round wrote.

The checks use required properties and independent recomputation with plain
numpy, never stored copies of earlier output. kronspec itself is used only
to redraw a run's factor graphs from the seeds its ``runs.csv`` records; the
redraw is confirmed against the achieved densities in the same file.

Cheap checks run on every round. The ones that need an exact product
spectrum (``deep``) run on the first round only: the trace identity and the
single zero for the first run of each config, and for one config per
experiment workload a recomputation of every run's Laplacian-basis errors.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# a Gaussian kernel centred inside [min, max] loses at most P(|Z| > 3) of its
# mass outside the KDE grid [min - 3h, max + 3h]
KERNEL_TAIL = math.erfc(3.0 / math.sqrt(2.0))
INTEGRAL_SLACK = 1e-6     # trapezoid-rule error allowance
EXACT_ERROR_PCT = 1e-8    # regular factors: estimates are exact
RECOMPUTE_ATOL_PCT = 1e-7


def _read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def check_round(commands: list[dict], round_dir: Path, deep: bool) -> list[str]:
    """Problems found in one round's reports; empty when all checks pass.

    ``commands`` are the round's commands that completed; each wrote its
    reports to ``round_dir / "out" / name``.
    """
    problems: list[str] = []
    spectra: dict = {}
    for cmd in commands:
        out = round_dir / "out" / cmd["name"]
        try:
            if cmd["kind"] == "theory":
                found = check_theory(out)
            else:
                found = check_experiment(cmd, out, deep, spectra)
        except (OSError, KeyError, ValueError) as exc:
            found = [f"{type(exc).__name__}: {exc}"]
        problems += [f"{cmd['name']}: {p}" for p in found]
    return problems


def check_theory(out: Path) -> list[str]:
    report = json.loads((out / "theory_report.json").read_text())
    problems = []
    if report.get("all_pass") is not True:
        problems.append("theory_report.json: all_pass is not true")
    grid = report["expected_r1j_grid"]["observed"]
    if not grid:
        problems.append("expected_r1j_grid is empty")
    for key, value in grid.items():
        fields = dict(part.split("=") for part in key.split(","))
        n, p = int(fields["n"]), float(fields["p"])
        expected = math.sqrt((n - 1) * p / (1 - p + (n - 1) * p))
        if not math.isclose(value, expected, rel_tol=1e-12):
            problems.append(f"expected_r1j_grid[{key}] = {value}, formula gives {expected}")
    return problems


def check_experiment(cmd: dict, out: Path, deep: bool, spectra: dict) -> list[str]:
    config = cmd["config"]
    n1, n2 = config["orders"]
    problems = []
    manifest = json.loads((out / "manifest.json").read_text())
    problems += [f"manifest lists missing file {name}"
                 for name in manifest["files"].values() if not (out / name).is_file()]

    estimators = config.get("estimators", ["SayamaLaplacian", "NormalizedLaplacian"])
    profiles = {}
    for estimator in estimators:
        path = out / f"errors_{estimator}.csv"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        rows = _read_csv(path)
        profiles[estimator] = rows
        problems += _check_profile(path.name, rows, n1 * n2, cmd.get("exact", False))

    if config["compute_correlations"] and config["model"] != "CYCLE":
        for basis in ("laplacian", "normalized"):
            path = out / f"correlation_density_{basis}.csv"
            if not path.is_file():
                problems.append(f"{path.name} missing")
                continue
            problems += _check_density(path.name, _read_csv(path))

    if deep:
        runs = _read_csv(out / "runs.csv")
        if len(runs) != config["runs"]:
            problems.append(f"runs.csv has {len(runs)} runs, config asks {config['runs']}")
        checked = runs if cmd.get("recompute") else runs[:1]
        errors = []
        for run in checked:
            factors, mu = _exact_spectrum(config, run, spectra)
            problems += _check_spectrum(run["run"], factors, mu)
            if cmd.get("recompute"):
                errors.append(_laplacian_basis_errors(factors, mu))
        if cmd.get("recompute"):
            problems += _compare_profile(profiles.get("SayamaLaplacian"), np.array(errors))
    return problems


def _check_profile(name: str, rows: list[dict], dim: int, exact: bool) -> list[str]:
    if [int(r["rank"]) for r in rows] != list(range(1, dim)):
        return [f"{name}: ranks are not 1..{dim - 1}"]
    median, p5, p95 = (_column(rows, c) for c in ("median", "p5", "p95"))
    problems = []
    if not all(np.isfinite(a).all() for a in (median, p5, p95)):
        problems.append(f"{name}: non-finite error values")
    if not (np.all(p5 <= median) and np.all(median <= p95)):
        problems.append(f"{name}: p5 <= median <= p95 fails")
    worst = max(np.abs(a).max() for a in (median, p5, p95))
    if exact and not worst <= EXACT_ERROR_PCT:
        problems.append(f"{name}: regular factors, yet an error of {worst:.3g}%")
    return problems


def _check_density(name: str, rows: list[dict]) -> list[str]:
    grid, density = _column(rows, "grid"), _column(rows, "density")
    bandwidth = float(rows[0]["bandwidth"])
    if not (bandwidth > 0 and np.all(np.diff(grid) > 0) and np.all(density >= 0)):
        return [f"{name}: malformed curve"]
    integral = float(np.sum((density[1:] + density[:-1]) * np.diff(grid)) / 2)
    if not 1 - KERNEL_TAIL - INTEGRAL_SLACK <= integral <= 1 + INTEGRAL_SLACK:
        return [f"{name}: integrates to {integral:.6f}, not 1 within the kernel tail mass"]
    return []


def _factors(config: dict, run: dict):
    """Redraw one run's factor pair as (adjacency, degree) arrays."""
    from kronspec.generators import DEFAULT_WS_BETA, GeneratorSpec, generate_connected_pair

    specs = [
        GeneratorSpec(
            model=config["model"], n=n, target_density=config["density"],
            seed=int(run[f"factor_seed{k}"]), ws_beta=config.get("ws_beta", DEFAULT_WS_BETA),
        )
        for k, n in ((1, config["orders"][0]), (2, config["orders"][1]))
    ]
    pair = []
    for k, g in enumerate(generate_connected_pair(*specs), start=1):
        a = np.array(g.adjacency, dtype=np.float64)
        n = a.shape[0]
        if not math.isclose(a.sum() / (n * (n - 1)), float(run[f"achieved_density{k}"]),
                            rel_tol=1e-12):
            raise ValueError(f"run {run['run']}: redrawn factor {k} does not match runs.csv")
        pair.append((a, a.sum(axis=1)))
    return pair


def _exact_spectrum(config: dict, run: dict, cache: dict):
    key = (config["model"], tuple(config["orders"]), config["density"],
           config.get("ws_beta"), run["factor_seed1"], run["factor_seed2"])
    if key not in cache:
        (a1, d1), (a2, d2) = factors = _factors(config, run)
        lap = -np.kron(a1, a2)
        lap[np.diag_indices_from(lap)] += np.kron(d1, d2)
        cache[key] = factors, np.linalg.eigvalsh(lap)
    return cache[key]


def _check_spectrum(run, factors, mu: np.ndarray) -> list[str]:
    (_, d1), (_, d2) = factors
    problems = []
    trace = d1.sum() * d2.sum()
    if not math.isclose(mu.sum(), trace, rel_tol=1e-9):
        problems.append(f"run {run}: sum(mu) = {mu.sum()!r}, (sum d1)(sum d2) = {trace!r}")
    zeros = int(np.sum(np.abs(mu) <= 1e-8 * mu[-1]))
    if zeros != 1:
        problems.append(f"run {run}: {zeros} zero eigenvalues, expected exactly one")
    return problems


def _laplacian_basis_errors(factors, mu: np.ndarray) -> np.ndarray:
    """Percentage errors of mu_i d'_j + d_i mu'_j - mu_i mu'_j, ascending pairing."""
    (a1, d1), (a2, d2) = factors
    m1 = np.linalg.eigvalsh(np.diag(d1) - a1)[:, None]
    m2 = np.linalg.eigvalsh(np.diag(d2) - a2)[None, :]
    s1, s2 = np.sort(d1)[:, None], np.sort(d2)[None, :]
    estimate = np.sort((m1 * s2 + s1 * m2 - m1 * m2).ravel())
    return 100.0 * (estimate[1:] - mu[1:]) / mu[1:]


def _compare_profile(rows, errors: np.ndarray) -> list[str]:
    if rows is None:
        return ["no SayamaLaplacian profile to recompute"]
    p5, median, p95 = np.percentile(errors, [5, 50, 95], axis=0)
    problems = []
    for column, recomputed in (("median", median), ("p5", p5), ("p95", p95)):
        gap = float(np.abs(_column(rows, column) - recomputed).max())
        if not gap <= RECOMPUTE_ATOL_PCT:
            problems.append(f"recomputed Laplacian-basis {column} differs by {gap:.3g}%")
    return problems
