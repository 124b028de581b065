"""Experiment orchestration: seeded runs, aggregation, and report bundles.

One run generates a connected factor pair, decomposes the factor Laplacians
and normalized Laplacians, builds the exact product-Laplacian spectrum, and
evaluates both estimators against it. A full experiment repeats this over
independent per-run seeds derived from a master seed and aggregates
percentage-error profiles and correlation-coefficient densities.

Everything written to disk is a pure function of the config: per-run seeds
come from (master_seed, run index, role), and CSV/JSON emission is fully
deterministic. The KRONSPEC_THREADS environment variable caps the size of
the worker pool used for the independent runs (default: sequential).
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from hashlib import sha256
from pathlib import Path

import numpy as np

from .estimators import (
    EstimatedSpectrum,
    Estimator,
    Ordering,
    OrderingKind,
    normalized_estimate,
    sayama_spectrum,
)
from .generators import (
    DEFAULT_WS_BETA,
    MODELS,
    GeneratorSpec,
    density_to_params,
    derive_seed,
    generate_connected_pair,
)
from .graphs import KroneckerLaplacian, edge_density, laplacian, normalized_laplacian
from .metrics import (
    DensityCurve,
    ErrorProfile,
    aggregate_profile,
    correlation_profile,
    kde,
    percentage_errors,
)
from .spectral import sym_eig, sym_eigenvalues

REFERENCE_ORDERS = ((30, 50), (50, 100), (100, 200))
REFERENCE_DENSITIES = (0.10, 0.30, 0.65)

BASES = ("laplacian", "normalized")


def worker_count() -> int:
    env = os.environ.get("KRONSPEC_THREADS", "")
    if not env.strip():
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"KRONSPEC_THREADS must be an integer worker count, got {env!r}"
        ) from None


def version_string() -> str:
    """git-describe of the working tree, falling back to the package version.

    Starts a subprocess on every call; report writers stamp their files
    through the once-per-process :func:`_version` instead.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    from kronspec import __version__

    return f"kronspec-{__version__}"


@functools.cache
def _version() -> str:
    return version_string()


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid plus reproducibility knobs.

    The grid of the reference experiments uses orders from REFERENCE_ORDERS and
    densities from REFERENCE_DENSITIES; other values are allowed (e.g. for
    debugging with the CYCLE model, which ignores the density knob).

    ``ordering=None`` (the default) selects the per-estimator pairing that
    reproduces the reference error bands: Correlated for the Laplacian-basis
    estimate and a per-run seeded Uncorrelated shuffle for the
    normalized-basis estimate, whose value multiset is systematically biased
    by any rank-correlated degree pairing (see resolve_ordering). An
    explicit Ordering applies to both estimators.
    """

    model: str
    orders: tuple[int, int]
    density: float
    runs: int = 100
    estimators: tuple[Estimator, ...] = (
        Estimator.SAYAMA_LAPLACIAN,
        Estimator.NORMALIZED_LAPLACIAN,
    )
    ordering: Ordering | None = None
    master_seed: int = 0
    output_dir: str | None = None
    ws_beta: float = DEFAULT_WS_BETA
    compute_correlations: bool = True

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.runs < 1:
            raise ValueError("run count must be positive")
        n1, n2 = self.orders
        if n1 < 2 or n2 < 2:
            raise ValueError(f"orders must both be at least 2, got {self.orders}")
        # fail fast on densities the model cannot realize at these orders
        for n in self.orders:
            density_to_params(self.factor_spec(n, seed=0))

    def factor_spec(self, n: int, seed: int) -> GeneratorSpec:
        return GeneratorSpec(
            model=self.model,
            n=n,
            target_density=self.density if self.model != "CYCLE" else 0.5,
            seed=seed,
            ws_beta=self.ws_beta,
        )

    def run_specs(self, run_index: int) -> tuple[GeneratorSpec, GeneratorSpec]:
        n1, n2 = self.orders
        return (
            self.factor_spec(n1, derive_seed(self.master_seed, run_index, "factor1")),
            self.factor_spec(n2, derive_seed(self.master_seed, run_index, "factor2")),
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "orders": list(self.orders),
            "density": self.density,
            "runs": self.runs,
            "estimators": [e.value for e in self.estimators],
            "ordering": self.ordering.to_dict() if self.ordering is not None else None,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
            "ws_beta": self.ws_beta,
            "compute_correlations": self.compute_correlations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = dict(data)
        unknown = sorted(set(known) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(
            model=known["model"],
            orders=tuple(known["orders"]),
            density=float(known["density"]),
            runs=int(known.get("runs", 100)),
            estimators=tuple(
                Estimator(e) for e in known.get(
                    "estimators", ["SayamaLaplacian", "NormalizedLaplacian"]
                )
            ),
            ordering=(
                Ordering.from_dict(known["ordering"])
                if known.get("ordering") is not None
                else None
            ),
            master_seed=int(known.get("master_seed", 0)),
            output_dir=known.get("output_dir"),
            ws_beta=float(known.get("ws_beta", DEFAULT_WS_BETA)),
            compute_correlations=bool(known.get("compute_correlations", True)),
        )

    def config_hash(self) -> str:
        hashed = self.to_dict()
        hashed.pop("output_dir")  # where the reports land does not affect them
        digest = sha256(json.dumps(hashed, sort_keys=True).encode())
        return digest.hexdigest()[:12]


@dataclass
class RunRecord:
    """Everything measured in one independent run."""

    run_index: int
    factor_seeds: tuple[int, int]
    achieved_densities: tuple[float, float]
    errors: dict[Estimator, np.ndarray]
    correlations: dict[str, np.ndarray] | None  # per basis, in correlation_pairs order
    wall_time: float


def correlation_pairs(n1: int, n2: int) -> list[tuple[int, int]]:
    """Canonical (i, j) order of correlation samples: row-major, (0, 0) dropped."""
    return [(i, j) for i in range(n1) for j in range(n2)][1:]


def resolve_ordering(config: ExperimentConfig, estimator: Estimator, run_index: int) -> Ordering:
    """The eigenvalue ordering one estimator uses in one run.

    An explicit config ordering always wins. Otherwise: the Laplacian-basis
    estimate pairs eigenvalues ascending against ascending degrees
    (Correlated), which its additive mu*d cells need; the normalized-basis
    estimate pairs them by a per-run seeded shuffle (Uncorrelated), because
    its multiplicative cells acquire a systematic trace deficit under any
    rank-correlated pairing (sum of lam_(i) d_(i) exceeds the mean-field
    value for similarly-sorted sequences) that inflates the error medians
    on sparse irregular factors.
    """
    if config.ordering is not None:
        return config.ordering
    if estimator == Estimator.SAYAMA_LAPLACIAN:
        return Ordering(kind=OrderingKind.CORRELATED)
    return Ordering(
        kind=OrderingKind.UNCORRELATED,
        randomization_seed=derive_seed(config.master_seed, run_index, "ordering"),
    )


def ordering_label(config: ExperimentConfig, estimator: Estimator) -> str:
    if config.ordering is not None:
        return config.ordering.kind.value
    if estimator == Estimator.SAYAMA_LAPLACIAN:
        return "Correlated"
    return "Uncorrelated[per-run seed]"


def run_single(config: ExperimentConfig, run_index: int) -> RunRecord:
    """Generate one factor pair and measure both estimators against the truth."""
    started = time.perf_counter()
    spec1, spec2 = config.run_specs(run_index)
    try:
        g1, g2 = generate_connected_pair(spec1, spec2)
    except Exception as exc:
        raise RuntimeError(f"run {run_index}: factor generation failed") from exc

    lap1 = sym_eig(laplacian(g1))
    lap2 = sym_eig(laplacian(g2))
    norm1 = sym_eig(normalized_laplacian(g1))
    norm2 = sym_eig(normalized_laplacian(g2))
    d1 = np.sort(g1.degrees)
    d2 = np.sort(g2.degrees)

    op = KroneckerLaplacian.of(g1, g2)
    actual = sym_eigenvalues(op.dense())

    errors: dict[Estimator, np.ndarray] = {}
    for estimator in config.estimators:
        ordering = resolve_ordering(config, estimator, run_index)
        estimated = estimate_spectrum(estimator, lap1, norm1, d1, lap2, norm2, d2, ordering)
        errors[estimator] = percentage_errors(estimated, actual)

    correlations = None
    if config.compute_correlations:
        correlations = {
            "laplacian": correlation_profile(op, lap1.eigenvectors, lap2.eigenvectors),
            "normalized": correlation_profile(op, norm1.eigenvectors, norm2.eigenvectors),
        }

    return RunRecord(
        run_index=run_index,
        factor_seeds=(spec1.seed, spec2.seed),
        achieved_densities=(edge_density(g1), edge_density(g2)),
        errors=errors,
        correlations=correlations,
        wall_time=time.perf_counter() - started,
    )


def estimate_spectrum(
    estimator: Estimator,
    lap_eig1,
    norm_eig1,
    d1: np.ndarray,
    lap_eig2,
    norm_eig2,
    d2: np.ndarray,
    ordering: Ordering,
) -> EstimatedSpectrum:
    if estimator == Estimator.SAYAMA_LAPLACIAN:
        return sayama_spectrum(lap_eig1.eigenvalues, d1, lap_eig2.eigenvalues, d2, ordering)
    return normalized_estimate(norm_eig1.eigenvalues, d1, norm_eig2.eigenvalues, d2, ordering)


def _run_single_star(args) -> RunRecord:
    return run_single(*args)


@dataclass
class ExperimentBundle:
    """In-memory results of one experiment plus paths of anything written."""

    config: ExperimentConfig
    records: list[RunRecord]
    error_profiles: dict[Estimator, ErrorProfile]
    density_curves: dict[str, DensityCurve | None]
    correlation_samples: dict[str, np.ndarray]  # (runs, pairs) per basis
    files: dict[str, str] = field(default_factory=dict)

    @property
    def pair_order(self) -> list[tuple[int, int]]:
        return correlation_pairs(*self.config.orders)

    def samples_by_pair(self, basis: str) -> dict[tuple[int, int], np.ndarray]:
        matrix = self.correlation_samples[basis]
        return {pair: matrix[:, k] for k, pair in enumerate(self.pair_order)}


def run_experiment(config: ExperimentConfig) -> ExperimentBundle:
    """Execute all runs, aggregate, and (if output_dir is set) write reports."""
    args = [(config, i) for i in range(config.runs)]
    workers = worker_count()
    if workers > 1 and config.runs > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_single_star, args))
    else:
        records = [run_single(config, i) for i in range(config.runs)]
    records.sort(key=lambda r: r.run_index)

    meta_common = {
        "model": config.model,
        "density": config.density,
        "n1": config.orders[0],
        "n2": config.orders[1],
        "runs": config.runs,
        "ws_beta": config.ws_beta,
    }
    error_profiles = {}
    for estimator in config.estimators:
        error_profiles[estimator] = aggregate_profile(
            [r.errors[estimator] for r in records],
            meta={
                "estimator": estimator.value,
                "ordering": ordering_label(config, estimator),
                **meta_common,
            },
        )

    density_curves: dict[str, DensityCurve | None] = {}
    correlation_samples: dict[str, np.ndarray] = {}
    if config.compute_correlations:
        for basis in BASES:
            matrix = np.vstack([r.correlations[basis] for r in records])
            correlation_samples[basis] = matrix
            try:
                # orderings play no role here: profiles depend on bases only
                density_curves[basis] = kde(
                    matrix.ravel(), meta={"basis": basis, "ordering": "-", **meta_common}
                )
            except ValueError:
                # degenerate samples (e.g. exact estimates): no curve
                density_curves[basis] = None

    bundle = ExperimentBundle(
        config=config,
        records=records,
        error_profiles=error_profiles,
        density_curves=density_curves,
        correlation_samples=correlation_samples,
    )
    if config.output_dir is not None:
        write_bundle(bundle, config.output_dir)
    return bundle


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def _comment(config_hash: str) -> str:
    return f"# kronspec={_version()} config={config_hash}\n"


def write_error_profile_csv(path: str, profile: ErrorProfile, config_hash: str) -> None:
    meta = profile.meta
    with open(path, "w") as fh:
        fh.write(_comment(config_hash))
        fh.write("rank,median,p5,p95,estimator,ordering,model,density,n1,n2,runs\n")
        for k, rank in enumerate(profile.ranks):
            fh.write(
                f"{rank},{_fmt(profile.median[k])},{_fmt(profile.p5[k])},{_fmt(profile.p95[k])},"
                f"{meta['estimator']},{meta['ordering']},{meta['model']},{_fmt(meta['density'])},"
                f"{meta['n1']},{meta['n2']},{meta['runs']}\n"
            )


def write_density_curve_csv(path: str, curve: DensityCurve, config_hash: str) -> None:
    meta = curve.meta
    with open(path, "w") as fh:
        fh.write(_comment(config_hash))
        fh.write("grid,density,bandwidth,basis,ordering,model,density_target,n1,n2,runs\n")
        for k in range(len(curve.grid)):
            fh.write(
                f"{_fmt(curve.grid[k])},{_fmt(curve.density[k])},{_fmt(curve.bandwidth)},"
                f"{meta['basis']},{meta['ordering']},{meta['model']},{_fmt(meta['density'])},"
                f"{meta['n1']},{meta['n2']},{meta['runs']}\n"
            )


def write_runs_csv(path: str, records: list[RunRecord], config_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(_comment(config_hash))
        fh.write("run,factor_seed1,factor_seed2,achieved_density1,achieved_density2\n")
        for r in records:
            fh.write(
                f"{r.run_index},{r.factor_seeds[0]},{r.factor_seeds[1]},"
                f"{_fmt(r.achieved_densities[0])},{_fmt(r.achieved_densities[1])}\n"
            )


def write_bundle(bundle: ExperimentBundle, output_dir: str) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = bundle.config.config_hash()
    files: dict[str, str] = {}

    for estimator, profile in bundle.error_profiles.items():
        name = f"errors_{estimator.value}.csv"
        write_error_profile_csv(str(out / name), profile, config_hash)
        files[f"error_profile/{estimator.value}"] = name
    for basis, curve in bundle.density_curves.items():
        if curve is None:
            continue
        name = f"correlation_density_{basis}.csv"
        write_density_curve_csv(str(out / name), curve, config_hash)
        files[f"density_curve/{basis}"] = name
    write_runs_csv(str(out / "runs.csv"), bundle.records, config_hash)
    files["runs"] = "runs.csv"

    config_dict = bundle.config.to_dict()
    config_dict.pop("output_dir")  # the manifest sits inside it already
    manifest = {
        "version": _version(),
        "config": config_dict,
        "config_hash": config_hash,
        "files": files,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files["manifest"] = "manifest.json"
    bundle.files = {k: str(out / v) for k, v in files.items()}


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

# panels of the reference figures: correlation-coefficient densities come
# from 5 independent runs, error bands from 100
FIGURES = {
    "fig2": {"model": "ER", "orders": (30, 50), "densities": (0.10, 0.30, 0.65), "kind": "kde"},
    "fig3": {"model": "ER", "orders": (50, 100), "densities": (0.10,), "kind": "kde"},
    "fig4": {"model": "ER", "orders": (30, 50), "densities": (0.10, 0.30, 0.65), "kind": "errors"},
    "fig5": {"model": "WS", "orders": (30, 50), "densities": (0.10, 0.30, 0.65), "kind": "kde"},
    "fig6": {"model": "WS", "orders": (30, 50), "densities": (0.10, 0.30, 0.65), "kind": "errors"},
    "fig7": {"model": "BA", "orders": (30, 50), "densities": (0.10, 0.30, 0.65), "kind": "kde"},
    "fig8": {"model": "BA", "orders": (30, 50), "densities": (0.10, 0.30, 0.65), "kind": "errors"},
}


def reproduce_figure(
    figure_id: str,
    output_dir: str,
    master_seed: int = 1729,
    runs_override: int | None = None,
) -> dict:
    """Run the configuration grid behind one figure and write panel CSVs.

    Returns the manifest mapping panel names to files. ``runs_override``
    shrinks the run counts for smoke tests; the reference counts are 5 for
    density panels and 100 for error panels.
    """
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {sorted(FIGURES)}")
    recipe = FIGURES[figure_id]
    kind = recipe["kind"]
    runs = runs_override if runs_override is not None else (5 if kind == "kde" else 100)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    panels: dict[str, str] = {}
    version = _version()
    for density in recipe["densities"]:
        config = ExperimentConfig(
            model=recipe["model"],
            orders=recipe["orders"],
            density=density,
            runs=runs,
            master_seed=derive_seed(master_seed, figure_id, density),
            compute_correlations=(kind == "kde"),
        )
        bundle = run_experiment(config)
        tag = f"{recipe['model']}_{recipe['orders'][0]}x{recipe['orders'][1]}_d{int(density * 100)}"
        config_hash = config.config_hash()
        if kind == "kde":
            for basis, curve in bundle.density_curves.items():
                if curve is None:
                    continue
                name = f"{figure_id}_{tag}_{basis}.csv"
                write_density_curve_csv(str(out / name), curve, config_hash)
                panels[f"{tag}/{basis}"] = name
        else:
            for estimator, profile in bundle.error_profiles.items():
                name = f"{figure_id}_{tag}_{estimator.value}.csv"
                write_error_profile_csv(str(out / name), profile, config_hash)
                panels[f"{tag}/{estimator.value}"] = name

    manifest = {"figure": figure_id, "version": version, "panels": panels}
    with open(out / f"{figure_id}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def theory_suite(
    output_dir: str | None = None,
    seed: int = 12345,
    er_draws: int = 100,
    graph_count: int = 1000,
    pair_count: int = 50,
) -> dict:
    """Run every closed-form/bound/Monte-Carlo check and report pass/fail.

    Returns the report dict; also writes theory_report.json when an output
    directory is given.
    """
    from . import checks

    report = checks.full_report(
        seed=seed, er_draws=er_draws, graph_count=graph_count, pair_count=pair_count
    )
    report["version"] = _version()
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "theory_report.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
