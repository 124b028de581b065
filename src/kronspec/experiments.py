"""Experiment orchestration: seeded runs, aggregation, and report bundles.

One run generates a connected factor pair, decomposes the factor Laplacians
and normalized Laplacians (:func:`factor_spectra`), takes the exact
product-Laplacian spectrum (:func:`product_spectrum`, solved once per
distinct product in a process), and evaluates both estimators against it
(:func:`estimate_spectrum`); the CLI ``estimate`` command goes through the
same three functions. A full experiment repeats this over independent
per-run seeds derived from a master seed and aggregates percentage-error
profiles and correlation-coefficient densities.

Everything written to disk is a pure function of the config: per-run seeds
come from (master_seed, run index, role), and every CSV table goes through
the one deterministic writer :func:`write_csv`.
"""

from __future__ import annotations

import functools
import json
import subprocess
import time
from dataclasses import dataclass, field, fields
from hashlib import sha256
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, NamedTuple

import numpy as np

from .estimators import (
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
from .graphs import Graph, KroneckerLaplacian, edge_density, laplacian, normalized_laplacian
from .metrics import (
    DensityCurve,
    ErrorProfile,
    aggregate_profile,
    correlation_profile,
    kde,
    percentage_errors,
)
from .spectral import SpectralDecomposition, sym_eig, sym_eigenvalues

BASES = ("laplacian", "normalized")

# Exact product spectra kept per process before the least recently used
# one is dropped.
SPECTRUM_CACHE_ENTRIES = 2048


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


# from_dict's coercion of each JSON value to its field type
_COERCE = {
    "orders": tuple,
    "density": float,
    "runs": int,
    "estimators": lambda names: tuple(Estimator(e) for e in names),
    "ordering": lambda o: Ordering.from_dict(o) if o is not None else None,
    "master_seed": int,
    "ws_beta": float,
    "compute_correlations": bool,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment grid plus reproducibility knobs.

    The reference figures (:data:`FIGURES`) fix the orders and densities of
    their grids; other values are allowed (e.g. for debugging with the CYCLE
    model, which ignores the density knob).

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
        """Inverse of :meth:`to_dict`; absent keys take the field defaults.

        Values are coerced to the field types (e.g. ``"density": 1`` becomes
        1.0), so equal configs hash equally however their JSON spells them.
        """
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{key: _COERCE[key](v) if key in _COERCE else v for key, v in data.items()})

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
    correlations: dict[str, np.ndarray] | None  # per basis, in correlation_profile order
    wall_time: float


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


class FactorSpectra(NamedTuple):
    """What both estimators need from one factor graph."""

    laplacian: SpectralDecomposition
    normalized: SpectralDecomposition
    degrees: np.ndarray  # ascending


def factor_spectra(g: Graph) -> FactorSpectra:
    """Both eigendecompositions of one factor (Laplacian, normalized) and its sorted degrees."""
    return FactorSpectra(
        sym_eig(laplacian(g)), sym_eig(normalized_laplacian(g)), np.sort(g.degrees)
    )


def estimate_spectrum(
    estimator: Estimator, f1: FactorSpectra, f2: FactorSpectra, ordering: Ordering
) -> np.ndarray:
    """The n1*n2 estimated product eigenvalues of one estimator, unsorted."""
    if estimator == Estimator.SAYAMA_LAPLACIAN:
        basis1, basis2, combine = f1.laplacian, f2.laplacian, sayama_spectrum
    else:
        basis1, basis2, combine = f1.normalized, f2.normalized, normalized_estimate
    return combine(basis1.eigenvalues, f1.degrees, basis2.eigenvalues, f2.degrees, ordering)


_spectra: dict[str, np.ndarray] = {}  # least recently used first


def product_spectrum(op: KroneckerLaplacian) -> np.ndarray:
    """Ascending exact eigenvalues of the product Laplacian, read-only.

    A process solves each distinct product once: the spectrum is kept under
    a SHA-256 of the factor arrays, so a repeated product (the same seeded
    pair under another ordering) skips both the N x N build and the solve.
    The factor order is part of the key.
    """
    digest = sha256()
    for part in (op.degrees1, op.degrees2, op.adjacency1, op.adjacency2):
        digest.update(f"{part.dtype.str}{part.shape}".encode())
        digest.update(part.tobytes())
    key = digest.hexdigest()
    spectrum = _spectra.pop(key, None)
    if spectrum is None:
        spectrum = sym_eigenvalues(op.dense())
        spectrum.setflags(write=False)
    _spectra[key] = spectrum
    if len(_spectra) > SPECTRUM_CACHE_ENTRIES:
        _spectra.pop(next(iter(_spectra)))
    return spectrum


def run_single(config: ExperimentConfig, run_index: int) -> RunRecord:
    """Generate one factor pair and measure both estimators against the truth."""
    started = time.perf_counter()
    spec1, spec2 = config.run_specs(run_index)
    try:
        g1, g2 = generate_connected_pair(spec1, spec2)
    except Exception as exc:
        raise RuntimeError(f"run {run_index}: factor generation failed") from exc

    f1, f2 = factor_spectra(g1), factor_spectra(g2)
    op = KroneckerLaplacian.of(g1, g2)
    actual = product_spectrum(op)
    errors = {
        estimator: percentage_errors(
            estimate_spectrum(estimator, f1, f2, resolve_ordering(config, estimator, run_index)),
            actual,
        )
        for estimator in config.estimators
    }

    correlations = None
    if config.compute_correlations:
        # each basis name in BASES is also the FactorSpectra field holding that basis
        correlations = {
            basis: correlation_profile(
                op, getattr(f1, basis).eigenvectors, getattr(f2, basis).eigenvectors
            )
            for basis in BASES
        }

    return RunRecord(
        run_index=run_index,
        factor_seeds=(spec1.seed, spec2.seed),
        achieved_densities=(edge_density(g1), edge_density(g2)),
        errors=errors,
        correlations=correlations,
        wall_time=time.perf_counter() - started,
    )


@dataclass
class ExperimentBundle:
    """In-memory results of one experiment plus paths of anything written."""

    config: ExperimentConfig
    records: list[RunRecord]
    error_profiles: dict[Estimator, ErrorProfile]
    density_curves: dict[str, DensityCurve | None]
    correlation_samples: dict[str, np.ndarray]  # (runs, pairs) per basis
    files: dict[str, str] = field(default_factory=dict)


def run_experiment(config: ExperimentConfig) -> ExperimentBundle:
    """Execute all runs, aggregate, and (if output_dir is set) write reports."""
    records = [run_single(config, i) for i in range(config.runs)]

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


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(dest: str | Path | IO[str], note: str, header: str, rows: Iterable[str]) -> None:
    """Write one report table: ``# kronspec=<version> <note>``, the header, then the rows.

    Each row is one formatted CSV line without its newline. ``dest`` is a
    path or an open text stream.
    """
    lines = (f"{line}\n" for line in chain([f"# kronspec={_version()} {note}", header], rows))
    if hasattr(dest, "write"):
        dest.writelines(lines)
    else:
        with open(dest, "w") as fh:
            fh.writelines(lines)


def _error_table(profile: ErrorProfile) -> tuple[str, Iterable[str]]:
    meta = profile.meta
    tail = (
        f"{meta['estimator']},{meta['ordering']},{meta['model']},{_fmt(meta['density'])},"
        f"{meta['n1']},{meta['n2']},{meta['runs']}"
    )
    rows = (
        f"{rank},{_fmt(profile.median[k])},{_fmt(profile.p5[k])},{_fmt(profile.p95[k])},{tail}"
        for k, rank in enumerate(profile.ranks)
    )
    return "rank,median,p5,p95,estimator,ordering,model,density,n1,n2,runs", rows


def _density_table(curve: DensityCurve) -> tuple[str, Iterable[str]]:
    meta = curve.meta
    tail = (
        f"{_fmt(curve.bandwidth)},{meta['basis']},{meta['ordering']},{meta['model']},"
        f"{_fmt(meta['density'])},{meta['n1']},{meta['n2']},{meta['runs']}"
    )
    rows = (
        f"{_fmt(curve.grid[k])},{_fmt(curve.density[k])},{tail}" for k in range(len(curve.grid))
    )
    return "grid,density,bandwidth,basis,ordering,model,density_target,n1,n2,runs", rows


def _runs_table(records: list[RunRecord]) -> tuple[str, Iterable[str]]:
    rows = (
        f"{r.run_index},{r.factor_seeds[0]},{r.factor_seeds[1]},"
        f"{_fmt(r.achieved_densities[0])},{_fmt(r.achieved_densities[1])}"
        for r in records
    )
    return "run,factor_seed1,factor_seed2,achieved_density1,achieved_density2", rows


def _tables(bundle: ExperimentBundle):
    """(kind, label, header, rows) of each error profile and density curve of a bundle."""
    for estimator, profile in bundle.error_profiles.items():
        yield ("error_profile", estimator.value, *_error_table(profile))
    for basis, curve in bundle.density_curves.items():
        if curve is not None:
            yield ("density_curve", basis, *_density_table(curve))


_BUNDLE_NAMES = {"error_profile": "errors_{}.csv", "density_curve": "correlation_density_{}.csv"}


def write_bundle(bundle: ExperimentBundle, output_dir: str) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config_hash = bundle.config.config_hash()
    note = f"config={config_hash}"
    files: dict[str, str] = {}

    for kind, label, header, rows in _tables(bundle):
        name = _BUNDLE_NAMES[kind].format(label)
        write_csv(out / name, note, header, rows)
        files[f"{kind}/{label}"] = name
    write_csv(out / "runs.csv", note, *_runs_table(bundle.records))
    files["runs"] = "runs.csv"

    config_dict = bundle.config.to_dict()
    config_dict.pop("output_dir")  # the manifest sits inside it already
    manifest = {
        "version": _version(),
        "config": config_dict,
        "config_hash": config_hash,
        "files": files,
    }
    _write_json(out / "manifest.json", manifest)
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
    panel_kind = "density_curve" if kind == "kde" else "error_profile"
    runs = runs_override if runs_override is not None else (5 if kind == "kde" else 100)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    panels: dict[str, str] = {}
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
        for table_kind, label, header, rows in _tables(bundle):
            if table_kind != panel_kind:
                continue
            name = f"{figure_id}_{tag}_{label}.csv"
            write_csv(out / name, f"config={config.config_hash()}", header, rows)
            panels[f"{tag}/{label}"] = name

    manifest = {"figure": figure_id, "version": _version(), "panels": panels}
    _write_json(out / f"{figure_id}_manifest.json", manifest)
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
        _write_json(out / "theory_report.json", report)
    return report
