"""Experiment orchestration: seeded runs, aggregation, and report bundles.

One run generates a connected factor pair, takes its factor spectra and the
exact product-Laplacian spectrum from :mod:`kronspec.spectral` (which makes
every solve decision), and evaluates both estimators against it
(:func:`estimate_spectrum`); the CLI ``estimate`` command goes through the
same three functions. A full experiment repeats this over per-run seeds
derived from a master seed and aggregates percentage-error profiles and
correlation-coefficient densities. A reference figure (:func:`reproduce_figure`)
is one such experiment per panel, each written as a report bundle by
:func:`write_bundle`.

Everything written to disk is a pure function of the config: per-run seeds
come from (master_seed, run index, role), and every CSV table goes through
the one deterministic writer :func:`write_csv`.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from hashlib import sha256
from itertools import chain
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .estimators import Estimator, Ordering, OrderingKind, normalized_estimate, sayama_spectrum
from .generators import (
    DEFAULT_WS_BETA,
    GeneratorSpec,
    density_to_params,
    derive_seed,
    generate_connected_pair,
)
from .graphs import KroneckerLaplacian, edge_density
from .metrics import (
    DensityCurve,
    ErrorProfile,
    aggregate_profile,
    correlation_profile,
    kde,
    percentage_errors,
)
from .spectral import FactorSpectra, factor_spectra, product_spectrum

BASES = ("laplacian", "normalized")


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


def _of_type(key: str, value, types, what: str):
    """``value`` if it is an instance of ``types``; a ValueError naming ``key`` otherwise."""
    if not isinstance(value, types):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _as_int(key: str, value) -> int:
    """An integral JSON number as an int; a ValueError naming ``key`` otherwise."""
    if not (type(value) is int or _as_float(key, value).is_integer()):  # bools fail in _as_float
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_float(key: str, value) -> float:
    """A finite JSON number as a float; a ValueError naming ``key`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity (json.load reads both), huge ints
        raise ValueError(f"{key} must be finite, got {value!r}")
    return float(value)


def _from_mapping(cls, name: str, data, coerce: dict):
    """Dataclass ``cls`` from a JSON object; ``coerce[key](key, value)`` gives each field.

    Absent keys take the field defaults. Input that is not a mapping, or
    that has keys ``cls`` lacks, is a ValueError naming ``name`` or the keys.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{name} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {name} keys: {', '.join(unknown)}")
    return cls(**{key: coerce[key](key, v) if key in coerce else v for key, v in data.items()})


# each config field's type rule, called as f(key, value) by ExperimentConfig.__post_init__
# on every config, built in Python or loaded from JSON; Ordering turns kind names into members
_ORDERING = {
    "randomization_seed": _as_int,
    "swap_count": lambda k, v: None if v is None else _as_int(k, v),
}
_ARRAY = (list, tuple)  # to_dict gives tuples
_COERCE = {
    "orders": lambda k, v: tuple(_as_int(k, n) for n in _of_type(k, v, _ARRAY, "an array")),
    "density": _as_float,
    "runs": _as_int,
    "estimators": lambda k, v: tuple(Estimator(e) for e in _of_type(k, v, _ARRAY, "an array")),
    "ordering": lambda k, v: (
        v if v is None or isinstance(v, Ordering) else _from_mapping(Ordering, k, v, _ORDERING)
    ),
    "master_seed": _as_int,
    "output_dir": lambda k, v: None if v is None else _of_type(k, v, str, "a string or null"),
    "ws_beta": _as_float,
    "compute_correlations": lambda k, v: _of_type(k, v, bool, "true or false"),
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
        for key, coerce in _COERCE.items():
            object.__setattr__(self, key, coerce(key, getattr(self, key)))
        if self.runs < 1:
            raise ValueError("run count must be positive")
        if len(self.orders) != 2:
            raise ValueError(f"orders must have two entries, got {self.orders}")
        # GeneratorSpec checks model and orders, density_to_params the density
        for n in self.orders:
            density_to_params(self.factor_spec(n, seed=0))

    def factor_spec(self, n: int, seed: int) -> GeneratorSpec:
        return GeneratorSpec(
            model=self.model, n=n, target_density=self.density, seed=seed, ws_beta=self.ws_beta
        )

    def run_specs(self, run_index: int) -> tuple[GeneratorSpec, GeneratorSpec]:
        n1, n2 = self.orders
        return (
            self.factor_spec(n1, derive_seed(self.master_seed, run_index, "factor1")),
            self.factor_spec(n2, derive_seed(self.master_seed, run_index, "factor2")),
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`; absent keys take the field defaults.

        ``__post_init__`` gives a number its field's type (``"density": 1`` becomes 1.0), so
        equal configs hash equally; a wrong type is a ValueError naming its key.
        """
        return _from_mapping(cls, "config", data, {})

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
    """The ``ordering`` column of one estimator's error table."""
    kind = resolve_ordering(config, estimator, 0).kind
    if config.ordering is None and kind == OrderingKind.UNCORRELATED:
        return f"{kind.value}[per-run seed]"
    return kind.value


def estimate_spectrum(
    estimator: Estimator, f1: FactorSpectra, f2: FactorSpectra, ordering: Ordering
) -> np.ndarray:
    """The n1*n2 estimated product eigenvalues of one estimator, unsorted."""
    if estimator == Estimator.SAYAMA_LAPLACIAN:
        basis1, basis2, combine = f1.laplacian, f2.laplacian, sayama_spectrum
    else:
        basis1, basis2, combine = f1.normalized, f2.normalized, normalized_estimate
    return combine(basis1.eigenvalues, f1.degrees, basis2.eigenvalues, f2.degrees, ordering)


def run_single(config: ExperimentConfig, run_index: int) -> RunRecord:
    """Generate one factor pair and measure both estimators against the truth."""
    spec1, spec2 = config.run_specs(run_index)
    try:
        g1, g2 = generate_connected_pair(spec1, spec2)
    except Exception as exc:
        raise RuntimeError(f"run {run_index}: factor generation failed") from exc

    f1, f2 = factor_spectra(g1), factor_spectra(g2)
    op = KroneckerLaplacian(g1, g2)
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
    error_profiles = {
        estimator: aggregate_profile([r.errors[estimator] for r in records])
        for estimator in config.estimators
    }

    density_curves: dict[str, DensityCurve | None] = {}
    correlation_samples: dict[str, np.ndarray] = {}
    if config.compute_correlations:
        for basis in BASES:
            matrix = np.vstack([r.correlations[basis] for r in records])
            correlation_samples[basis] = matrix
            try:
                density_curves[basis] = kde(matrix.ravel())
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


def _config_columns(config: ExperimentConfig) -> str:
    """The ``model,density,n1,n2,runs`` columns that end every profile and density row."""
    n1, n2 = config.orders
    return f"{config.model},{_fmt(config.density)},{n1},{n2},{config.runs}"


def _error_table(
    profile: ErrorProfile, config: ExperimentConfig, estimator: Estimator
) -> tuple[str, Iterable[str]]:
    tail = f"{estimator.value},{ordering_label(config, estimator)},{_config_columns(config)}"
    rows = (
        f"{k + 1},{_fmt(profile.median[k])},{_fmt(profile.p5[k])},{_fmt(profile.p95[k])},{tail}"
        for k in range(len(profile.median))
    )
    return "rank,median,p5,p95,estimator,ordering,model,density,n1,n2,runs", rows


def _density_table(
    curve: DensityCurve, config: ExperimentConfig, basis: str
) -> tuple[str, Iterable[str]]:
    # orderings play no role here: correlation profiles depend on the bases only
    tail = f"{_fmt(curve.bandwidth)},{basis},-,{_config_columns(config)}"
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


def write_bundle(bundle: ExperimentBundle, output_dir: str) -> None:
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = bundle.config
    config_hash = config.config_hash()
    # (files key, file name, (header, rows)) of every table
    tables = [
        (f"error_profile/{e.value}", f"errors_{e.value}.csv", _error_table(p, config, e))
        for e, p in bundle.error_profiles.items()
    ]
    tables += [
        (f"density_curve/{b}", f"correlation_density_{b}.csv", _density_table(c, config, b))
        for b, c in bundle.density_curves.items()
        if c is not None
    ]
    tables.append(("runs", "runs.csv", _runs_table(bundle.records)))
    files: dict[str, str] = {}
    for key, name, (header, rows) in tables:
        write_csv(out / name, f"config={config_hash}", header, rows)
        files[key] = name

    config_dict = config.to_dict()
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
    """Run the configuration grid behind one figure as one report bundle per panel.

    Each density's experiment writes its bundle to ``<output_dir>/<tag>``
    (e.g. ``WS_30x50_d10``: the tag names the target density, the bundle's
    ``runs.csv`` the achieved ones). Returns the manifest, also written as
    ``<figure_id>_manifest.json``, which maps each panel to its CSV path
    relative to ``output_dir``. ``runs_override`` shrinks the run counts for
    smoke tests from the reference 5 (density panels) and 100 (error panels).
    """
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}; expected one of {sorted(FIGURES)}")
    recipe = FIGURES[figure_id]
    kind = recipe["kind"]
    panel_kind = "density_curve" if kind == "kde" else "error_profile"
    runs = runs_override if runs_override is not None else (5 if kind == "kde" else 100)

    panels: dict[str, str] = {}
    for density in recipe["densities"]:
        tag = f"{recipe['model']}_{recipe['orders'][0]}x{recipe['orders'][1]}_d{int(density * 100)}"
        config = ExperimentConfig(
            model=recipe["model"],
            orders=recipe["orders"],
            density=density,
            runs=runs,
            master_seed=derive_seed(master_seed, figure_id, density),
            output_dir=str(Path(output_dir, tag)),
            compute_correlations=(kind == "kde"),
        )
        for key, path in run_experiment(config).files.items():
            if key.startswith(f"{panel_kind}/"):
                panels[f"{tag}/{key.split('/')[1]}"] = f"{tag}/{Path(path).name}"

    manifest = {"figure": figure_id, "version": _version(), "panels": panels}
    _write_json(Path(output_dir, f"{figure_id}_manifest.json"), manifest)
    return manifest


def theory_suite(
    output_dir: str | None = None,
    seed: int = 12345,
    er_draws: int = 100,
    graph_count: int = 1000,
) -> dict:
    """Run every closed-form/bound/Monte-Carlo check and report pass/fail.

    Returns the report dict; also writes theory_report.json when an output
    directory is given.
    """
    from . import checks

    # the two checks sized by the arguments run first, so bad sizes fail before any solve
    report = {
        "er_r1j_monte_carlo": checks.er_r1j_monte_carlo(draws=er_draws, seed=seed),
        "sayama_nonnegativity": checks.sayama_nonnegativity_sweep(
            graph_count=graph_count, seed=seed
        ),
        "mean_rms_closed_forms": checks.closed_form_mean_rms(),
        "staircase_limit": checks.staircase_limit(),
        "asymptotic_inequality_grid": checks.asymptotic_inequality_grid(),
        "expected_r1j_grid": checks.expected_r1j_grid(),
        "expected_spectrum_small": checks.expected_spectrum_gap(5, 7),
        "expected_spectrum_desk": checks.expected_spectrum_gap(30, 50),
        "r1j_closed_form": checks.r1j_closed_form_gap(seed=seed),
        "colinearity": checks.colinearity_residual(seed=seed),
        "normalized_decomposition": checks.normalized_decomposition_gaps(seed=seed),
        "rprime_lower_bound": checks.rprime_bound_slack(seed=seed),
    }
    report["all_pass"] = all(entry["pass"] for entry in report.values())
    report["version"] = _version()
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "theory_report.json", report)
    return report
