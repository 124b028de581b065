"""Experiment orchestration: seeded runs, aggregation, and report bundles.

One run generates a connected factor pair and measures it with
:func:`measure_pair`: factor spectra and the exact product-Laplacian spectrum
from :mod:`kronspec.spectral` (which makes every solve decision), each
estimator's pairing and estimate, and the correlation profiles. The CLI
``estimate`` command measures its two edge lists with the same function. A
full experiment repeats this over per-run seeds derived from a master seed and
aggregates percentage-error profiles and correlation-coefficient densities. A
reference figure (:func:`reproduce_figure`) is one such experiment per panel,
each written as a report bundle by :func:`write_bundle`.

Everything written to disk is a pure function of the config: per-run seeds
come from (master_seed, run index, role), and every table or JSON report goes
through one writer, :func:`write_csv` or :func:`_write_json`, which stamps it.
"""

from __future__ import annotations

import functools
import json
import subprocess
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields
from hashlib import sha256
from itertools import chain, repeat
from pathlib import Path
from typing import IO

import numpy as np

from .estimators import Estimator, Ordering, estimate_spectrum, ordering_label, resolve_ordering
from .generators import (
    DEFAULT_WS_BETA,
    GeneratorSpec,
    bipartite_for_every_seed,
    derive_seed,
    generate_connected_pair,
    regular_for_every_seed,
)
from .graphs import (
    MAX_ORDER, Graph, InputError, KroneckerLaplacian, _as_float, _as_int, _as_member, edge_density,
)
from .metrics import (
    DensityCurve,
    ErrorProfile,
    aggregate_profile,
    correlation_profile,
    kde,
    percentage_errors,
)
from .spectral import MAX_DENSE_ORDER, factor_spectra, product_spectrum

BASES = ("laplacian", "normalized")
MAX_RUNS = 10_000  # the most runs a config may ask for; a reference error-band panel takes 100


@functools.cache
def version_string() -> str:
    """git-describe of the working tree, falling back to the package version.

    Computed once per process, so every report a process writes carries the same stamp.
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


def _of_type(key: str, value, types, what: str):
    """``value`` if it is an instance of ``types``; an InputError naming ``key`` otherwise."""
    if not isinstance(value, types):
        raise InputError(f"{key} must be {what}, got {value!r}")
    return value


def _from_mapping(cls, name: str, data):
    """Dataclass ``cls`` from a JSON object, whose ``__post_init__`` checks each field.

    Absent keys take the field defaults. Input that is not a mapping, has
    keys ``cls`` lacks, or lacks a key without a default is an InputError
    naming ``name`` or the keys.
    """
    if not isinstance(data, Mapping):
        raise InputError(f"{name} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise InputError(f"unknown {name} keys: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise InputError(f"missing {name} keys: {', '.join(missing)}")
    return cls(**data)


# each config field's type rule, called as f(key, value) by ExperimentConfig.__post_init__
# on every config, built in Python or loaded from JSON; Ordering checks its own fields
_ARRAY = (list, tuple)  # to_dict gives tuples
_COERCE = {
    "orders": lambda k, v: tuple(
        _as_int(k, n, 2, MAX_ORDER) for n in _of_type(k, v, _ARRAY, "an array")
    ),
    "density": _as_float,
    "runs": lambda k, v: _as_int(k, v, 1, MAX_RUNS),
    "estimators": lambda k, v: tuple(
        _as_member(k, e, Estimator) for e in _of_type(k, v, _ARRAY, "an array")
    ),
    "ordering": lambda k, v: (
        v if v is None or isinstance(v, Ordering) else _from_mapping(Ordering, k, v)
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

    ``ordering=None`` (the default) gives each estimator the default pairing of
    its ``estimators._RULES`` row, which reproduces the reference error bands. An
    explicit Ordering applies to every estimator, with its one seed in every run.
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
        if len(self.orders) != 2:
            raise InputError(f"orders must have two entries, got {self.orders}")
        if len(set(self.estimators)) != len(self.estimators):
            names = [e.value for e in self.estimators]
            raise InputError(f"estimators must not repeat, got {names}")
        # GeneratorSpec checks model, orders and density as the list is built in full
        specs = [self.factor_spec(n, seed=0) for n in self.orders]
        # a product of bipartite graphs is disconnected
        if all(map(bipartite_for_every_seed, specs)):
            raise InputError(
                f"orders must not give two factors bipartite for every seed, got {self.orders}"
            )
        # a larger product is solved only as the blocks of a regular factor
        regular = any(map(regular_for_every_seed, specs))
        if self.orders[0] * self.orders[1] > MAX_DENSE_ORDER and not regular:
            raise InputError(
                f"orders must have a product of at most {MAX_DENSE_ORDER} unless a factor is "
                f"regular for every seed (CYCLE, or WS with ws_beta 0), got {self.orders}"
            )

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
        equal configs hash equally; a wrong type is an InputError naming its key.
        """
        return _from_mapping(cls, "config", data)

    def identity(self) -> dict:
        """Every field but ``output_dir``, which does not affect the reports: what is hashed."""
        return {k: v for k, v in asdict(self).items() if k != "output_dir"}

    def config_hash(self) -> str:
        return sha256(json.dumps(self.identity(), sort_keys=True).encode()).hexdigest()[:12]


def measure_pair(
    g1: Graph, g2: Graph, estimators, ordering: Ordering | None, seed: int, correlations: bool
) -> tuple[np.ndarray, dict, dict, dict | None]:
    """Measure one factor pair: ``(exact, orderings, estimates, profiles)``.

    The exact product spectrum, ascending; per estimator, its pairing by
    ``resolve_ordering(ordering, estimator, seed)`` and its estimate, unsorted; and
    per basis in :data:`BASES`, the correlation profile if ``correlations``, else None.
    The product comes first, so one past the dense bound fails before any factor solve.
    """
    op = KroneckerLaplacian(g1, g2)
    exact = product_spectrum(op)
    f1, f2 = factor_spectra(g1), factor_spectra(g2)
    orderings = {e: resolve_ordering(ordering, e, seed) for e in estimators}
    estimates = {e: estimate_spectrum(e, f1, f2, o) for e, o in orderings.items()}
    profiles = None
    if correlations:
        # each basis name in BASES is also the FactorSpectra field holding that basis
        bases = ((b, getattr(f1, b).eigenvectors, getattr(f2, b).eigenvectors) for b in BASES)
        profiles = {b: correlation_profile(op, w1, w2) for b, w1, w2 in bases}
    return exact, orderings, estimates, profiles


@dataclass
class RunRecord:
    """Everything measured in one independent run."""

    run_index: int
    factor_seeds: tuple[int, int]
    achieved_densities: tuple[float, float]
    errors: dict[Estimator, np.ndarray]
    correlations: dict[str, np.ndarray] | None  # per basis, in correlation_profile order


def run_single(config: ExperimentConfig, run_index: int) -> RunRecord:
    """Generate one factor pair and measure both estimators against the truth."""
    spec1, spec2 = config.run_specs(run_index)
    try:
        g1, g2 = generate_connected_pair(spec1, spec2)
    except Exception as exc:
        raise RuntimeError(f"run {run_index}: factor generation failed") from exc

    seed = derive_seed(config.master_seed, run_index, "ordering")
    exact, _, estimates, correlations = measure_pair(
        g1, g2, config.estimators, config.ordering, seed, config.compute_correlations
    )
    return RunRecord(
        run_index=run_index,
        factor_seeds=(spec1.seed, spec2.seed),
        achieved_densities=(edge_density(g1), edge_density(g2)),
        errors={e: percentage_errors(x, exact) for e, x in estimates.items()},
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
                # bit-identical samples (e.g. C3 x C3) have no bandwidth: no curve. Regular
                # factors of other orders differ by rounding, so get a ~1e-16 bandwidth curve
                density_curves[basis] = None

    bundle = ExperimentBundle(config, records, error_profiles, density_curves, correlation_samples)
    if config.output_dir is not None:
        write_bundle(bundle)
    return bundle


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------


def _write_json(path: Path, data: dict) -> dict:
    """Write ``data`` stamped with ``"version"`` to ``path``, making its directory; returns
    what it wrote. Every JSON report goes through it, as every table goes through write_csv."""
    stamped = data | {"version": version_string()}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(stamped, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return stamped


def write_csv(dest: str | Path | IO[str], note: str, columns: Mapping[str, object]) -> None:
    """Write one report table: ``# kronspec=<version> <note>``, the column names, then the rows.

    Each value of ``columns`` is a list, tuple, range or array with one cell per
    row, or one value that every row shares. Every cell is written as its
    ``str``, taken of Python values (arrays are read through ``tolist``): a
    float's ``str`` is its shortest round-trip ``repr``, and an integer column
    stays integral whatever its range. Columns of unequal length are a ValueError.
    ``dest`` is a path or an open text stream.
    """
    values = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in columns.items()}
    lengths = {k: len(v) for k, v in values.items() if isinstance(v, (list, tuple, range))}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    n = max(lengths.values(), default=1)
    cells = (map(str, v) if k in lengths else repeat(str(v), n) for k, v in values.items())
    head = [f"# kronspec={version_string()} {note}", ",".join(columns)]
    lines = (f"{line}\n" for line in chain(head, map(",".join, zip(*cells))))
    if hasattr(dest, "write"):
        dest.writelines(lines)
    else:
        with open(dest, "w") as fh:
            fh.writelines(lines)


def _config_columns(config: ExperimentConfig, density: str) -> dict:
    """The model, target density, orders and run count that end every profile and density row."""
    n1, n2 = config.orders
    return {"model": config.model, density: config.density, "n1": n1, "n2": n2, "runs": config.runs}


def write_bundle(bundle: ExperimentBundle) -> None:
    """Write ``bundle``'s tables, then its manifest, to its config's ``output_dir``."""
    config = bundle.config
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)  # for the tables, written before the manifest
    config_hash = config.config_hash()
    # (files key, file name, columns) of every table; error rank r is the r-th nonzero
    # eigenvalue, rank r+1 of the sorted spectrum
    tables = [
        (
            f"error_profile/{e.value}",
            f"errors_{e.value}.csv",
            {"rank": range(1, len(p.median) + 1), "median": p.median, "p5": p.p5, "p95": p.p95}
            | {"estimator": e.value, "ordering": ordering_label(config.ordering, e)}
            | _config_columns(config, "density"),
        )
        for e, p in bundle.error_profiles.items()
    ]
    # orderings play no role here: correlation profiles depend on the bases only
    tables += [
        (
            f"density_curve/{b}",
            f"correlation_density_{b}.csv",
            {"grid": c.grid, "density": c.density, "bandwidth": c.bandwidth, "basis": b}
            | {"ordering": "-"}
            | _config_columns(config, "density_target"),
        )
        for b, c in bundle.density_curves.items()
        if c is not None
    ]
    records = bundle.records
    seed1, seed2 = zip(*(r.factor_seeds for r in records))
    density1, density2 = zip(*(r.achieved_densities for r in records))
    runs = {"run": [r.run_index for r in records], "factor_seed1": seed1, "factor_seed2": seed2}
    runs |= {"achieved_density1": density1, "achieved_density2": density2}
    tables.append(("runs", "runs.csv", runs))
    files: dict[str, str] = {}
    for key, name, columns in tables:
        write_csv(out / name, f"config={config_hash}", columns)
        files[key] = name
    manifest = {"config": config.identity(), "config_hash": config_hash, "files": files}
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
    figure_id: str, output_dir: str, master_seed: int = 1729, runs_override: int | None = None
) -> dict:
    """Run the experiment behind each panel of one figure, each writing its report bundle.

    A density's experiment writes to ``<output_dir>/<tag>`` (e.g. ``WS_30x50_d10``: the tag
    names the target density, the bundle's ``runs.csv`` the achieved ones). ``runs_override``
    shrinks the run counts for smoke tests from the reference 5 (density panels) and 100
    (error panels). Every panel's config is built before the first run, so a bad figure id
    or option is an InputError before any work. Returns the manifest, also written as
    ``<figure_id>_manifest.json``, which maps each panel to its CSV path in ``output_dir``.
    """
    if figure_id not in FIGURES:
        raise InputError(f"unknown figure id {figure_id!r}; expected one of {sorted(FIGURES)}")
    recipe = FIGURES[figure_id]
    kind = recipe["kind"]
    runs = runs_override if runs_override is not None else (5 if kind == "kde" else 100)
    configs = {}
    for density in recipe["densities"]:
        tag = f"{recipe['model']}_{recipe['orders'][0]}x{recipe['orders'][1]}_d{int(density * 100)}"
        configs[tag] = ExperimentConfig(
            model=recipe["model"],
            orders=recipe["orders"],
            density=density,
            runs=runs,
            master_seed=derive_seed(master_seed, figure_id, density),
            output_dir=str(Path(output_dir, tag)),
            compute_correlations=(kind == "kde"),
        )
    panel_kind = "density_curve" if kind == "kde" else "error_profile"
    panels: dict[str, str] = {}
    for tag, config in configs.items():
        for key, path in run_experiment(config).files.items():
            if key.startswith(f"{panel_kind}/"):
                panels[f"{tag}/{key.split('/')[1]}"] = f"{tag}/{Path(path).name}"

    manifest = {"figure": figure_id, "panels": panels}
    return _write_json(Path(output_dir, f"{figure_id}_manifest.json"), manifest)
