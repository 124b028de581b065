"""Experiment orchestration: determinism, debug model, reports, figures."""

import csv
import io
import json
import subprocess
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from kronspec import checks, experiments, spectral
from kronspec.checks import theory_suite
from kronspec.estimators import Estimator, Ordering, OrderingKind, ordering_label, resolve_ordering
from kronspec.experiments import (
    ExperimentConfig,
    FIGURES,
    reproduce_figure,
    run_experiment,
    run_single,
)
from kronspec.generators import GenerationError, generate_connected_pair
from kronspec.graphs import KroneckerLaplacian, cycle_graph
from kronspec.spectral import product_spectrum
from toolkit import dense_laplacian, fresh_peak_bytes, run_fresh


ER_SMALL = {"model": "ER", "orders": (10, 12), "density": 0.4}


def cycle_config(**overrides):
    base = dict(
        model="CYCLE",
        orders=(9, 7),
        density=0.5,
        runs=2,
        master_seed=5,
        compute_correlations=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def er_op(seed, orders=(10, 12)):
    config = ExperimentConfig(model="ER", orders=orders, density=0.4, master_seed=seed)
    return KroneckerLaplacian(*generate_connected_pair(*config.run_specs(0)))


@pytest.fixture
def product_solves(monkeypatch):
    """Start from an empty spectrum cache and record the order of every product solve."""
    solved = []
    solve = spectral.owned_eigenvalues
    monkeypatch.setattr(
        spectral, "owned_eigenvalues", lambda m: solved.append(m.shape[0]) or solve(m)
    )
    spectral._spectra.clear()
    yield solved
    spectral._spectra.clear()


def test_cycle_debug_model_gives_zero_errors():
    # regular factors: both estimators are exact, so the profile is flat zero
    bundle = run_experiment(cycle_config(runs=1))
    for profile in bundle.error_profiles.values():
        assert np.abs(profile.median).max() <= 1e-7
        assert np.abs(profile.p95).max() <= 1e-7


def test_run_single_record_shape():
    record = run_single(cycle_config(), 0)
    n_pairs = 9 * 7 - 1
    for errors in record.errors.values():
        assert errors.shape == (n_pairs,)
    assert record.correlations is not None
    assert record.correlations["laplacian"].shape == (n_pairs,)


def test_experiment_is_deterministic_bytewise(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        spectral._spectra.clear()  # both runs solve their products afresh
        run_experiment(cycle_config(output_dir=str(out)))
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_master_seed_changes_results():
    a = run_experiment(cycle_config(model="ER", orders=(10, 12), density=0.4, master_seed=1))
    b = run_experiment(cycle_config(model="ER", orders=(10, 12), density=0.4, master_seed=2))
    est = Estimator.SAYAMA_LAPLACIAN
    assert not np.allclose(a.error_profiles[est].median, b.error_profiles[est].median)


def test_er_small_bundle_contents(tmp_path):
    config = ExperimentConfig(
        model="ER",
        orders=(10, 12),
        density=0.4,
        runs=3,
        master_seed=7,
        output_dir=str(tmp_path / "out"),
    )
    bundle = run_experiment(config)
    assert [r.run_index for r in bundle.records] == [0, 1, 2]
    assert set(bundle.error_profiles) == set(config.estimators)
    assert bundle.correlation_samples["laplacian"].shape == (3, 119)
    assert bundle.density_curves["normalized"] is not None
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == config.config_hash()
    for name in manifest["files"].values():
        assert (tmp_path / "out" / name).exists()
    # CSVs carry the version/config comment line
    first = (tmp_path / "out" / "runs.csv").read_text().splitlines()[0]
    assert first.startswith("# kronspec=") and config.config_hash() in first


def test_error_profile_csv_layout(tmp_path):
    config = cycle_config(output_dir=str(tmp_path / "out"), compute_correlations=False)
    run_experiment(config)
    lines = (tmp_path / "out" / "errors_SayamaLaplacian.csv").read_text().splitlines()
    assert lines[1] == "rank,median,p5,p95,estimator,ordering,model,density,n1,n2,runs"
    row = lines[2].split(",")
    assert row[0] == "1" and row[4] == "SayamaLaplacian" and row[6] == "CYCLE"


def test_correlation_density_csv_layout(tmp_path):
    config = ExperimentConfig(
        model="ER", orders=(10, 12), density=0.4, runs=2, output_dir=str(tmp_path / "out")
    )
    run_experiment(config)
    for basis in ("laplacian", "normalized"):
        lines = (tmp_path / "out" / f"correlation_density_{basis}.csv").read_text().splitlines()
        assert lines[1] == "grid,density,bandwidth,basis,ordering,model,density_target,n1,n2,runs"
        assert len(lines) == 2 + 512
        for line in lines[2:]:
            assert line.split(",", 3)[3] == f"{basis},-,ER,0.4,10,12,2"


def read_columns(path):
    """A report table read back with ``csv``: column name -> cells, below the comment line."""
    with open(path, newline="") as fh:
        next(fh)
        header, *rows = csv.reader(fh)
    return dict(zip(header, map(list, zip(*rows))))


def test_report_cells_round_trip(tmp_path):
    config = ExperimentConfig(
        model="ER", orders=(12, 15), density=0.4, runs=3, master_seed=5, output_dir=str(tmp_path)
    )
    bundle = run_experiment(config)

    def written(values):
        return [repr(float(x)) for x in values]

    # the first factor seeds lie on both sides of 2**63, where a float64 column would round
    seeds = list(zip(*(tuple(s.seed for s in config.run_specs(i)) for i in range(config.runs))))
    assert min(seeds[0]) < 2**63 <= max(seeds[0])
    runs = read_columns(tmp_path / "runs.csv")
    for k in (0, 1):
        assert runs[f"factor_seed{k + 1}"] == [str(seed) for seed in seeds[k]]
        achieved = [r.achieved_densities[k] for r in bundle.records]
        assert runs[f"achieved_density{k + 1}"] == written(achieved)
    for estimator, profile in bundle.error_profiles.items():
        table = read_columns(tmp_path / f"errors_{estimator.value}.csv")
        for key in ("median", "p5", "p95"):
            assert table[key] == written(getattr(profile, key))
        assert table["density"] == written([config.density] * len(profile.median))
    for basis, curve in bundle.density_curves.items():
        table = read_columns(tmp_path / f"correlation_density_{basis}.csv")
        assert table["grid"] == written(curve.grid)
        assert table["density"] == written(curve.density)
        assert table["bandwidth"] == written([curve.bandwidth] * len(curve.grid))
        assert table["density_target"] == written([config.density] * len(curve.grid))


def test_write_csv_repeats_shared_values_and_rejects_ragged_columns():
    out = io.StringIO()
    columns = {
        "k": range(1, 4),
        "x": np.array([0.1, 2.0, 1e300]),
        "seed": np.array([2**64 - 1, 0, 2**63], dtype=np.uint64),
        "tag": "a",
        "h": np.float64(0.5),
    }
    experiments.write_csv(out, "note", columns)
    assert out.getvalue().splitlines() == [
        f"# kronspec={experiments.version_string()} note",
        "k,x,seed,tag,h",
        "1,0.1,18446744073709551615,a,0.5",
        "2,2.0,0,a,0.5",
        "3,1e+300,9223372036854775808,a,0.5",
    ]
    with pytest.raises(ValueError, match="length"):
        experiments.write_csv(io.StringIO(), "note", {"a": [1, 2], "tag": "a", "b": np.zeros(3)})


def test_per_estimator_ordering_defaults():
    sayama = resolve_ordering(None, Estimator.SAYAMA_LAPLACIAN, seed=7)
    assert sayama == Ordering(kind=OrderingKind.CORRELATED)
    norm = resolve_ordering(None, Estimator.NORMALIZED_LAPLACIAN, seed=7)
    assert norm == Ordering(kind=OrderingKind.UNCORRELATED, randomization_seed=7)
    explicit = Ordering(kind=OrderingKind.ANTI_CORRELATED)
    for estimator in Estimator:
        assert resolve_ordering(explicit, estimator, seed=7) is explicit


def test_run_single_seeds_the_default_pairing_per_run(monkeypatch):
    seeds = []

    def recording(ordering, estimator, seed):
        seeds.append(seed)
        return resolve_ordering(ordering, estimator, seed)

    monkeypatch.setattr(experiments, "resolve_ordering", recording)
    config = cycle_config(compute_correlations=False)
    for run_index in (0, 1):
        run_single(config, run_index)
    # one seed per run, shared by both estimators
    assert seeds[0] == seeds[1] != seeds[2] == seeds[3]


def test_config_json_round_trip():
    config = ExperimentConfig(
        model="WS",
        orders=(30, 50),
        density=0.3,
        runs=4,
        ordering=Ordering(kind=OrderingKind.CORRELATED_RANDOMIZED, randomization_seed=3),
        master_seed=11,
        ws_beta=0.2,
        compute_correlations=False,
    )
    back = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert back == config
    assert back.config_hash() == config.config_hash()
    default = ExperimentConfig.from_dict({"model": "ER", "orders": [10, 12], "density": 0.4})
    assert default.ordering is None
    assert default == ExperimentConfig(model="ER", orders=(10, 12), density=0.4)
    # JSON spellings of the same values load to the same config and hash
    spelled = ExperimentConfig.from_dict(
        {"model": "CYCLE", "orders": [9.0, 7.0], "density": 1, "runs": 2.0, "ws_beta": 0}
    )
    typed = ExperimentConfig(model="CYCLE", orders=(9, 7), density=1.0, runs=2, ws_beta=0.0)
    assert spelled == typed
    assert json.dumps(spelled.to_dict()) == json.dumps(typed.to_dict())


def test_config_hash_is_pinned():
    # written reports are stamped with these hashes, so a change to how
    # configs are serialised must leave every existing hash as it is
    er = ExperimentConfig.from_dict({"model": "ER", "orders": [30, 50], "density": 0.1})
    assert er.config_hash() == "e824d08367cc"
    ws = ExperimentConfig.from_dict(
        {
            "model": "WS",
            "orders": [12, 15],
            "density": 0.3,
            "runs": 2,
            "master_seed": 5,
            "ordering": {"kind": "CorrelatedRandomized", "randomization_seed": 3},
            "compute_correlations": False,
        }
    )
    assert ws.config_hash() == "c64167fd1f2c"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model="ER", orders=(30, 50), density=0.3, runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model="XX", orders=(30, 50), density=0.3)
    with pytest.raises(ValueError):
        # infeasible WS density at this order
        ExperimentConfig(model="WS", orders=(30, 50), density=0.02)
    with pytest.raises(ValueError, match="infeasible for WS at order 12"):
        # ... and at the second order only
        ExperimentConfig(model="WS", orders=(50, 12), density=0.05)
    with pytest.raises(ValueError, match="order"):
        ExperimentConfig(model="ER", orders=(10.5, 12), density=0.4)
    er = {"model": "ER", "density": 0.4}
    with pytest.raises(ValueError, match="orders"):
        ExperimentConfig.from_dict({**er, "orders": [10.5, 12]})
    with pytest.raises(ValueError, match="runs"):
        ExperimentConfig.from_dict({**er, "orders": [10, 12], "runs": 2.7})
    with pytest.raises(ValueError, match="swap_count"):
        ExperimentConfig.from_dict(
            {
                **er,
                "orders": [10, 12],
                "ordering": {"kind": "CorrelatedRandomized", "swap_count": 1.5},
            }
        )


def test_numpy_integer_ordering_seed_hashes_like_an_int():
    # a numpy seed is stored as an int, so the config hash is computed, and equals the plain one
    configs = [
        ExperimentConfig(
            **ER_SMALL, ordering=Ordering(OrderingKind.UNCORRELATED, randomization_seed=seed)
        )
        for seed in (np.int64(3), 3)
    ]
    assert type(configs[0].ordering.randomization_seed) is int
    assert configs[0].config_hash() == configs[1].config_hash()


@pytest.mark.parametrize(
    "extra", [{"orders": (np.int64(10), 12)}, {"runs": np.int64(3)}, {"master_seed": np.int64(5)}]
)
def test_config_accepts_numpy_integers(extra):
    config = ExperimentConfig(**{**ER_SMALL, **extra})
    assert config == ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))


def test_ordering_labels():
    # no ordering: each estimator's default pairing, marked when it draws on the run's seed
    assert ordering_label(None, Estimator.SAYAMA_LAPLACIAN) == "Correlated"
    assert ordering_label(None, Estimator.NORMALIZED_LAPLACIAN) == "Uncorrelated[per-run seed]"
    for estimator in Estimator:
        assert ordering_label(Ordering(OrderingKind.ANTI_CORRELATED), estimator) == "AntiCorrelated"


def test_enum_names_become_members(tmp_path):
    # names given as plain strings are converted where the config is built ...
    config = cycle_config(
        runs=1,
        estimators=("SayamaLaplacian",),
        ordering=Ordering(kind="Correlated"),
        output_dir=str(tmp_path),
    )
    assert config.estimators == (Estimator.SAYAMA_LAPLACIAN,)
    assert config.ordering.kind is OrderingKind.CORRELATED
    bundle = run_experiment(config)
    assert "error_profile/SayamaLaplacian" in bundle.files
    assert ",SayamaLaplacian,Correlated," in (tmp_path / "errors_SayamaLaplacian.csv").read_text()
    # ... and unknown names fail there, with the same message from Python and JSON
    with pytest.raises(ValueError, match="estimators must be one of .*, got 'Bogus'"):
        cycle_config(estimators=("Bogus",))
    with pytest.raises(ValueError, match="estimators must be one of .*, got 'Bogus'"):
        ExperimentConfig.from_dict({**cycle_config().to_dict(), "estimators": ["Bogus"]})
    with pytest.raises(ValueError, match="kind must be one of .*, got 'Bogus'"):
        ExperimentConfig.from_dict({**cycle_config().to_dict(), "ordering": {"kind": "Bogus"}})


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: run, sede"):
        ExperimentConfig.from_dict(
            {"model": "ER", "orders": [10, 12], "density": 0.4, "run": 5, "sede": 1}
        )


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"compute_correlations": "false"}, "compute_correlations"),
        ({"ordering": {"kind": "Correlated", "swap": 3}}, "swap"),
        ({"ordering": "Correlated"}, "ordering"),
        ({"density": "0.4"}, "density"),
        ({"ws_beta": "0.1"}, "ws_beta"),
        ({"master_seed": "5"}, "master_seed"),
        ({"runs": "3"}, "runs"),
        ({"runs": True}, "runs"),
        ({"ordering": {"kind": "Correlated", "randomization_seed": "7"}}, "randomization_seed"),
        ({"estimators": "SayamaLaplacian"}, "estimators"),
        ({"orders": "12"}, "orders"),
        ({"output_dir": 5}, "output_dir"),
        ({"ordering": {"kind": "Uncorrelated", "randomization_seed": -1}}, "randomization_seed"),
        ({"estimators": ["SayamaLaplacian", "SayamaLaplacian"]}, "estimators"),
        # two even cycles are bipartite, so their product is disconnected
        ({"model": "CYCLE", "orders": [4, 6], "density": 0.5}, "orders"),
        ({"orders": [10, 12, 14]}, "orders"),
        # two factors bipartite for every seed: BA trees (m_attach = 1), WS even rings
        # (ring degree 2, no rewiring) and K2
        ({"model": "BA", "orders": [30, 50], "density": 0.05}, "orders"),
        ({"model": "WS", "orders": [30, 50], "density": 0.05, "ws_beta": 0.0}, "orders"),
        ({"model": "ER", "orders": [2, 2], "density": 0.5}, "orders"),
        # an unknown enum value names its key
        ({"estimators": ["Bogus"]}, "estimators"),
        ({"ordering": {"kind": "Bogus"}}, "kind"),
    ],
)
def test_config_rejects_malformed_values(extra, key):
    # a wrongly typed value fails where the config is built, from JSON or from Python,
    # naming its key
    er = {"model": "ER", "orders": [10, 12], "density": 0.4}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict({**er, **extra})
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{**er, **extra})


@pytest.mark.parametrize(
    "literal", ["NaN", "Infinity", "-Infinity", pytest.param("9" * 400, id="huge-int")]
)
@pytest.mark.parametrize("key", ["density", "ws_beta"])
def test_config_rejects_non_finite_numbers(literal, key):
    # json.load reads these literals, and CYCLE ignores both knobs, so only the config
    # check keeps them out of manifest.json (strict JSON has no NaN) and every CSV; an
    # integer beyond the float range has no finite float to become
    text = f'{{"model": "CYCLE", "orders": [9, 7], "density": 0.5, "{key}": {literal}}}'
    data = json.loads(text)
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        ExperimentConfig.from_dict(data)
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        ExperimentConfig(**data)


def test_config_accepts_an_odd_ring():
    # C31 is not bipartite, so its product with the even ring C50 is connected
    config = ExperimentConfig(
        model="WS", orders=(31, 50), density=0.05, ws_beta=0.0, runs=1,
        compute_correlations=False,
    )
    assert run_single(config, 0).achieved_densities == (2 / 30, 2 / 49)


def test_degenerate_correlation_samples_get_no_density_curve(tmp_path):
    # every cosine of C3 x C3 is exactly equal, so no bandwidth exists; CYCLE samples
    # of other orders are equal only up to rounding and do get a curve
    config = ExperimentConfig(
        model="CYCLE", orders=(3, 3), density=0.5, runs=1, output_dir=str(tmp_path)
    )
    bundle = run_experiment(config)
    assert bundle.density_curves == {"laplacian": None, "normalized": None}
    assert not list(tmp_path.glob("correlation_density_*.csv"))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert not [key for key in manifest["files"] if key.startswith("density_curve/")]


def test_generation_failure_names_run(monkeypatch):
    def fail(spec1, spec2):
        raise GenerationError("no connected pair")

    monkeypatch.setattr(experiments, "generate_connected_pair", fail)
    with pytest.raises(RuntimeError, match="run 1: factor generation failed"):
        run_single(cycle_config(), 1)


def test_run_single_redraws_a_bipartite_first_factor():
    # K2 is bipartite for every seed, so when this run's ER(8) factor is drawn
    # bipartite, it is the factor redrawn
    config = ExperimentConfig(model="ER", orders=(8, 2), density=0.3, master_seed=2)
    record = run_single(config, 0)
    assert [errors.shape for errors in record.errors.values()] == [(15,), (15,)]


def test_reproduce_figure_smoke(tmp_path):
    manifest = reproduce_figure("fig2", str(tmp_path), runs_override=1)
    assert len(manifest["panels"]) == 6  # 3 densities x 2 bases
    assert json.loads((tmp_path / "fig2_manifest.json").read_text()) == manifest
    for name in manifest["panels"].values():
        # each panel is a CSV of its experiment's report bundle, inside the figure directory
        assert not Path(name).is_absolute()
        panel = (tmp_path / name).resolve()
        assert panel.is_relative_to(tmp_path.resolve())
        bundle = json.loads((panel.parent / "manifest.json").read_text())
        comment = panel.read_text().splitlines()[0]
        assert comment.endswith(f" config={bundle['config_hash']}")
        runs = (panel.parent / "runs.csv").read_text().splitlines()
        assert len(runs) - 2 == bundle["config"]["runs"] == 1  # comment, header, one row a run
    with pytest.raises(ValueError):
        reproduce_figure("fig1", str(tmp_path))


def test_figures_cover_reference_grid():
    assert set(FIGURES) == {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
    assert FIGURES["fig3"]["orders"] == (50, 100)
    assert FIGURES["fig4"]["kind"] == "errors"


def test_theory_suite_report(tmp_path):
    report = theory_suite(output_dir=str(tmp_path), seed=3, draws=3, graphs=20)
    written = json.loads((tmp_path / "theory_report.json").read_text())
    assert written["staircase_limit"]["pass"] is True
    assert report["normalized_decomposition"]["pass"] is True
    assert "version" in written
    assert report == written  # the report as written, stamp included
    # the checks take only seeds and the two CLI sizes; this pins the rest
    spectrum = {"probs": [0.3, 1.0], "tolerance": 1e-8}
    assert {name: entry["inputs"] for name, entry in report.items() if isinstance(entry, dict)} == {
        "mean_rms_closed_forms": {
            "cases": ["complete_bipartite_2_4", "star_n5", "triangle_regular"]
        },
        "staircase_limit": {"k": 500, "tolerance": 1e-3},
        "asymptotic_inequality_grid": {"n_max": 500, "p_step": 0.01, "p_count": 99},
        "expected_r1j_grid": {"orders": [30, 50, 100, 200], "densities": [0.1, 0.3, 0.65]},
        "expected_spectrum_small": {"orders": [5, 7], **spectrum},
        "expected_spectrum_desk": {"orders": [30, 50], **spectrum},
        "sayama_nonnegativity": {
            "graph_count": 20, "n_range": [10, 40], "p_range": [0.3, 0.7], "seed": 3
        },
        "er_r1j_monte_carlo": {"draws": 3, "n": 200, "p": 0.3, "seed": 3, "tolerance": 0.02},
        "r1j_closed_form": {"pairs": 20, "seed": 3, "tolerance": 1e-10},
        "colinearity": {"pairs": 20, "seed": 3, "tolerance": 1e-8},
        "normalized_decomposition": {"pairs": 20, "seed": 3, "tolerance": 1e-8},
        "rprime_lower_bound": {"pairs": 50, "seed": 3, "slack_floor": -1e-9},
    }
    assert report["all_pass"] is True
    json.dumps(report, allow_nan=False)


def test_theory_suite_rejects_degenerate_sizes(monkeypatch):
    # bad sizes and a bad seed must fail before any check runs
    def unreachable(*args, **kwargs):
        raise AssertionError("a check ran before the sizes were checked")

    for name in ("er_r1j_monte_carlo", "sayama_nonnegativity_sweep", "expected_spectrum_gap"):
        monkeypatch.setattr(checks, name, unreachable)
    with pytest.raises(ValueError, match="graphs"):
        theory_suite(seed=3, draws=3, graphs=1)
    with pytest.raises(ValueError, match="draws"):
        theory_suite(seed=3, draws=0, graphs=20)
    with pytest.raises(ValueError, match="seed"):
        theory_suite(seed=-1, draws=3, graphs=20)


def test_version_is_computed_once_per_process(monkeypatch, tmp_path):
    calls = []

    def describe(args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="v-test\n")

    monkeypatch.setattr(subprocess, "run", describe)
    experiments.version_string.cache_clear()
    try:
        run_experiment(cycle_config(runs=1, output_dir=str(tmp_path)))
        assert experiments.version_string() == "v-test"
        assert len(calls) == 1 and calls[0][:2] == ["git", "describe"]
        assert "kronspec=v-test" in (tmp_path / "runs.csv").read_text()
    finally:
        experiments.version_string.cache_clear()


def test_every_report_is_stamped_by_its_writer(monkeypatch, tmp_path):
    # write_csv and _write_json read experiments.version_string, so this one patch
    # reaches every CSV and JSON report: bundles, figure manifests and the theory report
    monkeypatch.setattr(experiments, "version_string", lambda: "v-stamp")
    run_experiment(cycle_config(runs=1, output_dir=str(tmp_path / "bundle")))
    figure = reproduce_figure("fig4", str(tmp_path / "fig4"), runs_override=1)
    report = theory_suite(output_dir=str(tmp_path / "theory"), draws=1, graphs=2)
    assert figure["version"] == report["version"] == "v-stamp"
    csvs, reports = sorted(tmp_path.rglob("*.csv")), sorted(tmp_path.rglob("*.json"))
    # the bundle's 5 tables and manifest; 3 tables and a manifest a fig4 panel, and its
    # figure manifest; the theory report
    assert (len(csvs), len(reports)) == (5 + 3 * 3, 1 + 3 + 1 + 1)
    for path in csvs:
        assert path.read_text().startswith("# kronspec=v-stamp "), path
    for path in reports:
        assert json.loads(path.read_text())["version"] == "v-stamp", path


def test_manifest_config_hashes_to_its_config_hash(tmp_path):
    ordering = Ordering(OrderingKind.CORRELATED_RANDOMIZED, randomization_seed=3)
    config = ExperimentConfig(
        model="WS", orders=(8, 9), density=0.5, runs=1, ordering=ordering, ws_beta=0.2,
        compute_correlations=False, output_dir=str(tmp_path),
    )
    run_experiment(config)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    echoed = manifest["config"]
    assert "output_dir" not in echoed and echoed["ws_beta"] == 0.2
    assert echoed["ordering"]["randomization_seed"] == 3
    # the config_hash rule: the sorted JSON of the config's identity, sha256, 12 hex digits
    digest = sha256(json.dumps(echoed, sort_keys=True).encode()).hexdigest()[:12]
    assert digest == manifest["config_hash"] == config.config_hash()
    assert ExperimentConfig.from_dict(echoed).config_hash() == manifest["config_hash"]


def test_orderings_of_one_master_seed_solve_each_product_once(product_solves):
    config = ExperimentConfig(model="ER", orders=(10, 12), density=0.4, runs=3, master_seed=4)
    correlated = ExperimentConfig.from_dict(
        {
            **config.to_dict(),
            "estimators": ["NormalizedLaplacian"],
            "ordering": {"kind": "Correlated"},
        }
    )
    default = run_experiment(config)
    rerun = run_experiment(correlated)
    assert product_solves == [120, 120, 120]
    # the re-run reads the same exact spectra: its factor pairs are the same
    assert [r.factor_seeds for r in rerun.records] == [r.factor_seeds for r in default.records]


def test_product_spectrum_is_read_only_and_bitwise_fresh(product_solves):
    op = er_op(seed=1)
    spectrum = product_spectrum(op)
    reference = dense_laplacian(op.first, op.second)
    assert spectrum.tobytes() == np.linalg.eigvalsh(reference).tobytes()
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 1.0
    assert product_spectrum(er_op(seed=1)) is spectrum
    assert product_solves == [120]


def test_product_spectrum_misses_other_products(product_solves):
    op = er_op(seed=1)
    swapped = KroneckerLaplacian(op.second, op.first)
    for other in (op, er_op(seed=2), swapped, er_op(seed=1, orders=(12, 10))):
        product_spectrum(other)
    assert product_solves == [120] * 4
    assert len(spectral._spectra) == 4


def test_spectrum_cache_bound_evicts_least_recently_used(product_solves, monkeypatch):
    ops = [er_op(seed) for seed in (1, 2, 3)]
    monkeypatch.setattr(spectral, "SPECTRUM_CACHE_ENTRIES", 2)
    product_spectrum(ops[0])
    product_spectrum(ops[1])
    product_spectrum(ops[0])  # hit: ops[1] is now the least recently used
    product_spectrum(ops[2])  # evicts ops[1]
    assert len(spectral._spectra) == 2
    assert product_solves == [120] * 3
    product_spectrum(ops[0])
    assert product_solves == [120] * 3
    product_spectrum(ops[1])
    assert product_solves == [120] * 4


def test_regular_factor_takes_the_block_path(product_solves, monkeypatch):
    er = er_op(seed=1).first
    assert not np.all(er.degrees == er.degrees[0])
    op = KroneckerLaplacian(cycle_graph(9), er)
    reference = np.linalg.eigvalsh(dense_laplacian(op.first, op.second))

    def no_dense(op):
        raise AssertionError("the block path builds no N x N matrix")

    monkeypatch.setattr(spectral, "_product_upper", no_dense)
    spectrum = product_spectrum(op)
    # the cycle's adjacency, then one block per eigenvalue of it
    assert product_solves == [9] + [er.n] * 9
    assert np.abs(spectrum - reference).max() <= 1e-12 * reference[-1]
    assert not spectrum.flags.writeable


def test_product_spectrum_loads_no_scipy():
    # the in-place solve calls the LAPACK numpy links, at every order: no
    # scipy import (28 MB and about 0.2 s) even at the 3500 that once needed it
    code = (
        "import sys\n"
        "from kronspec.spectral import product_spectrum\n"
        "from kronspec.graphs import KroneckerLaplacian\n"
        "from toolkit import er_pair\n"
        "op = KroneckerLaplacian(*er_pair(50, 70, 5, 6, density=0.3))\n"
        "assert product_spectrum(op).shape == (3500,)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_fresh(code) == "[]"


def test_block_spectrum_ignores_blas_thread_count():
    # each block is small (order 100 here), where OpenBLAS rounds eigvalsh
    # the same with one thread as with two; the dense N x N solve does not
    code = (
        "import hashlib\n"
        "from kronspec.spectral import product_spectrum\n"
        "from kronspec.generators import GeneratorSpec, generate_connected\n"
        "from kronspec.graphs import KroneckerLaplacian, cycle_graph\n"
        "g = generate_connected(GeneratorSpec('ER', 100, 0.1, 3))\n"
        "spectrum = product_spectrum(KroneckerLaplacian(g, cycle_graph(201)))\n"
        "print(hashlib.sha256(spectrum.tobytes()).hexdigest())\n"
    )
    digests = [run_fresh(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


ORDER_1500_BYTES = 8 * 1500**2  # one float64 matrix of the desk check's order


def test_desk_expected_spectrum_check_holds_one_product_matrix():
    # the order-1500 normalized Laplacian is built as the upper triangle the
    # solve reads, each row's part of it starting a page, and solved in place,
    # so the check's peak is the triangle's pages and the solve's workspace:
    # 0.74 of the 17.2 MB matrix; eigvalsh's working copy beside it added a
    # whole matrix more.
    setup = "from kronspec import checks\nchecks.expected_spectrum_gap(5, 7)"
    measured = "assert checks.expected_spectrum_gap(30, 50)['pass']"
    assert fresh_peak_bytes(setup, measured) < 0.8 * ORDER_1500_BYTES


def test_theory_suite_peaks_at_the_desk_check():
    # the desk check runs first, so its order-1500 triangle sits on the heap
    # as it is after import; run after the draws and the sweep had grown the
    # heap, it raised the suite's peak by 19.7 MiB (1.15 matrices); 14.4 MiB
    # (0.84) now
    measured = "assert checks.theory_suite()['all_pass']"
    assert fresh_peak_bytes("from kronspec import checks", measured) < 0.9 * ORDER_1500_BYTES
