"""Experiment orchestration: determinism, debug model, reports, figures."""

import json

import numpy as np
import pytest

from kronspec import experiments
from kronspec.estimators import Estimator, Ordering, OrderingKind
from kronspec.experiments import (
    ExperimentConfig,
    FIGURES,
    product_spectrum,
    reproduce_figure,
    resolve_ordering,
    run_experiment,
    run_single,
    theory_suite,
)
from kronspec.generators import generate_connected_pair
from kronspec.graphs import KroneckerLaplacian


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
    return KroneckerLaplacian.of(*generate_connected_pair(*config.run_specs(0)))


@pytest.fixture
def product_solves(monkeypatch):
    """Start from an empty spectrum cache and record the order of every product solve."""
    solved = []
    solve = experiments.sym_eigenvalues
    monkeypatch.setattr(
        experiments, "sym_eigenvalues", lambda m: solved.append(m.shape[0]) or solve(m)
    )
    experiments._spectra.clear()
    yield solved
    experiments._spectra.clear()


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
    assert record.wall_time > 0


def test_experiment_is_deterministic_bytewise(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        experiments._spectra.clear()  # both runs solve their products afresh
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


def test_per_estimator_ordering_defaults():
    config = cycle_config(model="ER", orders=(10, 12), density=0.4)
    sayama = resolve_ordering(config, Estimator.SAYAMA_LAPLACIAN, run_index=0)
    assert sayama.kind == OrderingKind.CORRELATED
    norm0 = resolve_ordering(config, Estimator.NORMALIZED_LAPLACIAN, run_index=0)
    norm1 = resolve_ordering(config, Estimator.NORMALIZED_LAPLACIAN, run_index=1)
    assert norm0.kind == OrderingKind.UNCORRELATED
    assert norm0.randomization_seed != norm1.randomization_seed
    explicit = cycle_config(ordering=Ordering(kind=OrderingKind.ANTI_CORRELATED))
    for estimator in Estimator:
        assert resolve_ordering(explicit, estimator, 0).kind == OrderingKind.ANTI_CORRELATED


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
        {"model": "CYCLE", "orders": [9, 7], "density": 1, "runs": 2.0, "ws_beta": 0}
    )
    typed = ExperimentConfig(model="CYCLE", orders=(9, 7), density=1.0, runs=2, ws_beta=0.0)
    assert spelled == typed
    assert json.dumps(spelled.to_dict()) == json.dumps(typed.to_dict())


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(model="ER", orders=(30, 50), density=0.3, runs=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model="XX", orders=(30, 50), density=0.3)
    with pytest.raises(ValueError):
        # infeasible WS density at this order
        ExperimentConfig(model="WS", orders=(30, 50), density=0.02)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: run, sede"):
        ExperimentConfig.from_dict(
            {"model": "ER", "orders": [10, 12], "density": 0.4, "run": 5, "sede": 1}
        )


def test_generation_failure_names_run():
    config = cycle_config(orders=(6, 8))  # even cycles: bipartite pair, no retry escape
    with pytest.raises(RuntimeError, match="run 0"):
        run_single(config, 0)


def test_reproduce_figure_smoke(tmp_path):
    manifest = reproduce_figure("fig2", str(tmp_path), runs_override=1)
    assert len(manifest["panels"]) == 6  # 3 densities x 2 bases
    for name in manifest["panels"].values():
        assert (tmp_path / name).exists()
    assert (tmp_path / "fig2_manifest.json").exists()
    with pytest.raises(ValueError):
        reproduce_figure("fig1", str(tmp_path))


def test_figures_cover_reference_grid():
    assert set(FIGURES) == {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"}
    assert FIGURES["fig3"]["orders"] == (50, 100)
    assert FIGURES["fig4"]["kind"] == "errors"


def test_theory_suite_report(tmp_path):
    report = theory_suite(
        output_dir=str(tmp_path), seed=3, er_draws=3, graph_count=20, pair_count=3
    )
    written = json.loads((tmp_path / "theory_report.json").read_text())
    assert written["staircase_limit"]["pass"] is True
    assert report["normalized_decomposition"]["pass"] is True
    assert "version" in written


def test_version_is_computed_once_per_process(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(experiments, "version_string", lambda: calls.append(1) or "v-test")
    experiments._version.cache_clear()
    try:
        run_experiment(cycle_config(runs=1, output_dir=str(tmp_path)))
        assert experiments._version() == "v-test"
        assert calls == [1]
        assert "kronspec=v-test" in (tmp_path / "runs.csv").read_text()
    finally:
        experiments._version.cache_clear()


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
    assert spectrum.tobytes() == np.linalg.eigvalsh(op.dense()).tobytes()
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError):
        spectrum[0] = 1.0
    assert product_spectrum(er_op(seed=1)) is spectrum
    assert product_solves == [120]


def test_product_spectrum_misses_other_products(product_solves):
    op = er_op(seed=1)
    swapped = KroneckerLaplacian(op.degrees2, op.degrees1, op.adjacency2, op.adjacency1)
    for other in (op, er_op(seed=2), swapped, er_op(seed=1, orders=(12, 10))):
        product_spectrum(other)
    assert product_solves == [120] * 4
    assert len(experiments._spectra) == 4


def test_spectrum_cache_bound_evicts_least_recently_used(product_solves, monkeypatch):
    ops = [er_op(seed) for seed in (1, 2, 3)]
    monkeypatch.setattr(experiments, "SPECTRUM_CACHE_ENTRIES", 2)
    product_spectrum(ops[0])
    product_spectrum(ops[1])
    product_spectrum(ops[0])  # hit: ops[1] is now the least recently used
    product_spectrum(ops[2])  # evicts ops[1]
    assert len(experiments._spectra) == 2
    assert product_solves == [120] * 3
    product_spectrum(ops[0])
    assert product_solves == [120] * 3
    product_spectrum(ops[1])
    assert product_solves == [120] * 4
