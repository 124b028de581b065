"""CLI subcommands: generate, estimate, experiment, figure, theory."""

import json

import numpy as np
import pytest

from kronspec import cli, generators
from kronspec.cli import main
from kronspec.estimators import Estimator, Ordering, OrderingKind, estimate_spectrum
from kronspec.generators import GeneratorSpec, generate_connected
from kronspec.spectral import factor_spectra
from kronspec.graphs import read_edge_list, write_edge_list
from kronspec.checks import cycle_graph


def test_generate_round_trips(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["generate", "--model", "ER", "--n", "20", "--density", "0.4",
                 "--seed", "3", "--output", str(out)]) == 0
    g = read_edge_list(str(out))
    assert g.n == 20
    assert "wrote" in capsys.readouterr().out


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    for path in (a, b):
        main(["generate", "--model", "BA", "--n", "15", "--density", "0.3",
              "--seed", "9", "--output", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_a_negative_seed_before_drawing(tmp_path, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a graph was drawn before the seed was checked")

    monkeypatch.setattr(generators, "_draw", no_draw)
    out = tmp_path / "g.edges"
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        main(["generate", "--model", "ER", "--n", "20", "--seed", "-1", "--output", str(out)])
    assert not out.exists()


def test_estimate_outputs_exact_and_estimates(tmp_path):
    f1, f2 = tmp_path / "c9.edges", tmp_path / "c7.edges"
    write_edge_list(cycle_graph(9), str(f1))
    write_edge_list(cycle_graph(7), str(f2))
    out = tmp_path / "spectra.csv"
    assert main(["estimate", str(f1), str(f2), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "rank,exact,estimate_sayama,estimate_normalized"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 63
    # regular factors: estimates coincide with the exact spectrum
    exact = np.array([float(r[1]) for r in rows])
    sayama = np.array([float(r[2]) for r in rows])
    assert np.abs(exact - sayama).max() <= 1e-9


@pytest.mark.parametrize("ordering", [None, "Correlated"])
def test_estimate_pairs_orderings_as_experiment_runs(tmp_path, ordering):
    # no --ordering: Correlated for Sayama, Uncorrelated seeded by --seed for
    # the normalized estimate; an explicit --ordering applies to both
    g1 = generate_connected(GeneratorSpec("ER", 12, 0.3, 1))
    g2 = generate_connected(GeneratorSpec("ER", 15, 0.3, 2))
    f1, f2 = tmp_path / "g1.edges", tmp_path / "g2.edges"
    write_edge_list(g1, str(f1))
    write_edge_list(g2, str(f2))
    out = tmp_path / "spectra.csv"
    argv = ["estimate", str(f1), str(f2), "--seed", "5", "--output", str(out)]
    assert main(argv + (["--ordering", ordering] if ordering else [])) == 0
    lines = out.read_text().splitlines()
    expected = {
        Estimator.SAYAMA_LAPLACIAN: Ordering(ordering or OrderingKind.CORRELATED, 5),
        Estimator.NORMALIZED_LAPLACIAN: Ordering(ordering or OrderingKind.UNCORRELATED, 5),
    }
    kinds = [pairing.kind.value for pairing in expected.values()]
    assert lines[0].endswith(f"ordering_sayama={kinds[0]} ordering_normalized={kinds[1]} seed=5")
    columns = np.array([[float(x) for x in line.split(",")[2:]] for line in lines[2:]]).T
    spectra1, spectra2 = factor_spectra(g1), factor_spectra(g2)
    for column, (estimator, pairing) in zip(columns, expected.items()):
        reference = np.sort(estimate_spectrum(estimator, spectra1, spectra2, pairing))
        assert np.array_equal(column, reference)


def test_experiment_subcommand(tmp_path):
    config = {
        "model": "CYCLE",
        "orders": [9, 7],
        "density": 0.5,
        "runs": 1,
        "master_seed": 4,
        "compute_correlations": False,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", str(config_path), "--output-dir", str(out)]) == 0
    assert (out / "manifest.json").exists()
    assert (out / "errors_NormalizedLaplacian.csv").exists()


def test_experiment_requires_output_dir(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": "CYCLE", "orders": [9, 7], "density": 0.5, "runs": 1}))
    assert main(["experiment", str(config_path)]) == 2
    assert "output_dir" in capsys.readouterr().err


def test_figure_subcommand(tmp_path):
    out = tmp_path / "figs"
    assert main(["figure", "fig2", "--output-dir", str(out), "--runs", "1"]) == 0
    manifest = json.loads((out / "fig2_manifest.json").read_text())
    assert len(manifest["panels"]) == 6


def test_theory_subcommand(tmp_path, capsys):
    out = tmp_path / "theory"
    code = main(["theory", "--output-dir", str(out), "--seed", "3",
                 "--draws", "3", "--graphs", "20"])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert (out / "theory_report.json").exists()


def test_theory_and_figure_leave_unset_flags_to_the_library(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "theory_suite", lambda **kw: calls.append(kw) or {"all_pass": True})
    monkeypatch.setattr(
        cli, "reproduce_figure", lambda *args, **kw: calls.append((args, kw)) or {"panels": {}}
    )
    out = str(tmp_path)
    assert main(["theory"]) == 0
    assert main(["theory", "--seed", "7", "--draws", "3", "--graphs", "20"]) == 0
    assert main(["figure", "fig2", "-o", out]) == 0
    assert main(["figure", "fig2", "-o", out, "--master-seed", "5", "--runs", "1"]) == 0
    assert calls == [
        {"output_dir": None},
        {"output_dir": None, "seed": 7, "er_draws": 3, "graph_count": 20},
        (("fig2", out), {"runs_override": None}),
        (("fig2", out), {"runs_override": 1, "master_seed": 5}),
    ]


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["figure", "fig99", "--output-dir", str(tmp_path)])
