"""CLI subcommands: generate, estimate, experiment, figure, theory."""

import json
import subprocess

import numpy as np
import pytest

from kronspec import cli, generators, spectral
from kronspec.checks import sayama_nonnegativity_sweep, star_graph, theory_suite
from kronspec.cli import main
from kronspec.estimators import Estimator, Ordering, OrderingKind, estimate_spectrum
from kronspec.experiments import ExperimentConfig, reproduce_figure
from kronspec.spectral import block_factor, factor_spectra
from kronspec.graphs import InputError, cycle_graph, read_edge_list, write_edge_list
from toolkit import er_pair, fresh_peak_bytes, run_fresh


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


def test_generate_rejects_a_negative_seed_before_drawing(tmp_path, monkeypatch, capsys):
    def no_draw(*args):
        raise AssertionError("a graph was drawn before the seed was checked")

    monkeypatch.setattr(generators, "_draw", no_draw)
    out = tmp_path / "g.edges"
    argv = ["generate", "--model", "ER", "--n", "20", "--seed", "-1", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
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
    g1, g2 = er_pair(12, 15, 1, 2, density=0.3)
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


def input_error(argv: list[str]) -> str:
    """The standard error of ``kronspec <argv>``, which must exit with status 2.

    It runs as the console script runs it, in a fresh process, so a traceback
    would reach standard error.
    """
    with pytest.raises(subprocess.CalledProcessError) as failure:
        run_fresh(f"import sys; from kronspec.cli import main; sys.exit(main({argv!r}))")
    assert failure.value.returncode == 2
    return failure.value.stderr


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("experiment", '{"model": "ER", "orders": [30, 50], "density": "x"}',
         "density must be a number, got 'x'"),
        ("experiment", '{"model": "ER", "orders": [30, 50], "density": 0.3, "run": 5}',
         "unknown config keys: run"),
        ("experiment", '{"model": "ER", "orders": [5, 5], "density": 0.05}',
         "density 0.05 infeasible for ER at order 5 (4.07 isolated vertices expected per draw)"),
        ("estimate", "3 2\n0 1\n", "expected 2 edges, found 1"),
        ("estimate", "3 1\n0 1\n", "vertex 2 is isolated; no normalized Laplacian"),
        ("experiment", '{"model": "ER", "orders": [30, 50], "density": 0.3, "estimators": ["x"]}',
         "estimators must be one of SayamaLaplacian, NormalizedLaplacian, got 'x'"),
        ("experiment", '{"model": "ER", "orders": [30, 50]}', "missing config keys: density"),
        ("experiment", '{"model": "ER", "orders": [1000, 1000], "density": 0.5}',
         "orders must have a product of at most 20000 unless a factor is regular for every "
         "seed (CYCLE, or WS with ws_beta 0), got (1000, 1000)"),
        ("estimate", "10001 0\n", "graph order must be at most 10000, got 10001"),
    ],
    ids=["density", "unknown_key", "infeasible_density", "edge_count", "isolated_vertex",
         "unknown_estimator", "missing_key", "dense_bound", "edge_list_order"],
)
def test_bad_input_is_one_error_line(tmp_path, command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    argv = [command, str(path)] + ([str(path)] if command == "estimate" else [])
    assert input_error(argv) == f"error: {path}: {message}\n"


def test_reading_a_factor_holds_its_adjacency_about_once(tmp_path):
    # the edges go into a 1-byte matrix, the Graph makes the one float64
    # copy and checks it through 1-byte temporaries, and the isolated-vertex
    # check reads the degrees: 1.26 of the float64 adjacency, against 2.26
    # when the edges went into a float matrix and the check built the
    # normalized Laplacian
    n, path = 4000, tmp_path / "c4000.edges"
    path.write_text(f"{n} {n}\n" + "".join(f"{v} {(v + 1) % n}\n" for v in range(n)))
    measured = f"assert _read_factor({str(path)!r}).n == {n}"
    peak = fresh_peak_bytes("from kronspec.cli import _read_factor", measured)
    assert peak < 1.5 * 8 * n**2


def test_estimate_past_the_dense_bound_is_one_error_line(tmp_path):
    # two ER(150) factors (N = 22,500) are refused before any solve; with a
    # cycle factor the same order takes the block path and runs
    er, cycle = tmp_path / "er.edges", tmp_path / "cycle.edges"
    g = generators.generate_connected(generators.GeneratorSpec("ER", 150, 0.1, 1))
    write_edge_list(g, str(er))
    write_edge_list(cycle_graph(150), str(cycle))
    assert input_error(["estimate", str(er), str(er)]) == (
        "error: the product of orders 150 and 150 has order 22500, above the dense bound "
        "20000, and neither factor is regular\n"
    )
    out = tmp_path / "spectra.csv"
    assert main(["estimate", str(cycle), str(er), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2 + 150 * 150


DENSE_BOUND = (
    "the product of orders 150 and 150 has order 22500, above the dense bound 20000, and "
    "neither factor is regular"
)


def test_estimate_past_the_dense_bound_solves_nothing(tmp_path, monkeypatch, capsys):
    # the product's solve decision comes before the factor solves, so the
    # refusal costs no eigensolve of any kind
    solves = []
    eigh, owned = np.linalg.eigh, spectral.owned_eigenvalues
    monkeypatch.setattr(np.linalg, "eigh", lambda m: solves.append(len(m)) or eigh(m))
    monkeypatch.setattr(spectral, "owned_eigenvalues", lambda m: solves.append(len(m)) or owned(m))
    star = tmp_path / "star.edges"
    write_edge_list(star_graph(150), str(star))
    assert main(["estimate", str(star), str(star)]) == 2
    assert capsys.readouterr().err == f"error: {DENSE_BOUND}\n"
    assert solves == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda out: generators.GeneratorSpec("ER", 20, 0.3, seed=-1),
         "seed must be nonnegative, got -1"),
        (lambda out: ExperimentConfig.from_dict({"model": "ER", "orders": [30, 50]}),
         "missing config keys: density"),
        (lambda out: ExperimentConfig.from_dict(
            {"model": "ER", "orders": [1000, 1000], "density": 0.5}),
         "orders must have a product of at most 20000 unless a factor is regular for every "
         "seed (CYCLE, or WS with ws_beta 0), got (1000, 1000)"),
        (lambda out: Ordering(OrderingKind.CORRELATED, swap_count=3),
         "swap_count must be 0 for ordering kind Correlated"),
        (lambda out: block_factor(star_graph(150), star_graph(150)), DENSE_BOUND),
        (lambda out: reproduce_figure("fig4", out, runs_override=0),
         "runs must be at least 1, got 0"),
        (lambda out: theory_suite(out, graphs=1), "graphs must be at least 2, got 1"),
        (lambda out: sayama_nonnegativity_sweep(20, -1), "seed must be nonnegative, got -1"),
    ],
    ids=["GeneratorSpec", "from_dict", "from_dict_dense_bound", "Ordering", "block_factor",
         "reproduce_figure", "theory_suite", "sweep_seed"],
)
def test_an_entry_rule_raises_an_input_error(tmp_path, call, message):
    # the type main prints as one line, with the message it prints; nothing is written
    out = tmp_path / "out"
    with pytest.raises(InputError) as raised:
        call(str(out))
    assert str(raised.value) == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["experiment", "estimate"])
def test_a_missing_input_file_is_one_error_line(tmp_path, command):
    missing, factor = tmp_path / "nothere", tmp_path / "g.edges"
    write_edge_list(cycle_graph(5), str(factor))
    argv = [command, str(missing)] + ([str(factor)] if command == "estimate" else [])
    assert input_error(argv) == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["figure", "fig4", "--runs", "0"], "runs must be at least 1, got 0"),
        (["theory", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["theory", "--draws", "0"], "draws must be at least 1, got 0"),
        (["theory", "--graphs", "1"], "graphs must be at least 2, got 1"),
        (["theory", "--draws", "10001"], "draws must be at most 10000, got 10001"),
        (["theory", "--graphs", "10001"], "graphs must be at most 10000, got 10001"),
    ],
    ids=["figure_runs", "theory_seed", "theory_draws", "theory_graphs", "theory_draws_above",
         "theory_graphs_above"],
)
def test_a_bad_flag_of_figure_or_theory_is_one_error_line(tmp_path, argv, message):
    # checked where it enters, before any run: nothing is written
    out = tmp_path / "out"
    assert input_error(argv + ["-o", str(out)]) == f"error: {message}\n"
    assert not out.exists()


def test_a_value_error_after_the_inputs_are_read_keeps_its_traceback(tmp_path, monkeypatch):
    def failing_run(config):
        raise ValueError("raised inside a run")

    monkeypatch.setattr(cli, "run_experiment", failing_run)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"model": "CYCLE", "orders": [9, 7], "density": 0.5}))
    with pytest.raises(ValueError, match="raised inside a run"):
        main(["experiment", str(config_path), "--output-dir", str(tmp_path / "out")])
    # and once figure or theory has checked its flags
    monkeypatch.setattr(cli, "reproduce_figure", lambda *args, **kwargs: failing_run(None))
    monkeypatch.setattr(cli, "theory_suite", lambda **kwargs: failing_run(None))
    with pytest.raises(ValueError, match="raised inside a run"):
        main(["figure", "fig4", "--runs", "1", "-o", str(tmp_path / "fig")])
    with pytest.raises(ValueError, match="raised inside a run"):
        main(["theory", "--seed", "1"])


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
        {"output_dir": None, "seed": 7, "draws": 3, "graphs": 20},
        (("fig2", out), {"runs_override": None}),
        (("fig2", out), {"runs_override": 1, "master_seed": 5}),
    ]


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["figure", "fig99", "--output-dir", str(tmp_path)])
