"""The same-bytes gate, ``tools/samebytes.py``, on two copies of ``src/``."""

import importlib.util
import shutil

from toolkit import SRC

spec = importlib.util.spec_from_file_location("samebytes", SRC.parent / "tools" / "samebytes.py")
samebytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(samebytes)

# one corpus config, small enough for the unit suite
CONFIGS = {
    "er": {"model": "ER", "orders": [12, 15], "density": 0.4, "runs": 3, "master_seed": 5,
           "compute_correlations": False},
}


def test_samebytes_passes_identical_trees_and_names_a_changed_report(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    assert samebytes.compare(base, head, tmp_path / "same", CONFIGS, []) == 0
    assert capsys.readouterr().out == "6 files identical\n"

    estimators = head / "kronspec" / "estimators.py"
    source = estimators.read_text()
    assert "ZERO_SNAP = 1e-12\n" in source
    estimators.write_text(source.replace("ZERO_SNAP = 1e-12\n", "ZERO_SNAP = 0.0\n"))
    assert samebytes.compare(base, head, tmp_path / "perturbed", CONFIGS, []) == 1
    out = capsys.readouterr().out
    assert "er/errors_SayamaLaplacian.csv: line 3\n  base: 1," in out


def test_samebytes_reports_expected_files_and_fails_a_stale_expectation(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for tree in (base, head):
        shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    # nothing differs, so the expectation is stale and fails the gate
    assert samebytes.compare(base, head, tmp_path / "same", CONFIGS, [], ["er/errors_*"]) == 1
    assert capsys.readouterr().out == (
        "--expect 'er/errors_*' matched no differing file\n1 differences in 6 files\n"
    )

    estimators = head / "kronspec" / "estimators.py"
    source = estimators.read_text()
    estimators.write_text(source.replace("ZERO_SNAP = 1e-12\n", "ZERO_SNAP = 0.0\n"))
    # both changed errors tables are expected: printed, and the gate passes
    assert samebytes.compare(base, head, tmp_path / "expected", CONFIGS, [], ["er/errors_*"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("expected: er/errors_NormalizedLaplacian.csv: line 3\n")
    assert "expected: er/errors_SayamaLaplacian.csv: line 3\n  base: 1," in out
    assert out.endswith("\n4 files identical, 2 expected to differ\n")
    # a second glob that matches nothing still fails it
    globs = ["er/errors_*", "er/runs.csv"]
    assert samebytes.compare(base, head, tmp_path / "stale", CONFIGS, [], globs) == 1
    assert "--expect 'er/runs.csv' matched no differing file\n" in capsys.readouterr().out
