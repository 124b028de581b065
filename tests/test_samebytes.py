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
