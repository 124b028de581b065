"""The library demos run end to end, so an API they use cannot vanish unnoticed."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_exact_regular_products.py",
        "02_estimate_random_pair.py",
        "04_correlation_density.py",
        "05_theory_checks.py",
    ],
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
