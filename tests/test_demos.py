"""The library demos and the README quickstart run end to end, so an API they use
cannot vanish unnoticed."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    n = namespace["g"].n * namespace["h"].n
    assert namespace["exact"].shape == (n,)
    assert namespace["profile"].shape == (n - 1,)
