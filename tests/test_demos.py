"""The library demos and the README quickstart run end to end, so an API they use
cannot vanish unnoticed; they and the tests import each name from the module that
defines it."""

import ast
import dataclasses
import re
import runpy
from pathlib import Path

import pytest

from kronspec import experiments
from toolkit import SRC, TESTS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_exact_regular_products.py",
        "02_estimate_random_pair.py",
        "03_error_bands.py",
        "04_correlation_density.py",
        "05_theory_checks.py",
    ],
)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if script == "03_error_bands.py":
        # the demo imports run_experiment as it runs, so it gets this one: 2 runs a config,
        # not its 15 at (30,50)
        run_experiment = experiments.run_experiment
        monkeypatch.setattr(
            experiments, "run_experiment", lambda c: run_experiment(dataclasses.replace(c, runs=2))
        )
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


def _defined(module: Path) -> set[str]:
    """The names a module binds at its top level, other than by import."""
    names = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    modules = {path.stem: _defined(path) for path in (SRC / "kronspec").glob("*.py")}
    # the package binds __version__ and re-exports nothing
    init = ast.parse((SRC / "kronspec" / "__init__.py").read_text())
    assert not [node for node in init.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert modules.pop("__init__") == {"__version__"}
    readme = (ROOT / "README.md").read_text()
    sources = {path.name: path.read_text() for path in [*TESTS.glob("*.py"), *DEMOS.glob("*.py")]}
    sources |= dict(enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)))
    wrong = []
    for where, code in sources.items():
        submodules = {}
        for node in ast.walk(ast.parse(code)):
            if isinstance(node, ast.ImportFrom) and node.module == "kronspec":
                submodules |= {a.asname or a.name: a.name for a in node.names}
                wrong += [f"{where}: kronspec.{a.name}" for a in node.names if a.name not in modules]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kronspec."):
                defined = modules[node.module.split(".")[1]]
                wrong += [f"{where}: {node.module}.{a.name}" for a in node.names
                          if a.name not in defined]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in submodules:
                if node.attr not in modules.get(submodules[node.value.id], ()):
                    wrong.append(f"{where}: {submodules[node.value.id]}.{node.attr}")
    assert wrong == []


def test_every_public_name_is_read_by_the_library():
    # a public name that no library module reads is API that only tests or demos use:
    # each is read by its own module outside the statement that binds it, or imported
    # by another
    trees = {path: ast.parse(path.read_text()) for path in (SRC / "kronspec").glob("*.py")}
    imported = {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unread = []
    for path, tree in trees.items():
        for name in sorted(_defined(path)):
            if name.startswith("_") or (path.stem, name) in imported:
                continue
            if not any(
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                for statement in tree.body
                if getattr(statement, "name", None) != name
                for node in ast.walk(statement)
            ):
                unread.append(f"{path.stem}.{name}")
    assert unread == []
