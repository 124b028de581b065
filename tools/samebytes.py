"""The same-bytes gate: does the working tree write the reports that BASE_REV writes?

    python tools/samebytes.py BASE_REV

Exports ``src/`` of BASE_REV with ``git archive`` into a temporary directory and
runs one fixed corpus of kronspec commands on it and on the working tree's
``src/``, uncommitted edits included. Each command runs in a fresh process under
``OPENBLAS_NUM_THREADS=1``, since the dense eigensolve rounds differently under
different thread counts. Every file the commands write, and each command's
standard output, is then compared byte for byte, with the version stamp and the
output directory masked and nothing else. Each differing file is printed with
its first differing line. Exits 1 on any difference or failed command, else 0.

The corpus:

* one round of the bands-30x50 and kde-30x50 benchmark commands
  (``perfbench/workloads.py``, seed 7, round 0);
* ER (12,15) d=0.4 with 3 runs, master seed 5; CYCLE (13,15) and CYCLE (3,3);
  WS (12,15) d=0.4 under an explicit CorrelatedRandomized ordering;
* ``figure fig2 --runs 1`` and ``figure fig4 --runs 1 --master-seed 3``;
* two generated ER factors, and ``estimate`` on them with and without
  ``--ordering``, each to stdout and to a file;
* ``theory --seed 7``, and ``theory`` at its default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

MASKS = [
    (re.compile(rb"kronspec=\S+"), b"kronspec=<version>"),
    (re.compile(rb'"version": "[^"]*"'), b'"version": "<version>"'),
]


def corpus_configs() -> dict[str, dict]:
    """The config of every ``kronspec experiment`` command of the corpus, by name."""
    named = {
        f"{workload}/{command['name']}": command["config"]
        for workload in ("bands-30x50", "kde-30x50")
        for command in workloads.commands(workload, seed=7, round_index=0)
    }
    er = {"model": "ER", "orders": [12, 15], "density": 0.4, "runs": 3, "master_seed": 5}
    ordering = {"kind": "CorrelatedRandomized", "randomization_seed": 3}
    return named | {
        "er_12x15": er,
        "cycle_13x15": {"model": "CYCLE", "orders": [13, 15], "density": 0.5, "runs": 2},
        "cycle_3x3": {"model": "CYCLE", "orders": [3, 3], "density": 0.5, "runs": 2},
        "ws_ordering": er | {"model": "WS", "ordering": ordering},
    }


def _estimate(name: str, *flags: str) -> list[tuple[str, list[str]]]:
    argv = ["estimate", "{run}/g1.edges", "{run}/g2.edges", *flags]
    return [(name, argv), (f"{name}_file", [*argv, "-o", f"{{run}}/{name}.csv"])]


# (name, argv) of the commands run after the experiments, in order; {run} is the run directory
COMMANDS = [
    ("fig2", ["figure", "fig2", "--runs", "1", "-o", "{run}/fig2"]),
    ("fig4", ["figure", "fig4", "--runs", "1", "--master-seed", "3", "-o", "{run}/fig4"]),
    ("g1", ["generate", "--model", "ER", "--n", "30", "--seed", "7", "-o", "{run}/g1.edges"]),
    ("g2", ["generate", "--model", "ER", "--n", "50", "--seed", "8", "-o", "{run}/g2.edges"]),
    *_estimate("estimate"),
    *_estimate("estimate_anticorrelated", "--ordering", "AntiCorrelated", "--seed", "3"),
    ("theory_seed7", ["theory", "--seed", "7", "-o", "{run}/theory_seed7"]),
    ("theory", ["theory", "-o", "{run}/theory"]),
]


def run_corpus(src: Path, run: Path, configs: dict[str, dict], commands: list) -> list[str]:
    """Run every config and command on the kronspec in ``src``, writing under ``run``.

    Each command's standard output goes to ``run/stdout/<name>``. Returns one
    line per command that exited nonzero.
    """
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    experiments = []
    for name, config in configs.items():
        path = run / "configs" / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(config, indent=2))
        experiments.append((name, ["experiment", str(path), "--output-dir", f"{{run}}/{name}"]))
    failures = []
    for name, argv in experiments + commands:
        proc = subprocess.run(
            [sys.executable, "-m", "kronspec.cli", *(a.format(run=run) for a in argv)],
            env=env, capture_output=True,
        )
        out = run / "stdout" / name
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(proc.stdout)
        if proc.returncode != 0:
            failures.append(f"{src}: {name} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return failures


def _masked(path: Path, run: Path) -> list[bytes]:
    data = path.read_bytes().replace(str(run).encode(), b"<out>")
    for pattern, mask in MASKS:
        data = pattern.sub(mask, data)
    return data.splitlines()


def differences(base: Path, head: Path) -> list[str]:
    """What differs between two run directories after masking: a missing file, or a
    file's first differing line on each side."""
    files = {p.relative_to(run) for run in (base, head) for p in run.rglob("*") if p.is_file()}
    found = []
    for rel in sorted(files):
        if not (base / rel).is_file() or not (head / rel).is_file():
            found.append(f"{rel}: only in {'head' if (head / rel).is_file() else 'base'}")
            continue
        a, b = _masked(base / rel, base), _masked(head / rel, head)
        if a != b:
            k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lines = [x[k].decode() if k < len(x) else "<end of file>" for x in (a, b)]
            found.append(f"{rel}: line {k + 1}\n  base: {lines[0]}\n  head: {lines[1]}")
    return found


def compare(base_src: Path, head_src: Path, work: Path, configs: dict, commands: list) -> int:
    """Run the corpus on both sources under ``work`` and print what differs; the exit status."""
    runs = {side: work / side for side in ("base", "head")}
    failures = run_corpus(base_src, runs["base"], configs, commands)
    failures += run_corpus(head_src, runs["head"], configs, commands)
    found = failures + differences(runs["base"], runs["head"])
    for line in found:
        print(line)
    count = sum(1 for p in runs["head"].rglob("*") if p.is_file())
    print(f"{len(found)} differences in {count} files" if found else f"{count} files identical")
    return 1 if found else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV", help="the git revision to compare with")
    base_rev = parser.parse_args(argv).base_rev
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        work = Path(tmp)
        export = ["git", "-C", str(ROOT), "archive", "-o", str(work / "base.tar"), base_rev, "src"]
        if subprocess.run(export).returncode != 0:
            return 2  # git has said why
        with tarfile.open(work / "base.tar") as tar:
            tar.extractall(work / "base_tree", filter="data")
        return compare(work / "base_tree" / "src", ROOT / "src", work, corpus_configs(), COMMANDS)


if __name__ == "__main__":
    sys.exit(main())
