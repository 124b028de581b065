"""The same-bytes gate: does the working tree write the reports that BASE_REV writes?

    python tools/samebytes.py BASE_REV [--expect GLOB ...]

Exports ``src/`` of BASE_REV with ``git archive`` into a temporary directory and
runs one fixed corpus of kronspec commands on it and on the working tree's
``src/``, uncommitted edits included. Each command runs in a fresh process under
``OPENBLAS_NUM_THREADS=1``, since the dense eigensolve rounds differently under
different thread counts. Every file the commands write, and each command's
standard output, is then compared byte for byte, with the version stamp and the
output directory masked and nothing else. Each differing file is printed with
its first differing line. Exits 1 on any difference or failed command, else 0.

``--expect GLOB``, which may be repeated, names files a change means to alter:
a differing file whose path under the run directory matches a glob (by
``fnmatch``, so ``*`` also matches ``/``), e.g. ``er_40x100/errors_*``, is
printed as ``expected:`` and does not fail the gate. A glob that matches no
differing file fails it, so a stale expectation hides nothing.

The corpus:

* one round of the bands-30x50 and kde-30x50 benchmark commands
  (``perfbench/workloads.py``, seed 7, round 0);
* ER (12,15) d=0.4 with 3 runs, master seed 5; ER (50,70) d=0.3 with 1 run,
  master seed 5, whose dense product (order 3500) is the largest ``dsyevd``
  solves; ER (40,100) d=0.1 with 1 run and correlations off, master seed 5,
  the first order (4000) ``dsyevd_2stage`` solves; CYCLE (13,15) and
  CYCLE (15,13), solved in blocks of the larger cycle, second and then
  first; CYCLE (3,3); CYCLE (14,15), whose first factor is bipartite and
  second is not; WS (12,15) d=0.4 under an explicit CorrelatedRandomized
  ordering; ER (4,5) d=0.5 with 20 runs, master seed 5, whose runs 13, 14
  and 17 draw two bipartite factors and redraw the second;
* ``figure fig2 --runs 1`` and ``figure fig4 --runs 1 --master-seed 3``;
* two generated ER factors, and ``estimate`` on them with and without
  ``--ordering``, each to stdout and to a file;
* a generated cycle C51, and ``estimate`` of the first ER factor (order 30)
  with it and of it with the first ER factor, to stdout: products with one
  regular factor, second and then first, solved as blocks;
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
from collections.abc import Sequence
from fnmatch import fnmatchcase
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
        "er_50x70": er | {"orders": [50, 70], "density": 0.3, "runs": 1},
        "er_40x100": er | {"orders": [40, 100], "density": 0.1, "runs": 1,
                           "compute_correlations": False},
        "cycle_13x15": {"model": "CYCLE", "orders": [13, 15], "density": 0.5, "runs": 2},
        "cycle_15x13": {"model": "CYCLE", "orders": [15, 13], "density": 0.5, "runs": 2},
        "cycle_3x3": {"model": "CYCLE", "orders": [3, 3], "density": 0.5, "runs": 2},
        "cycle_14x15": {"model": "CYCLE", "orders": [14, 15], "density": 0.5, "runs": 2},
        "ws_ordering": er | {"model": "WS", "ordering": ordering},
        "er_4x5_redraw": er | {"orders": [4, 5], "density": 0.5, "runs": 20},
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
    ("c51", ["generate", "--model", "CYCLE", "--n", "51", "-o", "{run}/c51.edges"]),
    ("estimate_cycle", ["estimate", "{run}/g1.edges", "{run}/c51.edges"]),
    ("estimate_cycle_first", ["estimate", "{run}/c51.edges", "{run}/g1.edges"]),
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


def differences(base: Path, head: Path) -> dict[str, str]:
    """What differs between two run directories after masking, by relative path: a
    missing file, or a file's first differing line on each side."""
    files = {p.relative_to(run) for run in (base, head) for p in run.rglob("*") if p.is_file()}
    found = {}
    for rel in sorted(files):
        if not (base / rel).is_file() or not (head / rel).is_file():
            found[rel.as_posix()] = f"{rel}: only in {'head' if (head / rel).is_file() else 'base'}"
            continue
        a, b = _masked(base / rel, base), _masked(head / rel, head)
        if a != b:
            k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lines = [x[k].decode() if k < len(x) else "<end of file>" for x in (a, b)]
            found[rel.as_posix()] = f"{rel}: line {k + 1}\n  base: {lines[0]}\n  head: {lines[1]}"
    return found


def compare(base_src: Path, head_src: Path, work: Path, configs: dict, commands: list,
            expect: Sequence[str] = ()) -> int:
    """Run the corpus on both sources under ``work`` and print what differs; the exit status.

    A differing file that matches a glob in ``expect`` is printed as expected and
    passes; a glob that matches no differing file fails.
    """
    runs = {side: work / side for side in ("base", "head")}
    failures = run_corpus(base_src, runs["base"], configs, commands)
    failures += run_corpus(head_src, runs["head"], configs, commands)
    found = differences(runs["base"], runs["head"])
    expected = {rel for rel in found if any(fnmatchcase(rel, glob) for glob in expect)}
    stale = [glob for glob in expect if not any(fnmatchcase(rel, glob) for rel in expected)]
    problems = failures + [text for rel, text in found.items() if rel not in expected]
    problems += [f"--expect {glob!r} matched no differing file" for glob in stale]
    for rel in sorted(expected):
        print(f"expected: {found[rel]}")
    for line in problems:
        print(line)
    count = sum(1 for p in runs["head"].rglob("*") if p.is_file())
    if problems:
        summary = f"{len(problems)} differences in {count} files"
    else:
        summary = f"{count - len(expected)} files identical"
    print(summary + (f", {len(expected)} expected to differ" if expected else ""))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_rev", metavar="BASE_REV", help="the git revision to compare with")
    parser.add_argument("--expect", action="append", default=[], metavar="GLOB",
                        help="a file the change means to alter (repeatable)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        work = Path(tmp)
        export = ["git", "-C", str(ROOT), "archive", "-o", str(work / "base.tar"), args.base_rev,
                  "src"]
        if subprocess.run(export).returncode != 0:
            return 2  # git has said why
        with tarfile.open(work / "base.tar") as tar:
            tar.extractall(work / "base_tree", filter="data")
        return compare(work / "base_tree" / "src", ROOT / "src", work, corpus_configs(), COMMANDS,
                       args.expect)


if __name__ == "__main__":
    sys.exit(main())
