"""Run every workload, untraced and traced, and check each result.

    python3 perfbench/smoke.py            # reduced sizes: the smoke test, ~2 min
    python3 perfbench/smoke.py --full     # full sizes, as BENCHMARK.json runs them

Runs ``run.py`` for every workload with ``--trace 0`` and ``--trace 1``, so
the workers, the correctness checks, the tracer and the result format are
all exercised, and prints each run's metrics, attempted and failed counts.
The smoke test uses ``run.py --small`` and one second per run; ``--full``
uses the real sizes and the run length from BENCHMARK.json. Each result
must be correct, with no failed command, and must name exactly the metrics
and units BENCHMARK.json lists. Finally it runs the benchmark from a copy
that has no ``src/`` and expects a nonzero exit and no result. Exits with
status 1 if anything failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int, seconds=1, small=True):
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
        + (["--small"] if small else []),
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_result(proc, workload: str, trace: int, spec: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit status {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stdout}")
    listed = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {expected}")
    return problems


def main() -> int:
    full = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    full.add_argument("--full", action="store_true", help="full sizes instead of reduced ones")
    full = full.parse_args().full
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if full else 1
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace, seconds, small=not full)
            found = check_result(proc, workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            if proc.returncode == 0:
                result = json.loads(proc.stdout.splitlines()[-1])
                print(f"  attempted {result['attempted']}, failed {result['failed']}")
                for name, m in result["metrics"].items():
                    print(f"  {name} = {m['value']:.6g} {m['unit']}", flush=True)
            problems += found

    # a tree holding only the benchmark must fail without printing a result
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or any(line.startswith("{") for line in proc.stdout.splitlines()):
            problems.append("benchmark without src/ did not fail")
        print(f"without src/: {'ok' if proc.returncode != 0 else 'FAILED'}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
