"""kronspec benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload bands-30x50 --seed 1 --seconds 12 --trace 0

Each round runs the workload's commands once, in a fresh worker process
(worker.py); rounds repeat, with new seeds, until the timed work adds up to
``--seconds``. With ``--trace 0`` every round is untraced and the end-to-end
metrics are printed: medians over rounds of the wall time and CPU time of the
commands, of the worker's peak RSS, and of the set-up time (process start
until kronspec is imported and the configs are written). With ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics are printed,
with the tracing overhead as traced minus untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment. Exits with status 1, printing no result, when a
worker fails to start, crashes, or runs out of time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "kronspec"
WORKER = HERE / "worker.py"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_SAMPLES = 3        # fewer rounds than this: top up with set-up-only workers
LAST_ROUND_START_S = 90  # start no round later than this into the run
DEADLINE_S = 170         # kill a worker still running this long into the run


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true", help="reduced sizes, for the smoke test")
    return p.parse_args(argv)


def run_worker(args, round_index: int, round_dir: Path, deadline: float,
               traced=False, deep=False, setup_only=False) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time and its result (None if setup_only)."""
    argv = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--round", str(round_index), "--dir", str(round_dir),
    ]
    argv += [flag for flag, on in (("--trace", traced), ("--deep", deep),
                                   ("--small", args.small), ("--setup-only", setup_only)) if on]
    # the workload runs sequentially: no KRONSPEC_THREADS process pool
    env = {k: v for k, v in os.environ.items() if k != "KRONSPEC_THREADS"}
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise WorkerError(f"round {round_index} worker exited with status {proc.returncode}")
    if setup_only:
        return setup_s, None
    if not lines:
        raise WorkerError(f"round {round_index} worker printed no result")
    return setup_s, json.loads(lines[-1])


def run_rounds(args, scratch: Path) -> tuple[list[dict], list[float]]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    rounds, setups = [], []
    measured = 0.0
    while True:
        index = len(rounds)
        traced = args.trace == 1 and index % 2 == 1
        setup_s, result = run_worker(args, index, scratch / f"round{index}", deadline,
                                     traced=traced, deep=index == 0)
        result["traced"] = traced
        rounds.append(result)
        setups.append(setup_s)
        if not traced:
            measured += result["wall_s"]
        enough = measured >= args.seconds and (args.trace == 0 or len(rounds) >= 2)
        if enough or time.monotonic() - start > LAST_ROUND_START_S:
            break
    while len(setups) < SETUP_SAMPLES:
        index = len(setups)
        setup_s, _ = run_worker(args, index, scratch / f"setup{index}", deadline, setup_only=True)
        setups.append(setup_s)
    return rounds, setups


def code_identity() -> dict:
    """git describe of the checkout when it is a git work tree, and a hash of src/kronspec."""
    try:
        out = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}",
             "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
        )
        describe = out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        describe = None
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_describe": describe or "unavailable", "src_sha256": digest.hexdigest()[:16]}


def source_lines() -> dict[str, int]:
    return {layer: len((SRC / f"{layer}.py").read_text().splitlines())
            for layer in tracing.LAYERS if (SRC / f"{layer}.py").is_file()}


def main(argv=None) -> int:
    args = parse_args(argv)
    base = ROOT / ".perfbench_out"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        rounds, setups = run_rounds(args, scratch)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    for i, r in enumerate(rounds):
        print(f"round {i} {'traced' if r['traced'] else 'untraced'}: wall {r['wall_s']:.3f} s, "
              f"cpu {r['cpu_s']:.3f} s, peak rss {r['peak_rss_mb']:.1f} MB, "
              f"set-up {setups[i]:.3f} s, {r['attempted']} commands, {r['failed']} failed")
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}")

    def median(key):
        return statistics.median(r[key] for r in plain)

    if traced:
        overhead = statistics.median(r["wall_s"] for r in traced) - median("wall_s")
        values = tracing.per_layer([r["layers"] for r in traced], source_lines(), overhead)
        units = tracing.PER_LAYER
    else:
        values = {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
                  "peak_rss_mb": median("peak_rss_mb"), "setup_s": statistics.median(setups)}
        units = END_TO_END
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")

    env = {**rounds[0]["env"], **code_identity(), "workload": args.workload, "seed": args.seed,
           "rounds": len(rounds), "setup_samples": len(setups)}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
